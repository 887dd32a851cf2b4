// Bisection bandwidth measurement.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/stats.h"
#include "graph/graph.h"
#include "topology/topology.h"

namespace dcn::metrics {

// Max-flow (= min link cut) between the topology's canonical bisection
// halves, in unit links. For the cube topologies the canonical halves split
// on the most significant digit, the cut the literature quotes; the analytic
// value is Topology::TheoreticalBisection().
std::int64_t MeasureBisection(const topo::Topology& net,
                              const graph::FailureSet* failures = nullptr);

struct PairCutStats {
  IntHistogram cuts;          // per-pair min cut (link-disjoint path count)
  std::int64_t min_cut = 0;   // weakest pair
  double mean_cut = 0.0;
  std::int64_t pairs = 0;     // pairs the stats cover
};

// Monte Carlo counterpart of the canonical-cut measurement: max-flow between
// `pairs` random distinct server pairs (each flow = that pair's link
// connectivity). Pair i draws from rng.Fork(i), so the sample set is
// identical for any thread count. Two exact paths answer the draws:
//  * (S-1) x TeamSize() <= pairs: the servers-only cut tree
//    (graph::BuildCutTree, S-1 serial solves), then one tree query per pair;
//  * otherwise: queries grouped by source into a batched Dinic
//    (graph::EdgeConnectivityBatch) per chunk, split across the pool.
// Both give the same cut per pair, so the output is bit-identical whichever
// path runs. Requires >= 2 servers and pairs > 0.
PairCutStats SampledPairCuts(const topo::Topology& net, std::size_t pairs,
                             Rng& rng);

// Exact replacement for sampling where S permits: the min cut of EVERY
// unordered server pair, from the servers-only cut tree — S-1 bounded
// unit-Dinic solves instead of S(S-1)/2. Pair counts per cut value come from
// a descending-weight Kruskal merge over the S-1 tree edges, so the cost
// beyond the tree build is O(S log S). Dead servers (under `failures`) count
// as cut-0 pairs, matching per-pair EdgeConnectivity. Requires >= 2 servers.
PairCutStats AllPairsCutStats(const topo::Topology& net,
                              const graph::FailureSet* failures = nullptr);

}  // namespace dcn::metrics
