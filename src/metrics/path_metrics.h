// Diameter, average path length, and routing stretch.
//
// All distances are in links between *servers* (switch relays count toward
// length but switches are never endpoints), matching the papers' metric.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "topology/implicit.h"
#include "topology/topology.h"

namespace dcn::metrics {

struct ExactPathStats {
  int diameter = 0;                 // max server-to-server distance
  int radius = 0;                   // min over servers of server eccentricity
  double average = 0.0;             // mean over all ordered server pairs
  std::uint64_t pairs = 0;          // ordered pairs counted
  bool connected = true;            // false if any pair was unreachable
  // pairs_at_distance[d] = ordered server pairs at exactly distance d
  // (index 0 is always 0: a pair has distinct endpoints).
  std::vector<std::uint64_t> pairs_at_distance;
};

// Exact diameter, radius, average shortest server-to-server path length, and
// the full distance histogram, via the bit-parallel multi-source BFS sweep
// (graph/msbfs.h): 64 sources per pass, so the whole sweep costs
// O(S/64 * (V + E)) word operations instead of S full traversals. Source
// blocks run across the DCN_THREADS pool (common/parallel.h); every count is
// an exact integer, so results are bit-identical for any thread count.
ExactPathStats ExactServerPathStats(const topo::Topology& net);

// Same sweep over an implicit cube: no adjacency arrays are ever built, so
// the only O(V) state is the traversal workspaces. Bit-identical to the
// materialized overload on equal parameters (tests/test_implicit.cc).
ExactPathStats ExactServerPathStats(const topo::ImplicitCube& net);

// Exact path stats from the binary quotient cube. Digit translation is an
// automorphism that acts transitively on rows, so every row's distance
// multiset is that of the representatives ⟨0...0; j⟩, j < RowLength(). From
// a representative, the distance to ⟨b; j'⟩ depends only on j' and the set
// of nonzero digits of b, and equals the distance to the matching server of
// ABCCC(2,k,c) (DESIGN.md §6). So m plain BFS passes over that 2^(k+1)-row
// cube, each binary row weighted by the (n-1)^popcount servers it stands
// for and every total scaled by RowCount(), reproduce the full
// ExactServerPathStats result exactly — the average too, computed from the
// scaled integer totals — in time and memory independent of n.
ExactPathStats SymmetryReducedPathStats(const topo::ImplicitCube& net);

struct SampledPathStats {
  IntHistogram shortest;  // BFS lengths of the sampled pairs
  IntHistogram routed;    // native-routing lengths of the same pairs
  // Mean of routed/shortest per pair (1.0 = routing is optimal).
  double mean_stretch = 0.0;
  // Max shortest distance seen from the sampled sources to ANY server — a
  // lower bound on (and for vertex-transitive nets usually equal to) the
  // diameter.
  int diameter_lower_bound = 0;
};

// BFS from `source_samples` random servers; for each source, native routes to
// `pairs_per_source` random distinct destinations. Runs sources in parallel;
// each sample draws from its own rng.Fork(index) stream, so the result is a
// pure function of (net, counts, rng state) — the same for any thread count.
SampledPathStats SamplePathStats(const topo::Topology& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng);

// Implicit-cube overload. Destinations are drawn before the BFS pass (the
// same position in each per-sample stream, so results stay bit-identical
// with the materialized overload) and only the sampled destinations'
// distances are recorded — O(lanes * pairs) instead of a lane-major
// distance matrix, which at million-server scale is the difference between
// kilobytes and gigabytes.
SampledPathStats SamplePathStats(const topo::ImplicitCube& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng);

}  // namespace dcn::metrics
