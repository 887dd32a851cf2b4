#include "metrics/bisection.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/cuttree.h"
#include "graph/paths.h"
#include "graph/maxflow.h"

namespace dcn::metrics {

std::int64_t MeasureBisection(const topo::Topology& net,
                              const graph::FailureSet* failures) {
  const auto [side_a, side_b] = net.BisectionHalves();
  return graph::MinCutBetween(net.Network(), side_a, side_b, /*edge_capacity=*/1,
                              failures);
}

PairCutStats SampledPairCuts(const topo::Topology& net, std::size_t pairs,
                             Rng& rng) {
  DCN_REQUIRE(pairs > 0, "need at least one sampled pair");
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  DCN_REQUIRE(servers.size() >= 2, "need at least two servers to sample cuts");

  const Rng base = rng.Fork();

  // Pre-draw every pair from its historical base.Fork(i) stream.
  struct PairDraw {
    graph::NodeId src;
    graph::NodeId dst;
  };
  std::vector<PairDraw> draws(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng pair_rng = base.Fork(i);
    const graph::NodeId src = servers[pair_rng.NextUint64(servers.size())];
    graph::NodeId dst = src;
    while (dst == src) dst = servers[pair_rng.NextUint64(servers.size())];
    draws[i] = {src, dst};
  }

  // The accumulators (histogram, min, sum) are commutative integers, so
  // neither the answering path nor the query order can change an output bit.
  struct Partial {
    IntHistogram cuts;
    std::int64_t min_cut = std::numeric_limits<std::int64_t>::max();
    std::int64_t sum = 0;
    void Add(std::int64_t cut) {
      cuts.Add(cut);
      min_cut = std::min(min_cut, cut);
      sum += cut;
    }
  };
  Partial merged;
  // Both paths are exact. The servers-only cut tree costs S-1 serial solves;
  // the batch path splits `pairs` solves across the team. Take the tree when
  // its serial chain is no longer than one member's share of the batch.
  const auto team = static_cast<std::size_t>(TeamSize());
  if ((servers.size() - 1) * team <= pairs) {
    const graph::CutTree tree = graph::BuildCutTree(net.Network());
    for (const PairDraw& draw : draws) merged.Add(tree.MinCut(draw.src, draw.dst));
  } else {
    // Order the queries by source node: consecutive same-source queries
    // inside a chunk share the batched solver's cached first-phase level
    // graph.
    std::vector<std::uint32_t> order(pairs);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return draws[a].src < draws[b].src;
                     });
    merged = ParallelMapReduce(
        pairs, /*chunk=*/8, Partial{},
        [&](std::size_t begin, std::size_t end) {
          Partial partial;
          // One batched solver per chunk: the flat arc arrays are built once
          // and each query restores pristine capacities with a memcpy.
          graph::FlowScope ws;
          graph::EdgeConnectivityBatch batch{csr, *ws};
          for (std::size_t i = begin; i < end; ++i) {
            const PairDraw& draw = draws[order[i]];
            const bool repeated_source =
                i + 1 < end && draws[order[i + 1]].src == draw.src;
            partial.Add(static_cast<std::int64_t>(
                batch.Connectivity(draw.src, draw.dst, repeated_source)));
          }
          return partial;
        },
        [](Partial acc, Partial partial) {
          acc.cuts.Merge(partial.cuts);
          acc.min_cut = std::min(acc.min_cut, partial.min_cut);
          acc.sum += partial.sum;
          return acc;
        });
  }

  PairCutStats stats;
  stats.cuts = merged.cuts;
  stats.min_cut = merged.min_cut;
  stats.mean_cut =
      static_cast<double>(merged.sum) / static_cast<double>(pairs);
  stats.pairs = static_cast<std::int64_t>(pairs);
  return stats;
}

PairCutStats AllPairsCutStats(const topo::Topology& net,
                              const graph::FailureSet* failures) {
  const graph::Graph& g = net.Network();
  const auto servers = net.Servers();
  DCN_REQUIRE(servers.size() >= 2, "need at least two servers for pair cuts");
  const graph::CutTree tree = graph::BuildCutTree(g, /*edge_capacity=*/1,
                                                  failures);

  // Kruskal over the tree edges (one per non-root server) in descending cut
  // order: when an edge of weight w first joins two server groups, w is the
  // smallest weight on the tree path between every cross pair, i.e. exactly
  // their min cut. Each union therefore accounts |A| x |B| pairs at value
  // w, and the tree spans every server (cut-0 edges bridge disconnected
  // pieces), so every unordered server pair is counted exactly once.
  const std::size_t nodes = g.NodeCount();
  std::vector<graph::NodeId> uf(nodes);
  for (std::size_t n = 0; n < nodes; ++n) uf[n] = static_cast<graph::NodeId>(n);
  const auto find = [&uf](graph::NodeId n) {
    while (uf[static_cast<std::size_t>(n)] != n) {
      uf[static_cast<std::size_t>(n)] =
          uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(n)])];
      n = uf[static_cast<std::size_t>(n)];
    }
    return n;
  };
  std::vector<std::int64_t> group_size(nodes, 1);
  std::vector<graph::NodeId> edge_order(servers.begin() + 1, servers.end());
  std::stable_sort(edge_order.begin(), edge_order.end(),
                   [&tree](graph::NodeId a, graph::NodeId b) {
                     return tree.cut[static_cast<std::size_t>(a)] >
                            tree.cut[static_cast<std::size_t>(b)];
                   });

  PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  std::int64_t total_pairs = 0;
  for (const graph::NodeId n : edge_order) {
    const graph::NodeId a = find(n);
    const graph::NodeId b = find(tree.parent[static_cast<std::size_t>(n)]);
    const std::int64_t cross = group_size[static_cast<std::size_t>(a)] *
                               group_size[static_cast<std::size_t>(b)];
    uf[static_cast<std::size_t>(a)] = b;
    group_size[static_cast<std::size_t>(b)] +=
        group_size[static_cast<std::size_t>(a)];
    const std::int64_t cut = tree.cut[static_cast<std::size_t>(n)];
    stats.cuts.Add(cut, cross);
    stats.min_cut = std::min(stats.min_cut, cut);
    sum += cut * cross;
    total_pairs += cross;
  }
  DCN_ASSERT(total_pairs ==
             static_cast<std::int64_t>(servers.size()) *
                 static_cast<std::int64_t>(servers.size() - 1) / 2);
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(total_pairs);
  stats.pairs = total_pairs;
  return stats;
}

}  // namespace dcn::metrics
