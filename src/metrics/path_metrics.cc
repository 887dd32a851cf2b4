#include "metrics/path_metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/msbfs.h"
#include "topology/address.h"

namespace dcn::metrics {
namespace {

ExactPathStats FromSweep(graph::AllPairsSweepStats sweep) {
  ExactPathStats stats;
  stats.diameter = sweep.diameter;
  stats.radius = sweep.radius;
  stats.pairs = sweep.pairs;
  stats.connected = sweep.connected;
  stats.average = sweep.pairs > 0 ? static_cast<double>(sweep.distance_total) /
                                        static_cast<double>(sweep.pairs)
                                  : 0.0;
  stats.pairs_at_distance = std::move(sweep.pairs_at_distance);
  return stats;
}

// Per-chunk partial of the sampled statistics; merged in fixed chunk order.
//
// stretch_sum is deliberately NOT accumulated across samples here: floating-
// point addition is order-sensitive, and the pre-batching implementation
// folded one per-sample sum at a time (chunk == 1). Keeping the per-sample
// sums and folding them serially at the end reproduces that sum bit-for-bit
// while still batching 64 BFS sources per pass.
struct SamplePartial {
  IntHistogram shortest;
  IntHistogram routed;
  std::vector<double> sample_stretch;  // one pair-ordered sum per sample
  std::uint64_t stretch_count = 0;
  int diameter_lower_bound = 0;
};

// Shared sampling engine over any TraversalGraph whose servers are
// addressable by index (CsrView for materialized nets, ImplicitCube for
// address-arithmetic ones). `route_links(src, dst)` returns the native
// routed hop count for the pair.
//
// Each source sample s draws from its own stream base.Fork(s): first the
// source, then every destination. The destinations are drawn BEFORE the BFS
// pass — the per-sample streams are private, so this reorders nothing within
// any stream — which lets the visit callback record just the sampled
// destinations' distances (binary search over a sorted probe list) instead
// of a lane-major distance matrix. Per-lane server eccentricities replace
// the old full row scan for the diameter lower bound: the level-ordered
// visit yields the same max. Both changes keep the result bit-identical to
// the original implementation while cutting the working set from
// O(lanes * V) to O(lanes * pairs) — mandatory at million-server scale.
template <typename G, typename RouteLinksFn>
SampledPathStats SamplePathStatsOver(const G& g, std::size_t source_samples,
                                     std::size_t pairs_per_source, Rng& rng,
                                     RouteLinksFn&& route_links) {
  DCN_REQUIRE(source_samples > 0 && pairs_per_source > 0,
              "sample counts must be positive");
  const std::size_t server_count = g.ServerCount();
  DCN_REQUIRE(server_count >= 2, "need at least two servers to sample paths");

  // The caller's rng advances exactly once regardless of the sample count,
  // and samples are independent of which thread runs them AND of how they
  // are blocked into 64-lane BFS batches.
  const Rng base = rng.Fork();

  const std::size_t blocks =
      (source_samples + graph::kMsBfsLanes - 1) / graph::kMsBfsLanes;
  SamplePartial merged = ParallelMapReduce(
      blocks, /*chunk=*/1, SamplePartial{},
      [&](std::size_t begin, std::size_t end) {
        SamplePartial partial;
        graph::MsBfsScope ws;
        std::vector<Rng> sample_rngs;  // per-sample streams, continued below
        std::vector<graph::NodeId> sources;
        std::vector<graph::NodeId> dsts;  // flat: s * pairs_per_source + p
        std::vector<int> dst_dist;        // distance per flat slot
        // (node, flat slot), sorted by node for the visit-time binary search;
        // several slots may probe the same node.
        std::vector<std::pair<graph::NodeId, std::uint32_t>> probes;
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t first = b * graph::kMsBfsLanes;
          const std::size_t lanes =
              std::min(graph::kMsBfsLanes, source_samples - first);

          // Draw each sample's source, then all of its destinations, from
          // its own stream.
          sample_rngs.clear();
          sources.clear();
          dsts.clear();
          probes.clear();
          for (std::size_t s = 0; s < lanes; ++s) {
            sample_rngs.push_back(base.Fork(first + s));
            sources.push_back(static_cast<graph::NodeId>(
                g.ServerIdAt(sample_rngs.back().NextUint64(server_count))));
          }
          for (std::size_t s = 0; s < lanes; ++s) {
            Rng& sample_rng = sample_rngs[s];
            const graph::NodeId src = sources[s];
            for (std::size_t p = 0; p < pairs_per_source; ++p) {
              graph::NodeId dst = src;
              while (dst == src) {
                dst = g.ServerIdAt(sample_rng.NextUint64(server_count));
              }
              probes.emplace_back(dst,
                                  static_cast<std::uint32_t>(dsts.size()));
              dsts.push_back(dst);
            }
          }
          std::sort(probes.begin(), probes.end());
          dst_dist.assign(dsts.size(), graph::kUnreachable);

          // One bit-parallel pass settles every probe's distance and every
          // lane's server eccentricity. Visits arrive in level order, so
          // flushing the accumulated lane word when the level advances
          // stamps each lane with the last (= maximum) level at which it
          // settled a server.
          std::array<int, graph::kMsBfsLanes> ecc{};
          int current_level = 0;
          std::uint64_t level_bits = 0;
          const auto flush = [&] {
            while (level_bits != 0) {
              const auto lane =
                  static_cast<std::size_t>(std::countr_zero(level_bits));
              level_bits &= level_bits - 1;
              ecc[lane] = current_level;
            }
          };
          graph::MultiSourceBfs(
              g, sources, *ws,
              [&](int level, graph::NodeId node, std::uint64_t bits) {
                if (!g.IsServer(node)) return;
                if (level != current_level) {
                  flush();
                  current_level = level;
                }
                level_bits |= bits;
                auto it = std::lower_bound(
                    probes.begin(), probes.end(),
                    std::pair<graph::NodeId, std::uint32_t>{node, 0});
                for (; it != probes.end() && it->first == node; ++it) {
                  const std::size_t lane = it->second / pairs_per_source;
                  if ((bits >> lane) & 1) dst_dist[it->second] = level;
                }
              });
          flush();

          for (std::size_t s = 0; s < lanes; ++s) {
            const graph::NodeId src = sources[s];
            // src itself sits at distance 0 and unreachable servers never
            // settle; neither can raise the max.
            partial.diameter_lower_bound =
                std::max(partial.diameter_lower_bound, ecc[s]);
            double stretch_sum = 0.0;
            for (std::size_t p = 0; p < pairs_per_source; ++p) {
              const std::size_t slot = s * pairs_per_source + p;
              const int d = dst_dist[slot];
              DCN_ASSERT(d != graph::kUnreachable);
              const std::int64_t routed = route_links(src, dsts[slot]);
              partial.shortest.Add(d);
              partial.routed.Add(routed);
              stretch_sum +=
                  static_cast<double>(routed) / static_cast<double>(d);
              ++partial.stretch_count;
            }
            partial.sample_stretch.push_back(stretch_sum);
          }
        }
        return partial;
      },
      [](SamplePartial acc, SamplePartial partial) {
        acc.shortest.Merge(partial.shortest);
        acc.routed.Merge(partial.routed);
        acc.sample_stretch.insert(acc.sample_stretch.end(),
                                  partial.sample_stretch.begin(),
                                  partial.sample_stretch.end());
        acc.stretch_count += partial.stretch_count;
        acc.diameter_lower_bound =
            std::max(acc.diameter_lower_bound, partial.diameter_lower_bound);
        return acc;
      });

  SampledPathStats stats;
  stats.shortest = std::move(merged.shortest);
  stats.routed = std::move(merged.routed);
  stats.diameter_lower_bound = merged.diameter_lower_bound;
  // Ordered chunk merges concatenated the per-sample sums in sample order;
  // fold them in that order, exactly as the chunk==1 reduction used to.
  double stretch_sum = 0.0;
  for (const double sample_sum : merged.sample_stretch) {
    stretch_sum += sample_sum;
  }
  stats.mean_stretch = stretch_sum / static_cast<double>(merged.stretch_count);
  return stats;
}

}  // namespace

ExactPathStats ExactServerPathStats(const topo::Topology& net) {
  // Built (or fetched from cache) before the parallel region so every worker
  // shares one snapshot. The sweep itself batches 64 sources per bit-parallel
  // pass and parallelizes over source blocks; see graph/msbfs.h for the
  // determinism contract.
  const graph::CsrView& csr = net.Network().Csr();
  return FromSweep(graph::AllPairsDistanceSweep(csr));
}

ExactPathStats ExactServerPathStats(const topo::ImplicitCube& net) {
  return FromSweep(graph::AllPairsDistanceSweep(net));
}

ExactPathStats SymmetryReducedPathStats(const topo::ImplicitCube& net) {
  // From ⟨0...0; j⟩, a server's distance depends only on its role and its
  // set of nonzero digits, and equals the distance to the matching server of
  // the binary cube (DESIGN.md §6). Binary row r stands for the
  // (n-1)^popcount(r) rows that share its nonzero-digit set.
  const topo::AbcccParams& params = net.Params();
  const topo::ImplicitCube binary{topo::AbcccParams{2, params.k, params.c},
                                  net.Family()};
  const auto m = static_cast<std::size_t>(params.RowLength());
  ExactPathStats stats;
  stats.radius = std::numeric_limits<int>::max();
  std::uint64_t distance_total = 0;
  graph::TraversalScope ws;
  for (std::size_t j = 0; j < m; ++j) {
    const graph::NodeId rep = binary.ServerAtRow(0, static_cast<int>(j));
    graph::BfsDistances(binary, rep, *ws);
    int eccentricity = 0;
    for (std::size_t i = 0; i < binary.ServerCount(); ++i) {
      const int d = ws->Dist(binary.ServerIdAt(i));
      if (d == graph::kUnreachable) {
        stats.connected = false;
        continue;
      }
      if (d == 0) continue;  // the representative itself
      const std::uint64_t w =
          topo::CheckedPow(static_cast<std::uint64_t>(params.n - 1),
                           static_cast<unsigned>(std::popcount(i / m)));
      const auto at = static_cast<std::size_t>(d);
      stats.pairs_at_distance.resize(
          std::max(stats.pairs_at_distance.size(), at + 1), 0);
      stats.pairs_at_distance[at] += w;
      stats.pairs += w;
      distance_total += w * static_cast<std::uint64_t>(d);
      eccentricity = std::max(eccentricity, d);
    }
    stats.diameter = std::max(stats.diameter, eccentricity);
    stats.radius = std::min(stats.radius, eccentricity);
  }

  // Every row's distance multiset is its representative's, so the full
  // cube's integer totals are exactly RowCount() copies of these; dividing
  // the scaled totals reproduces the full-sweep average double bit for bit.
  const std::uint64_t rows = params.RowCount();
  stats.pairs = topo::CheckedMul(stats.pairs, rows);
  for (std::uint64_t& count : stats.pairs_at_distance) {
    count = topo::CheckedMul(count, rows);
  }
  stats.average =
      stats.pairs > 0
          ? static_cast<double>(topo::CheckedMul(distance_total, rows)) /
                static_cast<double>(stats.pairs)
          : 0.0;
  return stats;
}

SampledPathStats SamplePathStats(const topo::Topology& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng) {
  const graph::CsrView& csr = net.Network().Csr();
  return SamplePathStatsOver(
      csr, source_samples, pairs_per_source, rng,
      [&net](graph::NodeId src, graph::NodeId dst) {
        return static_cast<std::int64_t>(net.Route(src, dst).size()) - 1;
      });
}

SampledPathStats SamplePathStats(const topo::ImplicitCube& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng) {
  return SamplePathStatsOver(
      net, source_samples, pairs_per_source, rng,
      [&net](graph::NodeId src, graph::NodeId dst) {
        return static_cast<std::int64_t>(net.Route(src, dst).size()) - 1;
      });
}

}  // namespace dcn::metrics
