// Bit-parallel multi-source BFS (MS-BFS).
//
// One pass of MultiSourceBfs advances up to 64 BFS traversals at once: every
// node carries a single `uint64_t` word per bitmap (seen / current frontier /
// next frontier) in which bit j belongs to source lane j. A level expansion
// ORs frontier words across edges instead of walking one queue per source, so
// the graph — and every cache line of the CSR arrays — is touched once per
// level for the whole batch rather than once per source. On the cube-based
// topologies here, a block of 64 insertion-order-adjacent servers shares most
// of its frontier, which is where the order-of-magnitude win over 64 separate
// sweeps comes from.
//
// The kernel is direction-optimizing: sparse levels run top-down (scatter the
// frontier words of active nodes to their neighbors, tracking touched nodes
// so the claim pass is O(frontier edges), not O(V)), dense levels run
// bottom-up (each still-unfinished node gathers its neighbors' frontier words
// branchlessly — on these low-degree topologies an early-exit test costs more
// than the one or two extra ORs it saves). The switch is keyed on frontier
// size against the shrinking not-yet-finished node set — a pure function of
// the traversal state — and both directions compute the identical next
// frontier, so results never depend on the direction taken.
//
// Determinism contract: distances and visit callbacks are a pure function of
// (graph, sources, failures). The per-level visit order is ascending node id,
// all lane combination is bitwise OR (order-free), and batch-parallel callers
// (metrics/path_metrics.cc) split sources into fixed 64-lane blocks merged in
// block order via ParallelMapReduce — results are bit-identical for any
// thread count. tests/test_msbfs.cc pins MS-BFS distances to per-source
// BFS() on every topology family, with and without failures.
//
// The kernel and the sweep aggregates are templates over any TraversalGraph
// (graph/implicit.h): a CsrView, or an implicit topology whose neighbors are
// recomputed by address arithmetic. Both traversal directions run through
// ForEachNeighbor and compute the identical frontier, so direction
// optimization stays available without a CSR; only the edge-failure scatter
// needs per-edge ids and is gated on HasAdjacencySpans (implicit graphs
// accept node failures only). The CsrView signatures below are kept as
// exact-match overloads — existing callers resolve to them unchanged, and
// tests/test_implicit.cc pins implicit results bit-identical to them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/workspace.h"
#include "obs/obs.h"

namespace dcn::graph {

// Lane width of one batch: one bit per source in a machine word.
inline constexpr std::size_t kMsBfsLanes = 64;

namespace msbfs_detail {
// Run a level bottom-up once active nodes exceed unfinished/kBottomUpDivisor.
// Top-down work is O(edges out of the frontier); bottom-up is O(edges into
// still-unfinished nodes), which wins once the frontier is a sizable slice of
// what is left. Swept empirically on the ABCCC(4,3,2) all-pairs kernel:
// 6 beat 2/4/16/32 with a shallow optimum.
inline constexpr std::size_t kBottomUpDivisor = 6;

// Applies `fn(lane)` to every set bit of `word`.
template <typename Fn>
void ForEachLane(std::uint64_t word, Fn&& fn) {
  while (word != 0) {
    fn(static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}
}  // namespace msbfs_detail

// All-lanes-set mask for a batch of `lanes` sources (lanes in [0, 64]).
inline std::uint64_t MsBfsLaneMask(std::size_t lanes) {
  return lanes >= kMsBfsLanes ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << lanes) - 1;
}

// Advances one batch of up to 64 sources to exhaustion. For every node that
// is newly reached at BFS level d (in links, level 0 = the sources
// themselves), calls
//
//   visit(d, node, bits)
//
// exactly once, where bit j of `bits` is set iff sources[j] first reaches
// `node` at distance d. Levels are visited in increasing order; within a
// level, nodes in ascending id order. Duplicate sources share a node and are
// reported together; a source dead under `failures` never seeds its lane (its
// bit appears in no callback). After the call ws.SeenWord(node) holds the
// union of all levels' bits — the per-lane reachability readout.
//
// With `failures`, traversal skips dead nodes/links exactly like the
// single-source BfsDistances; direction optimization is disabled because the
// bottom-up gather cannot consult per-edge liveness through the edge-blind
// adjacency array (failure sweeps are sparse frontiers in practice). Models
// without adjacency spans (implicit topologies) have no edge ids at all, so
// there `failures` must carry node failures only.
template <TraversalGraph G, typename Visit>
void MultiSourceBfs(const G& g, std::span<const NodeId> sources,
                    MsBfsWorkspace& ws, Visit&& visit,
                    const FailureSet* failures = nullptr) {
  DCN_REQUIRE(sources.size() <= kMsBfsLanes,
              "MultiSourceBfs batch exceeds 64 lanes");
  if constexpr (!HasAdjacencySpans<G>) {
    DCN_REQUIRE(failures == nullptr || failures->DeadEdgeCount() == 0,
                "implicit graphs have no edge ids; only node failures apply");
  }
  const std::size_t nodes = g.NodeCount();
  ws.Begin(nodes);
  std::uint64_t* const seen = ws.Seen();
  // `cur` is the current level's frontier, `nxt` the one being built; they
  // rotate by pointer swap, with the retired frontier zeroed through the
  // outgoing active list — no O(V) pass per level.
  std::uint64_t* cur = ws.Front();
  std::uint64_t* nxt = ws.Next();
  std::vector<NodeId>* active = &ws.Active();
  std::vector<NodeId>* spare = &ws.Spare();
  std::vector<NodeId>& candidates = ws.Candidates();
  // Nodes still missing at least one live lane, ascending, built lazily on
  // the first bottom-up level and compacted as lanes settle. Its size bounds
  // the useful bottom-up work, so it also drives the direction switch.
  std::vector<NodeId>& unfinished = ws.Unfinished();
  bool unfinished_built = false;
  std::size_t unfinished_size = nodes;

  std::uint64_t live = 0;  // lanes actually seeded (dead sources drop out)
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const NodeId src = sources[lane];
    DCN_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < nodes,
                "MultiSourceBfs source out of range");
    if (failures != nullptr && failures->NodeDead(src)) continue;
    const std::uint64_t bit = std::uint64_t{1} << lane;
    if (seen[src] == 0) active->push_back(src);
    seen[src] |= bit;
    cur[src] |= bit;
    live |= bit;
  }
  std::sort(active->begin(), active->end());
  for (const NodeId node : *active) visit(0, node, cur[node]);

  // obs: batch/lane totals plus per-level frontier size (log2 buckets) and
  // the top-down/bottom-up switch decisions — the internals that explain the
  // direction-optimizing kernel's behavior. All exact integers, a handful of
  // relaxed shard increments per LEVEL (never per node or edge), so the
  // traversal itself is untouched and the merged values are bit-identical at
  // any thread count.
  OBS_SPAN("msbfs/batch");
  static obs::Counter& obs_batches = obs::GetCounter("msbfs/batches");
  static obs::Counter& obs_lanes = obs::GetCounter("msbfs/lanes");
  static obs::Counter& obs_td = obs::GetCounter("msbfs/levels_top_down");
  static obs::Counter& obs_bu = obs::GetCounter("msbfs/levels_bottom_up");
  static obs::Counter& obs_switches =
      obs::GetCounter("msbfs/direction_switches");
  static obs::Histogram& obs_frontier =
      obs::GetHistogram("msbfs/frontier_log2");
  obs_batches.Add(1);
  obs_lanes.Add(static_cast<std::uint64_t>(std::popcount(live)));
  bool obs_prev_bottom_up = false;

  for (int level = 1; !active->empty(); ++level) {
    spare->clear();
    const bool bottom_up =
        failures == nullptr && active->size() * msbfs_detail::kBottomUpDivisor >
                                   unfinished_size;
    (bottom_up ? obs_bu : obs_td).Add(1);
    if (level > 1 && bottom_up != obs_prev_bottom_up) obs_switches.Add(1);
    obs_prev_bottom_up = bottom_up;
    obs_frontier.Add(std::bit_width(active->size()));
    if (bottom_up) {
      if (!unfinished_built) {
        for (NodeId node = 0; static_cast<std::size_t>(node) < nodes; ++node) {
          if ((live & ~seen[node]) != 0) unfinished.push_back(node);
        }
        unfinished_built = true;
      }
      // Gather: every node still missing lanes pulls the frontier words of
      // all its neighbors (branchless; degrees here are small). The claim is
      // fused in — `nxt` and `seen` of other nodes are never read here, so
      // settling in place is safe — and nodes drop out of the unfinished
      // list (stably, preserving ascending order) as they fill.
      std::size_t out = 0;
      for (const NodeId node : unfinished) {
        const std::uint64_t miss = live & ~seen[node];
        if (miss == 0) continue;
        std::uint64_t acc = 0;
        g.ForEachNeighbor(node, [&](const NodeId nb) { acc |= cur[nb]; });
        const std::uint64_t add = acc & miss;
        if (add != 0) {
          seen[node] |= add;
          nxt[node] = add;
          spare->push_back(node);
          visit(level, node, add);
        }
        if ((live & ~seen[node]) != 0) unfinished[out++] = node;
      }
      unfinished.resize(out);
      unfinished_size = out;
    } else {
      // Scatter: push each active node's word to all neighbors, remembering
      // first-touched nodes so the claim pass visits only those instead of
      // sweeping all of [0, V).
      candidates.clear();
      if (failures == nullptr) {
        for (const NodeId node : *active) {
          const std::uint64_t word = cur[node];
          g.ForEachNeighbor(node, [&](const NodeId nb) {
            if (nxt[nb] == 0) candidates.push_back(nb);
            nxt[nb] |= word;
          });
        }
      } else if constexpr (HasAdjacencySpans<G>) {
        for (const NodeId node : *active) {
          const std::uint64_t word = cur[node];
          for (const HalfEdge& half : g.Neighbors(node)) {
            if (!failures->HalfEdgeUsable(half)) continue;
            if (nxt[half.to] == 0) candidates.push_back(half.to);
            nxt[half.to] |= word;
          }
        }
      } else {
        for (const NodeId node : *active) {
          const std::uint64_t word = cur[node];
          g.ForEachNeighbor(node, [&](const NodeId nb) {
            if (failures->NodeDead(nb)) return;
            if (nxt[nb] == 0) candidates.push_back(nb);
            nxt[nb] |= word;
          });
        }
      }
      // Claim pass over the touched nodes, ascending — hence the visit order.
      std::sort(candidates.begin(), candidates.end());
      for (const NodeId node : candidates) {
        const std::uint64_t add = nxt[node] & ~seen[node];
        if (add != 0) {
          seen[node] |= add;
          nxt[node] = add;
          spare->push_back(node);
          visit(level, node, add);
        } else {
          nxt[node] = 0;
        }
      }
    }

    // Retire the old frontier (zero exactly its nonzero words) and rotate.
    for (const NodeId node : *active) cur[node] = 0;
    std::swap(cur, nxt);
    std::swap(active, spare);
  }
}

// Distances (in links) from every source to every node, batching the sources
// through MultiSourceBfs in 64-lane blocks. Row-major: the returned vector
// holds sources.size() * g.NodeCount() entries and
// result[i * NodeCount() + node] is the distance from sources[i] to node,
// kUnreachable where no live path exists. Any source count is accepted;
// each row equals BfsDistances(g, sources[i], ...) exactly.
template <TraversalGraph G>
std::vector<int> MultiSourceDistances(const G& g,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr) {
  const std::size_t nodes = g.NodeCount();
  std::vector<int> dist(sources.size() * nodes, kUnreachable);
  MsBfsScope ws;
  for (std::size_t base = 0; base < sources.size(); base += kMsBfsLanes) {
    const auto block =
        sources.subspan(base, std::min(kMsBfsLanes, sources.size() - base));
    MultiSourceBfs(
        g, block, *ws,
        [&](int level, NodeId node, std::uint64_t bits) {
          msbfs_detail::ForEachLane(bits, [&](std::size_t lane) {
            dist[(base + lane) * nodes + static_cast<std::size_t>(node)] =
                level;
          });
        },
        failures);
  }
  return dist;
}

// Eccentricity of each source restricted to SERVER targets (the distance
// convention of the diameter tables): result[i] is the max distance from
// sources[i] to any reachable server, or kUnreachable for a source that is
// dead under `failures`. One 64-lane batch per block of sources.
template <TraversalGraph G>
std::vector<int> ServerEccentricities(const G& g,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr) {
  std::vector<int> ecc(sources.size(), kUnreachable);
  MsBfsScope ws;
  for (std::size_t base = 0; base < sources.size(); base += kMsBfsLanes) {
    const auto block =
        sources.subspan(base, std::min(kMsBfsLanes, sources.size() - base));
    // Rather than touching per-lane state for every set bit, OR each level's
    // server hits into one word and flush it when the level advances: the
    // last level a lane's bit appears in is its eccentricity.
    int current_level = 0;
    std::uint64_t level_bits = 0;
    const auto flush = [&] {
      msbfs_detail::ForEachLane(level_bits, [&](std::size_t lane) {
        ecc[base + lane] = current_level;
      });
    };
    MultiSourceBfs(
        g, block, *ws,
        [&](int level, NodeId node, std::uint64_t bits) {
          if (!g.IsServer(node)) return;
          if (level != current_level) {
            flush();
            current_level = level;
            level_bits = 0;
          }
          level_bits |= bits;
        },
        failures);
    flush();
  }
  return ecc;
}

// Aggregates of the full server-to-server distance matrix, computed without
// materializing it: the backing kernel for ExactServerPathStats and the
// T1/T2/F-table sweeps. All counters are exact integers accumulated per
// 64-lane block and merged in fixed block order (common/parallel.h), so the
// result is bit-identical at any thread count.
struct AllPairsSweepStats {
  std::int64_t distance_total = 0;  // sum over ordered reachable pairs
  std::uint64_t pairs = 0;          // ordered server pairs reached (src != dst)
  int diameter = 0;                 // max server-to-server distance
  int radius = 0;                   // min over sources of server eccentricity
  bool connected = true;            // every source reached every server
  // pairs_at_distance[d] = ordered pairs at exactly distance d (the exact
  // path-length histogram); index 0 is always 0 — self pairs are excluded.
  std::vector<std::uint64_t> pairs_at_distance;
};

// One MS-BFS block per 64 servers, parallelized across blocks: block i
// covers servers [i*64, ...) and partials merge in ascending block order.
template <TraversalGraph G>
AllPairsSweepStats AllPairsDistanceSweep(const G& g) {
  AllPairsSweepStats stats;
  const std::size_t servers = g.ServerCount();
  if (servers == 0) return stats;
  const std::size_t blocks = (servers + kMsBfsLanes - 1) / kMsBfsLanes;

  // Everything in a partial is an exact integer, so the fixed block split +
  // ascending merge order make the reduction bit-identical for any thread
  // count.
  struct Partial {
    std::int64_t total = 0;       // sum of distances over reached pairs
    std::uint64_t reached = 0;    // (source, server) pairs incl. source itself
    std::uint64_t lanes = 0;      // sources processed (to discount self pairs)
    int diameter = 0;
    int radius = std::numeric_limits<int>::max();
    bool connected = true;
    std::vector<std::uint64_t> at_distance;
  };
  Partial merged = ParallelMapReduce(
      blocks, /*chunk=*/1, Partial{},
      [&](std::size_t begin, std::size_t end) {
        Partial partial;
        MsBfsScope ws;
        std::array<NodeId, kMsBfsLanes> block{};
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t first = b * kMsBfsLanes;
          const std::size_t lanes = std::min(kMsBfsLanes, servers - first);
          for (std::size_t i = 0; i < lanes; ++i) {
            block[i] = g.ServerIdAt(first + i);
          }
          partial.lanes += lanes;

          // Per-lane eccentricity via the level-word flush trick (see
          // ServerEccentricities). The per-visit work is kept to an OR and a
          // popcount into register accumulators; everything touching memory
          // (histogram bucket, totals, diameter) happens once per level at
          // the flush.
          std::array<int, kMsBfsLanes> ecc{};
          int current_level = 0;
          std::uint64_t level_bits = 0;
          std::uint64_t level_count = 0;
          const auto flush = [&] {
            if (level_count == 0) return;
            msbfs_detail::ForEachLane(level_bits, [&](std::size_t lane) {
              ecc[lane] = current_level;
            });
            const auto d = static_cast<std::size_t>(current_level);
            if (partial.at_distance.size() <= d) {
              partial.at_distance.resize(d + 1, 0);
            }
            partial.at_distance[d] += level_count;
            partial.total += static_cast<std::int64_t>(current_level) *
                             static_cast<std::int64_t>(level_count);
            partial.reached += level_count;
            partial.diameter = std::max(partial.diameter, current_level);
          };
          MultiSourceBfs(g, std::span<const NodeId>{block.data(), lanes}, *ws,
                         [&](int level, NodeId node, std::uint64_t bits) {
                           if (!g.IsServer(node)) return;
                           if (level != current_level) {
                             flush();
                             current_level = level;
                             level_bits = 0;
                             level_count = 0;
                           }
                           level_bits |= bits;
                           level_count += static_cast<std::uint64_t>(
                               std::popcount(bits));
                         });
          flush();
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            partial.radius = std::min(partial.radius, ecc[lane]);
          }
          // Connectivity: every lane of this block must have reached every
          // server — one word compare per server.
          const std::uint64_t mask = MsBfsLaneMask(lanes);
          for (std::size_t i = 0; i < servers; ++i) {
            if ((ws->SeenWord(g.ServerIdAt(i)) & mask) != mask) {
              partial.connected = false;
              break;
            }
          }
        }
        return partial;
      },
      [](Partial acc, Partial partial) {
        acc.total += partial.total;
        acc.reached += partial.reached;
        acc.lanes += partial.lanes;
        acc.diameter = std::max(acc.diameter, partial.diameter);
        acc.radius = std::min(acc.radius, partial.radius);
        acc.connected = acc.connected && partial.connected;
        if (acc.at_distance.size() < partial.at_distance.size()) {
          acc.at_distance.resize(partial.at_distance.size(), 0);
        }
        for (std::size_t d = 0; d < partial.at_distance.size(); ++d) {
          acc.at_distance[d] += partial.at_distance[d];
        }
        return acc;
      });

  stats.distance_total = merged.total;
  stats.pairs = merged.reached - merged.lanes;  // drop the distance-0 selves
  stats.diameter = merged.diameter;
  stats.radius =
      merged.radius == std::numeric_limits<int>::max() ? 0 : merged.radius;
  stats.connected = merged.connected;
  stats.pairs_at_distance = std::move(merged.at_distance);
  if (!stats.pairs_at_distance.empty()) {
    // Level 0 counted each source reaching itself; the histogram is over
    // ordered pairs, where distance 0 cannot occur.
    stats.pairs_at_distance[0] -= merged.lanes;
  }
  return stats;
}

// --- CsrView overloads (the exact-match signatures existing callers use) ---

std::vector<int> MultiSourceDistances(const CsrView& csr,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr);

std::vector<int> ServerEccentricities(const CsrView& csr,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr);

AllPairsSweepStats AllPairsDistanceSweep(const CsrView& csr);

}  // namespace dcn::graph
