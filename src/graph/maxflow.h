// Single-shot Dinic max-flow between two node sets of the undirected network
// graph (empirical bisection bandwidth). Each undirected link of capacity c
// is a pair of opposite arcs of capacity c, the standard reduction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dcn::graph {

class MaxFlowSolver {
 public:
  // Builds the flow network. `edge_capacity` is applied uniformly to every
  // link (bisection in "number of unit links"). Dead nodes/links from
  // `failures` are excluded entirely.
  MaxFlowSolver(const Graph& graph, std::int64_t edge_capacity = 1,
                const FailureSet* failures = nullptr);

  // Max flow from the set `sources` to the set `sinks` (disjoint, non-empty).
  // Source/sink attachment arcs are effectively infinite, so the answer is
  // the min link cut. Single-shot: the arc capacities then hold the residual
  // network, so a second call throws. Repeated unit-capacity solves on one
  // graph belong to graph::EdgeConnectivityBatch.
  std::int64_t Solve(std::span<const NodeId> sources, std::span<const NodeId> sinks);

 private:
  // Arcs live in a flat CSR layout (offset_ per node into parallel to_/rev_/
  // cap_ arrays), built inside Solve once the terminal attachments are known.
  void AddArcPair(std::int32_t from, std::int32_t to, std::int64_t cap);
  bool BuildLevels(std::int32_t s, std::int32_t t);
  std::int64_t Augment(std::int32_t node, std::int32_t t, std::int64_t limit);

  std::vector<std::pair<std::int32_t, std::int32_t>> live_edges_;
  std::int64_t edge_capacity_;
  bool solved_ = false;

  std::vector<std::int32_t> offset_;  // node -> first arc
  std::vector<std::int32_t> cursor_;  // per-node fill cursor during build
  std::vector<std::int32_t> to_;
  std::vector<std::int32_t> rev_;  // global index of the twin arc
  std::vector<std::int64_t> cap_;
  std::vector<int> level_;
  std::vector<std::int32_t> iter_;
  std::vector<std::int32_t> queue_;
  std::size_t base_node_count_;  // nodes of the original graph
};

// Convenience: min cut (in links, each counting `edge_capacity`) separating
// the two server sets.
std::int64_t MinCutBetween(const Graph& graph, std::span<const NodeId> side_a,
                           std::span<const NodeId> side_b,
                           std::int64_t edge_capacity = 1,
                           const FailureSet* failures = nullptr);

}  // namespace dcn::graph
