// Implicit (never materialized) cube topologies.
//
// One ImplicitCube instance answers the whole TraversalGraph surface
// (graph/implicit.h) for ABCCC(n,k,c) — and, through the parameter algebra,
// for BCCC(n,k) = ABCCC(n,k,2) and BCube(n,k) = ABCCC(n,k,c>=k+2) — from
// address arithmetic alone: node ids, neighbor enumeration, degrees, and
// routes are all computed from the ⟨a; j⟩ digit encoding, so memory is O(1)
// per instance regardless of size. A million-server sweep carries only the
// traversal workspaces (O(V) bits), never the O(E) adjacency arrays.
//
// Identity contract: for equal parameters, ImplicitCube assigns exactly the
// node ids the materialized builders assign — GeneralAbccc with equal radices
// (which Abccc and Bccc are) and Bcube: servers [0, S) as row*m + role, then
// crossbars, then level switches — and ForEachNeighbor enumerates neighbors
// in exactly the builders' edge insertion order (server: crossbar first, then
// agent levels ascending; crossbar: roles ascending; level switch: spliced
// digit d ascending).
// Traversals over the two representations are therefore bit-identical,
// pinned per family by tests/test_implicit.cc.
//
// Node ids stay graph::NodeId (int32): the constructor rejects shapes whose
// node count exceeds it. Parameter validation itself (AbcccParams::Validate)
// is pure arithmetic and accepts any shape that fits 64-bit server/link ids,
// so petascale shapes can be cost-modeled without constructing anything.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "topology/abccc.h"

namespace dcn::topo {

// Which published family an instance answers to (Name()/Describe()/routing).
enum class CubeFamily { kAbccc, kBccc, kBcube };

class ImplicitCube {
 public:
  // Validates params (including link-id overflow) and the NodeId bound.
  explicit ImplicitCube(AbcccParams params, CubeFamily family = CubeFamily::kAbccc);

  static ImplicitCube MakeAbccc(int n, int k, int c) {
    return ImplicitCube{AbcccParams{n, k, c}, CubeFamily::kAbccc};
  }
  static ImplicitCube MakeBccc(int n, int k) {
    return ImplicitCube{AbcccParams{n, k, 2}, CubeFamily::kBccc};
  }
  // BCube(n,k) is the m == 1 degeneration (c = k+2): no crossbars, every
  // server agents all k+1 levels — structurally identical to Bcube(n,k)
  // including node ids.
  static ImplicitCube MakeBcube(int n, int k) {
    return ImplicitCube{AbcccParams{n, k, k + 2}, CubeFamily::kBcube};
  }

  const AbcccParams& Params() const { return params_; }
  CubeFamily Family() const { return family_; }
  std::string Name() const;
  // Matches the materialized topology's Describe() for equal parameters.
  std::string Describe() const;

  // --- TraversalGraph surface (graph/implicit.h) ---------------------------
  std::size_t NodeCount() const { return static_cast<std::size_t>(node_total_); }
  std::size_t ServerCount() const {
    return static_cast<std::size_t>(server_total_);
  }
  // Server ids are the dense prefix [0, ServerCount).
  graph::NodeId ServerIdAt(std::size_t i) const {
    return static_cast<graph::NodeId>(i);
  }
  bool IsServer(graph::NodeId node) const {
    return static_cast<std::uint64_t>(node) < server_total_;
  }
  std::size_t DegreeBound() const { return degree_bound_; }
  template <typename Fn>
  void ForEachNeighbor(graph::NodeId node, Fn&& fn) const;

  std::size_t SwitchCount() const {
    return static_cast<std::size_t>(node_total_ - server_total_);
  }
  std::size_t LinkCount() const {
    return static_cast<std::size_t>(params_.LinkTotal());
  }
  std::size_t Degree(graph::NodeId node) const;

  // Aggregate port counts for cost models (nic + switch == 2 * links).
  std::uint64_t NicPortTotal() const;
  std::uint64_t SwitchPortTotal() const;

  // --- Addressing (mirrors Abccc) ------------------------------------------
  graph::NodeId ServerAtRow(std::uint64_t row, int role) const;
  AbcccAddress AddressOf(graph::NodeId server) const;
  graph::NodeId CrossbarAt(std::uint64_t row) const;
  graph::NodeId LevelSwitchAt(int level, std::span<const int> digits) const;

  // --- Routing (matches the materialized topology node for node) -----------
  // ABCCC/BCCC: the crossbar-aware digit-fixing walk with the default level
  // order; BCube: highest level down (Guo et al. §4.1), like Bcube::Route.
  std::vector<graph::NodeId> Route(graph::NodeId src, graph::NodeId dst) const;
  int ServerPorts() const;
  int RouteLengthBound() const;
  double TheoreticalBisection() const;

 private:
  std::vector<graph::NodeId> RouteWithLevelOrder(
      graph::NodeId src, graph::NodeId dst,
      std::span<const int> level_order) const;
  void CheckServer(graph::NodeId node) const;

  AbcccParams params_;
  CubeFamily family_;
  std::uint64_t m_ = 1;
  bool has_crossbars_ = false;
  std::uint64_t server_total_ = 0;
  std::uint64_t crossbar_base_ = 0;
  std::uint64_t level_switch_base_ = 0;
  std::uint64_t level_stride_ = 0;  // n^k switches per level
  std::uint64_t node_total_ = 0;
  std::size_t degree_bound_ = 0;
  std::vector<std::uint64_t> pow_;  // pow_[i] = n^i, i in [0, k+1]
};

template <typename Fn>
void ImplicitCube::ForEachNeighbor(graph::NodeId node, Fn&& fn) const {
  const auto id = static_cast<std::uint64_t>(node);
  if (id < server_total_) {
    // Server <a; j>: its crossbar first (when present), then its agent
    // levels' switches in ascending level order — the materialized builder's
    // insertion order for server-incident edges.
    const std::uint64_t row = id / m_;
    const int role = static_cast<int>(id % m_);
    if (has_crossbars_) fn(static_cast<graph::NodeId>(crossbar_base_ + row));
    const int lo = role * (params_.c - 1);
    const int hi = lo + params_.c - 2 < params_.k ? lo + params_.c - 2
                                                  : params_.k;
    for (int level = lo; level <= hi; ++level) {
      // Skip-compressed index of the row's level-`level` switch: remove the
      // level digit by splitting at its weight.
      const std::uint64_t rest =
          row / pow_[level + 1] * pow_[level] + row % pow_[level];
      fn(static_cast<graph::NodeId>(level_switch_base_ +
                                    static_cast<std::uint64_t>(level) *
                                        level_stride_ +
                                    rest));
    }
  } else if (id < level_switch_base_) {
    // Crossbar of row r: the row's m servers, role ascending.
    const std::uint64_t first = (id - crossbar_base_) * m_;
    for (std::uint64_t j = 0; j < m_; ++j) {
      fn(static_cast<graph::NodeId>(first + j));
    }
  } else {
    // Level switch (level, rest): the n agent servers whose rows splice digit
    // d into position `level`, d ascending — each step adds one level weight.
    const std::uint64_t rel = id - level_switch_base_;
    const int level = static_cast<int>(rel / level_stride_);
    const std::uint64_t rest = rel % level_stride_;
    const auto agent = static_cast<std::uint64_t>(params_.AgentRole(level));
    std::uint64_t row = rest / pow_[level] * pow_[level + 1] + rest % pow_[level];
    for (int d = 0; d < params_.n; ++d, row += pow_[level]) {
      fn(static_cast<graph::NodeId>(row * m_ + agent));
    }
  }
}

}  // namespace dcn::topo
