// ABCCC with per-level radices (mixed-radix digits): the one implementation
// of the ABCCC family (Li & Yang, ICDCS'15; journal name GBC3). See DESIGN.md
// §1 for the reconstruction notes.
//
// Construction summary:
//   * Addresses: server ⟨a_k..a_0; j⟩ with digits a_l ∈ [0, radices[l]) and
//     role j ∈ [0,m), m = ceil((k+1)/(c-1)). The m servers sharing a digit
//     vector form a *row* attached to one local crossbar switch (radix m,
//     present when m >= 2).
//   * Server ⟨a; j⟩ is the row's *agent* for levels [j(c-1), j(c-1)+c-2]∩[0,k]
//     and has one link to each of those levels' switches.
//   * The level-l switch identified by the k remaining digits connects the
//     radices[l] agent servers whose addresses differ only in digit l.
//
// The paper's ABCCC(n, k, c) is the equal-radix case [n]*(k+1); topo::Abccc
// (abccc.h) is that view. Mixed radices model partial deployments — radices
// [n, ..., n, r] with r <= n is a network grown one top-digit slice at a time
// — and designs that mix switch models per level, the "versatile" knob of
// the journal version.
//
// Node ids: servers [0, S) as row*m + role, then one crossbar per row (when
// m >= 2), then the level switches level by level, each level's switches
// indexed by the mixed-radix number of the other digits. Edge ids: crossbar
// links row by row, roles ascending; then level links level by level, switch
// by switch, the switch's spliced digit value ascending. ImplicitCube
// (implicit.h) reproduces both orders for equal radices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "topology/address.h"
#include "topology/topology.h"

namespace dcn::topo {

struct AbcccAddress {
  Digits digits;  // size k+1, little-endian (digits[l] = a_l)
  int role = 0;   // j in [0, m)
};

struct GeneralAbcccParams {
  // radices[l] is the base of digit l (= the radix of level-l switches),
  // little-endian like Digits. size() = k+1 >= 1, each radix >= 2.
  std::vector<int> radices;
  int c = 2;  // NIC ports per server

  // Throws InvalidArgument unless every radix >= 2, c >= 2 and the server,
  // switch and link totals fit 64 bits. Pure arithmetic: validating a
  // petascale shape allocates nothing.
  void Validate() const;

  int Order() const { return static_cast<int>(radices.size()) - 1; }  // k
  int DigitCount() const { return static_cast<int>(radices.size()); }
  int LevelRadix(int level) const {
    DCN_REQUIRE(level >= 0 && level <= Order(), "level out of range");
    return radices[level];
  }
  int RowLength() const;  // m = ceil((k+1)/(c-1))
  bool HasCrossbars() const { return RowLength() >= 2; }
  // Which row member is the agent for a given level.
  int AgentRole(int level) const { return level / (c - 1); }
  // Inclusive level span [lo, hi] a role is agent for.
  std::pair<int, int> AgentLevels(int role) const;

  // Overflow-checked totals (InvalidArgument when they exceed 64 bits).
  std::uint64_t RowCount() const;  // product of radices
  std::uint64_t ServerTotal() const;
  std::uint64_t CrossbarTotal() const;
  // Level-l switches: product of the other radices.
  std::uint64_t LevelSwitchCount(int level) const;
  std::uint64_t LevelSwitchTotal() const;
  std::uint64_t LinkTotal() const;
};

class GeneralAbccc : public Topology {
 public:
  explicit GeneralAbccc(GeneralAbcccParams params);

  const GeneralAbcccParams& Params() const { return params_; }

  // -- Address <-> node id --------------------------------------------------
  graph::NodeId ServerAt(std::span<const int> digits, int role) const;
  graph::NodeId ServerAtRow(std::uint64_t row, int role) const;
  AbcccAddress AddressOf(graph::NodeId server) const;
  std::uint64_t RowOf(graph::NodeId server) const;
  // Requires HasCrossbars().
  graph::NodeId CrossbarAt(std::uint64_t row) const;
  // The level-`level` switch serving the row with these digits.
  graph::NodeId LevelSwitchAt(int level, std::span<const int> digits) const;
  // Switch classification (for link-usage breakdowns).
  bool IsCrossbar(graph::NodeId node) const;
  // The level a level switch belongs to; throws for servers/crossbars.
  int LevelOfSwitch(graph::NodeId node) const;

  // Mixed-radix digit <-> row index conversions.
  std::uint64_t DigitsToRow(std::span<const int> digits) const;
  Digits RowToDigits(std::uint64_t row) const;

  // -- Routing ---------------------------------------------------------------
  // Core digit-fixing walk. `level_order` must be a permutation of exactly
  // the levels where src and dst digits differ; the route fixes them in that
  // order, hopping through the local crossbar whenever the next level's agent
  // is a different row member. Worst case 4*|order| + 2 links.
  std::vector<graph::NodeId> RouteWithLevelOrder(
      graph::NodeId src, graph::NodeId dst,
      std::span<const int> level_order) const;

  // The default level order: differing levels grouped by agent role, with the
  // source's agent group first and the destination's last, which provably
  // minimizes crossbar detours for this walk (see routing/permutation.h for
  // the alternatives this is benchmarked against).
  std::vector<int> DefaultLevelOrder(const AbcccAddress& src,
                                     const AbcccAddress& dst) const;

  // -- Topology interface -----------------------------------------------
  std::string Name() const override { return "GeneralABCCC"; }
  std::string Describe() const override;
  // Servers "<a_k..a_0;j>", crossbars "X(a_k..a_0)", level switches
  // "S<l>(..*..)" with '*' at the switch's level; digits are dotted when
  // some radix exceeds 10.
  std::string NodeLabel(graph::NodeId node) const override;
  std::vector<graph::NodeId> Route(graph::NodeId src,
                                   graph::NodeId dst) const override;
  int ServerPorts() const override;
  int RouteLengthBound() const override;
  double TheoreticalBisection() const override;

 private:
  void Build();
  void CheckServer(graph::NodeId node) const;
  // The level-`level` switch of a row (no digit vector involved).
  graph::NodeId LevelSwitchOfRow(int level, std::uint64_t row) const;
  // The walk behind Route and RouteWithLevelOrder, on decoded addresses.
  std::vector<graph::NodeId> Walk(graph::NodeId src, graph::NodeId dst,
                                  const AbcccAddress& from,
                                  const AbcccAddress& to,
                                  std::span<const int> level_order) const;

  GeneralAbcccParams params_;
  std::uint64_t row_total_ = 0;
  std::uint64_t server_total_ = 0;
  std::uint64_t crossbar_base_ = 0;
  std::uint64_t level_switch_base_ = 0;
  // Per level: first switch id of the level (absolute node id).
  std::vector<std::uint64_t> level_base_;
  // Mixed-radix weights: weight_[l] = product of radices below l, for
  // l in [0, k+1] (weight_[k+1] is the row count).
  std::vector<std::uint64_t> weight_;
};

}  // namespace dcn::topo
