// ABCCC(n, k, c) — Advanced BCube Connected Crossbars (Li & Yang, ICDCS'15;
// journal name GBC3): k+1 digits of base n, servers with c NIC ports.
//
// This is the equal-radix case of GeneralAbccc (gabccc.h), which holds the
// one construction, addressing, routing and labelling of the family (see the
// summary there). Abccc adds only the paper's (n, k, c) parameter view, its
// name and its description; node ids and edge ids are GeneralAbccc's for the
// radices [n]*(k+1). c = 2 is BCCC(n, k) (bccc.h); c >= k+2 degenerates to
// BCube(n, k).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "topology/gabccc.h"

namespace dcn::topo {

struct AbcccParams {
  int n = 4;  // level-switch radix / digit base
  int k = 1;  // order: k+1 digits
  int c = 2;  // NIC ports per server

  // Throws InvalidArgument unless n >= 2, k >= 0, c >= 2 and the network fits
  // in 64-bit ids.
  void Validate() const;

  // The same network as per-level radices: [n]*(k+1).
  GeneralAbcccParams General() const;

  // Row length m = ceil((k+1) / (c-1)).
  int RowLength() const { return (k + c - 1) / (c - 1); }
  bool HasCrossbars() const { return RowLength() >= 2; }
  // Which row member is the agent for a given level.
  int AgentRole(int level) const { return level / (c - 1); }
  // Inclusive level span [lo, hi] a role is agent for.
  std::pair<int, int> AgentLevels(int role) const;
  // NIC ports a server of the given role actually uses.
  int PortsUsed(int role) const;

  std::uint64_t RowCount() const;  // n^(k+1)
  // GeneralAbcccParams' overflow-checked totals for General().
  std::uint64_t ServerTotal() const;       // m * n^(k+1)
  std::uint64_t CrossbarTotal() const;     // n^(k+1) if m >= 2 else 0
  std::uint64_t LevelSwitchTotal() const;  // (k+1) * n^k
  std::uint64_t LinkTotal() const;
};

class Abccc : public GeneralAbccc {
 public:
  explicit Abccc(AbcccParams params);

  // The (n, k, c) view; GeneralAbccc::Params() holds the radices.
  const AbcccParams& Params() const { return uniform_; }

  std::string Name() const override { return "ABCCC"; }
  std::string Describe() const override;

 private:
  AbcccParams uniform_;
};

}  // namespace dcn::topo
