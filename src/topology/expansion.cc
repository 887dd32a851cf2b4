#include "topology/expansion.h"

#include <sstream>

#include "common/error.h"

namespace dcn::topo {

ExpansionStep PlanAbcccExpansion(const AbcccParams& from) {
  from.Validate();
  AbcccParams to = from;
  to.k = from.k + 1;
  to.Validate();

  ExpansionStep step;
  step.topology = "ABCCC";
  step.from = "ABCCC(n=" + std::to_string(from.n) + ",k=" + std::to_string(from.k) +
              ",c=" + std::to_string(from.c) + ")";
  step.to = "ABCCC(n=" + std::to_string(to.n) + ",k=" + std::to_string(to.k) +
            ",c=" + std::to_string(to.c) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.CrossbarTotal() + from.LevelSwitchTotal();
  step.switches_after = to.CrossbarTotal() + to.LevelSwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // Existing hardware is never opened or replaced: new level links land in
  // spare NIC ports, new row members land in spare crossbar ports.
  step.existing_servers_modified = 0;
  step.existing_switches_replaced = 0;
  step.existing_links_recabled = 0;
  if (to.RowLength() > from.RowLength()) {
    // Each pre-existing row gains one server, plugged into its crossbar.
    step.crossbar_ports_consumed =
        from.HasCrossbars() ? from.RowCount() : 0;
  }
  return step;
}

ExpansionStep PlanBcubeExpansion(const BcubeParams& from) {
  from.Validate();
  BcubeParams to = from;
  to.k = from.k + 1;
  to.Validate();

  ExpansionStep step;
  step.topology = "BCube";
  step.from = "BCube(n=" + std::to_string(from.n) + ",k=" + std::to_string(from.k) + ")";
  step.to = "BCube(n=" + std::to_string(to.n) + ",k=" + std::to_string(to.k) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.SwitchTotal();
  step.switches_after = to.SwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // Every deployed server must be opened for an extra NIC (level k+1) and a
  // new cable pulled to a level-(k+1) switch: Θ(N) disruption.
  step.existing_servers_modified = from.ServerTotal();
  step.existing_switches_replaced = 0;
  step.existing_links_recabled = 0;
  return step;
}

ExpansionStep PlanDcellExpansion(const DcellParams& from) {
  from.Validate();
  DcellParams to = from;
  to.k = from.k + 1;
  to.Validate();

  ExpansionStep step;
  step.topology = "DCell";
  step.from = "DCell(n=" + std::to_string(from.n) + ",k=" + std::to_string(from.k) + ")";
  step.to = "DCell(n=" + std::to_string(to.n) + ",k=" + std::to_string(to.k) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.SwitchTotal();
  step.switches_after = to.SwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // Every old server gains its level-(k+1) port and cable.
  step.existing_servers_modified = from.ServerTotal();
  step.existing_switches_replaced = 0;
  step.existing_links_recabled = 0;
  return step;
}

ExpansionStep PlanFatTreeExpansion(const FatTreeParams& from) {
  from.Validate();
  FatTreeParams to = from;
  to.k = from.k + 2;
  to.Validate();

  ExpansionStep step;
  step.topology = "FatTree";
  step.from = "FatTree(k=" + std::to_string(from.k) + ")";
  step.to = "FatTree(k=" + std::to_string(to.k) + ")";
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.SwitchTotal();
  step.switches_after = to.SwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();

  // A fat-tree's radix fixes its maximum size; growing it means swapping
  // every switch for a (k+2)-port model and re-pulling the whole fabric.
  step.existing_servers_modified = 0;
  step.existing_switches_replaced = from.SwitchTotal();
  step.existing_links_recabled = from.LinkTotal();
  return step;
}

bool VerifyAbcccExpansion(const Abccc& before, const Abccc& after) {
  const AbcccParams& small = before.Params();
  const AbcccParams& big = after.Params();
  if (big.n != small.n || big.c != small.c || big.k != small.k + 1) return false;
  if (big.RowLength() < small.RowLength()) return false;

  const graph::Graph& net = after.Network();
  for (const graph::NodeId server : before.Servers()) {
    const AbcccAddress addr = before.AddressOf(server);

    // Canonical embedding: append digit a_{k+1} = 0, keep the role.
    Digits padded = addr.digits;
    padded.push_back(0);
    const graph::NodeId mapped = after.ServerAt(padded, addr.role);

    if (small.HasCrossbars()) {
      const graph::NodeId xbar = after.CrossbarAt(after.RowOf(mapped));
      if (!net.Adjacent(mapped, xbar)) return false;
    }
    const auto [lo, hi] = small.AgentLevels(addr.role);
    for (int level = lo; level <= hi; ++level) {
      const graph::NodeId sw = after.LevelSwitchAt(level, padded);
      if (!net.Adjacent(mapped, sw)) return false;
    }
  }
  return true;
}

ExpansionStep PlanSliceExpansion(const GeneralAbcccParams& from, int level) {
  from.Validate();
  DCN_REQUIRE(level >= 0 && level <= from.Order(),
              "slice expansion level out of range");
  GeneralAbcccParams to = from;
  ++to.radices[level];
  to.Validate();

  auto describe = [](const GeneralAbcccParams& params) {
    std::ostringstream out;
    out << "GeneralABCCC([";
    for (int l = params.Order(); l >= 0; --l) {
      out << params.radices[l];
      if (l > 0) out << ",";
    }
    out << "],c=" << params.c << ")";
    return out.str();
  };

  ExpansionStep step;
  step.topology = "GeneralABCCC";
  step.from = describe(from);
  step.to = describe(to);
  step.servers_before = from.ServerTotal();
  step.servers_after = to.ServerTotal();
  step.switches_before = from.CrossbarTotal() + from.LevelSwitchTotal();
  step.switches_after = to.CrossbarTotal() + to.LevelSwitchTotal();
  step.links_before = from.LinkTotal();
  step.links_after = to.LinkTotal();
  // New rows bring their own crossbars and switches; existing level-`level`
  // switches each accept one new cable into a spare port.
  step.existing_servers_modified = 0;
  step.existing_switches_replaced = 0;
  step.existing_links_recabled = 0;
  step.crossbar_ports_consumed = from.LevelSwitchCount(level);
  return step;
}

bool VerifySliceExpansion(const GeneralAbccc& before, const GeneralAbccc& after) {
  const GeneralAbcccParams& small = before.Params();
  const GeneralAbcccParams& big = after.Params();
  if (small.c != big.c) return false;
  if (small.radices.size() != big.radices.size()) return false;
  int grown_levels = 0;
  for (std::size_t level = 0; level < small.radices.size(); ++level) {
    if (big.radices[level] < small.radices[level]) return false;
    if (big.radices[level] > small.radices[level]) ++grown_levels;
  }
  if (grown_levels == 0) return true;  // identical networks embed trivially

  const graph::Graph& net = after.Network();
  for (const graph::NodeId server : before.Servers()) {
    const AbcccAddress addr = before.AddressOf(server);
    const graph::NodeId mapped = after.ServerAt(addr.digits, addr.role);
    if (small.HasCrossbars()) {
      if (!net.Adjacent(mapped, after.CrossbarAt(after.RowOf(mapped)))) {
        return false;
      }
    }
    const auto [lo, hi] = small.AgentLevels(addr.role);
    for (int level = lo; level <= hi; ++level) {
      if (!net.Adjacent(mapped, after.LevelSwitchAt(level, addr.digits))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace dcn::topo
