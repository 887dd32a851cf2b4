#include "topology/dcell.h"

#include <limits>
#include <sstream>

#include "common/error.h"
#include "topology/address.h"

namespace dcn::topo {

void DcellParams::Validate() const {
  DCN_REQUIRE(n >= 2, "DCell requires n >= 2 servers per DCell_0");
  DCN_REQUIRE(k >= 0, "DCell requires depth k >= 0");
  DCN_REQUIRE(k <= 4, "DCell deeper than k=4 exceeds any practical size");
  (void)ServerTotal();
}

std::uint64_t DcellParams::ServersAtLevel(int level) const {
  DCN_REQUIRE(level >= 0 && level <= k, "level out of range");
  std::uint64_t t = static_cast<std::uint64_t>(n);
  for (int l = 1; l <= level; ++l) {
    DCN_REQUIRE(t <= std::numeric_limits<std::uint32_t>::max(),
                "DCell size overflows practical limits");
    t = t * (t + 1);
  }
  return t;
}

std::uint64_t DcellParams::LinkTotal() const {
  // Switch links: one per server. Level-l links: per DCell_l,
  // g_l * t_{l-1} / 2, times the number of DCell_l containers t_k / t_l.
  std::uint64_t links = ServerTotal();
  for (int l = 1; l <= k; ++l) {
    const std::uint64_t t_prev = ServersAtLevel(l - 1);
    const std::uint64_t containers = ServerTotal() / ServersAtLevel(l);
    links += containers * (t_prev + 1) * t_prev / 2;
  }
  return links;
}

Dcell::Dcell(DcellParams params) : params_(params) {
  params_.Validate();
  Build();
}

void Dcell::Build() {
  t_.resize(static_cast<std::size_t>(params_.k + 1));
  for (int l = 0; l <= params_.k; ++l) t_[l] = params_.ServersAtLevel(l);
  server_total_ = t_[params_.k];
  RequireGraphIdRange(CheckedAdd(server_total_, params_.SwitchTotal()),
                      params_.LinkTotal());

  graph::Graph& g = MutableNetwork();
  for (std::uint64_t s = 0; s < server_total_; ++s) {
    g.AddNode(graph::NodeKind::kServer);
  }
  switch_base_ = g.NodeCount();
  const std::uint64_t switch_total = params_.SwitchTotal();
  for (std::uint64_t s = 0; s < switch_total; ++s) {
    g.AddNode(graph::NodeKind::kSwitch);
  }

  // DCell_0 mini-switch links.
  for (std::uint64_t s = 0; s < server_total_; ++s) {
    g.AddEdge(static_cast<graph::NodeId>(s),
              static_cast<graph::NodeId>(switch_base_ + s / static_cast<std::uint64_t>(params_.n)));
  }

  // Level-l links: within each DCell_l container, connect sub-cell i's
  // server (local uid j-1) to sub-cell j's server (local uid i), for every
  // 0 <= i < j <= t_{l-1}. Each server gets exactly one level-l link.
  for (int l = 1; l <= params_.k; ++l) {
    const std::uint64_t t_prev = t_[l - 1];
    const std::uint64_t t_here = t_[l];
    const std::uint64_t containers = server_total_ / t_here;
    for (std::uint64_t cont = 0; cont < containers; ++cont) {
      const std::uint64_t base = cont * t_here;
      for (std::uint64_t i = 0; i < t_prev; ++i) {
        for (std::uint64_t j = i + 1; j <= t_prev; ++j) {
          const std::uint64_t a = base + i * t_prev + (j - 1);
          const std::uint64_t b = base + j * t_prev + i;
          g.AddEdge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
        }
      }
    }
  }

  DCN_ASSERT(g.ServerCount() == params_.ServerTotal());
  DCN_ASSERT(g.SwitchCount() == params_.SwitchTotal());
  DCN_ASSERT(g.EdgeCount() == params_.LinkTotal());
}

std::uint64_t Dcell::SubCellAt(graph::NodeId server, int level) const {
  CheckServer(server);
  DCN_REQUIRE(level >= 0 && level <= params_.k, "level out of range");
  const auto uid = static_cast<std::uint64_t>(server);
  if (level == 0) return uid % static_cast<std::uint64_t>(params_.n);
  return (uid % t_[level]) / t_[level - 1];
}

graph::NodeId Dcell::SwitchOf(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<graph::NodeId>(
      switch_base_ + static_cast<std::uint64_t>(server) / static_cast<std::uint64_t>(params_.n));
}

std::string Dcell::Describe() const {
  std::ostringstream out;
  out << "DCell(n=" << params_.n << ",k=" << params_.k << ")";
  return out.str();
}

std::string Dcell::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < Network().NodeCount(),
              "node id out of range");
  std::ostringstream out;
  const auto id = static_cast<std::uint64_t>(node);
  if (id < server_total_) {
    out << "[";
    for (int l = params_.k; l >= 1; --l) {
      out << (id % t_[l]) / t_[l - 1] << ",";
    }
    out << id % static_cast<std::uint64_t>(params_.n) << "]";
  } else {
    out << "S(" << id - switch_base_ << ")";
  }
  return out.str();
}

void Dcell::RouteRec(graph::NodeId src, graph::NodeId dst,
                     std::vector<graph::NodeId>& hops) const {
  // Invariant: hops ends with src; append the rest of the path to dst.
  if (src == dst) return;
  const auto u = static_cast<std::uint64_t>(src);
  const auto v = static_cast<std::uint64_t>(dst);

  // Smallest level whose container holds both.
  int level = 0;
  while (u / t_[level] != v / t_[level]) {
    ++level;
    DCN_ASSERT(level <= params_.k);
  }
  if (level == 0) {
    // Same DCell_0: relay through the mini-switch.
    hops.push_back(SwitchOf(src));
    hops.push_back(dst);
    return;
  }

  const std::uint64_t base = (u / t_[level]) * t_[level];
  const std::uint64_t t_prev = t_[level - 1];
  const std::uint64_t su = (u - base) / t_prev;
  const std::uint64_t sv = (v - base) / t_prev;
  DCN_ASSERT(su != sv);
  const std::uint64_t i = su < sv ? su : sv;
  const std::uint64_t j = su < sv ? sv : su;
  const std::uint64_t link_i = base + i * t_prev + (j - 1);  // in sub-cell i
  const std::uint64_t link_j = base + j * t_prev + i;        // in sub-cell j
  const auto exit_node =
      static_cast<graph::NodeId>(su < sv ? link_i : link_j);
  const auto entry_node =
      static_cast<graph::NodeId>(su < sv ? link_j : link_i);

  RouteRec(src, exit_node, hops);
  hops.push_back(entry_node);
  RouteRec(entry_node, dst, hops);
}

std::vector<graph::NodeId> Dcell::Route(graph::NodeId src, graph::NodeId dst) const {
  CheckServer(src);
  CheckServer(dst);
  std::vector<graph::NodeId> hops{src};
  RouteRec(src, dst, hops);
  return hops;
}

void Dcell::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this DCell network");
}

}  // namespace dcn::topo
