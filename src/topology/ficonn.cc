#include "topology/ficonn.h"

#include <sstream>

#include "common/error.h"
#include "topology/address.h"

namespace dcn::topo {

void FiConnParams::Validate() const {
  DCN_REQUIRE(n >= 2, "FiConn requires n >= 2 servers per FiConn_0");
  DCN_REQUIRE(n % 2 == 0, "FiConn requires even n");
  DCN_REQUIRE(k >= 0, "FiConn requires depth k >= 0");
  DCN_REQUIRE(k <= 4, "FiConn deeper than k=4 exceeds any practical size");
  std::uint64_t t = static_cast<std::uint64_t>(n);
  for (int level = 1; level <= k; ++level) {
    const std::uint64_t granularity = std::uint64_t{1} << level;
    DCN_REQUIRE(t % granularity == 0,
                "FiConn level " + std::to_string(level) +
                    " needs t_{l-1} divisible by 2^l; pick n divisible by a "
                    "higher power of two");
    const std::uint64_t copies = t / granularity + 1;
    DCN_REQUIRE(t <= (std::uint64_t{1} << 62) / copies, "FiConn size overflows");
    t *= copies;
  }
}

std::uint64_t FiConnParams::ServersAtLevel(int level) const {
  DCN_REQUIRE(level >= 0 && level <= k, "level out of range");
  std::uint64_t t = static_cast<std::uint64_t>(n);
  for (int l = 1; l <= level; ++l) {
    t *= t / (std::uint64_t{1} << l) + 1;
  }
  return t;
}

std::uint64_t FiConnParams::CopiesAtLevel(int level) const {
  DCN_REQUIRE(level >= 1 && level <= k, "level out of range");
  return ServersAtLevel(level - 1) / (std::uint64_t{1} << level) + 1;
}

std::uint64_t FiConnParams::IdleAtLevel(int level) const {
  DCN_REQUIRE(level >= 0 && level <= k, "level out of range");
  return ServersAtLevel(level) / (std::uint64_t{1} << level);
}

std::uint64_t FiConnParams::LinkTotal() const {
  // Switch links: one per server. Level-l links: one complete graph over the
  // g_l copies inside each of the t_k / t_l containers.
  std::uint64_t links = ServerTotal();
  for (int l = 1; l <= k; ++l) {
    const std::uint64_t copies = CopiesAtLevel(l);
    const std::uint64_t containers = ServerTotal() / ServersAtLevel(l);
    links += containers * copies * (copies - 1) / 2;
  }
  return links;
}

FiConn::FiConn(FiConnParams params) : params_(params) {
  params_.Validate();
  Build();
}

std::pair<std::uint64_t, std::uint64_t> FiConn::LevelLinkLocal(
    int level, std::uint64_t i, std::uint64_t j) const {
  DCN_ASSERT(i < j);
  const std::uint64_t half = std::uint64_t{1} << (level - 1);
  const std::uint64_t step = std::uint64_t{1} << level;
  // Available server #p of a copy sits at local uid 2^(l-1) + p * 2^l.
  return {half + (j - 1) * step, half + i * step};
}

void FiConn::Build() {
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
  for (std::uint64_t s = 0; s < params_.SwitchTotal(); ++s) {
    g.AddNode(graph::NodeKind::kSwitch);
  }

  // FiConn_0 mini-switch links.
  for (std::uint64_t s = 0; s < server_total_; ++s) {
    g.AddEdge(static_cast<graph::NodeId>(s),
              static_cast<graph::NodeId>(switch_base_ + s / static_cast<std::uint64_t>(params_.n)));
  }

  // Level-l mesh links among the copies of every FiConn_l container.
  for (int l = 1; l <= params_.k; ++l) {
    const std::uint64_t copies = params_.CopiesAtLevel(l);
    const std::uint64_t containers = server_total_ / t_[l];
    for (std::uint64_t cont = 0; cont < containers; ++cont) {
      const std::uint64_t base = cont * t_[l];
      for (std::uint64_t i = 0; i < copies; ++i) {
        for (std::uint64_t j = i + 1; j < copies; ++j) {
          const auto [li, lj] = LevelLinkLocal(l, i, j);
          g.AddEdge(static_cast<graph::NodeId>(base + i * t_[l - 1] + li),
                    static_cast<graph::NodeId>(base + j * t_[l - 1] + lj));
        }
      }
    }
  }

  DCN_ASSERT(g.ServerCount() == params_.ServerTotal());
  DCN_ASSERT(g.SwitchCount() == params_.SwitchTotal());
  DCN_ASSERT(g.EdgeCount() == params_.LinkTotal());
  // The defining property: no server exceeds its two NICs.
  for (const graph::NodeId server : g.Servers()) {
    DCN_ASSERT(g.Degree(server) <= 2);
  }
}

std::uint64_t FiConn::CopyAt(graph::NodeId server, int level) const {
  CheckServer(server);
  DCN_REQUIRE(level >= 1 && level <= params_.k, "level out of range");
  return (static_cast<std::uint64_t>(server) % t_[level]) / t_[level - 1];
}

graph::NodeId FiConn::SwitchOf(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<graph::NodeId>(
      switch_base_ + static_cast<std::uint64_t>(server) / static_cast<std::uint64_t>(params_.n));
}

bool FiConn::HasIdleBackupPort(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<std::uint64_t>(server) %
             (std::uint64_t{1} << params_.k) ==
         0;
}

std::string FiConn::Describe() const {
  std::ostringstream out;
  out << "FiConn(n=" << params_.n << ",k=" << params_.k << ")";
  return out.str();
}

std::string FiConn::NodeLabel(graph::NodeId node) const {
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

void FiConn::RouteRec(graph::NodeId src, graph::NodeId dst,
                      std::vector<graph::NodeId>& hops) const {
  if (src == dst) return;
  const auto u = static_cast<std::uint64_t>(src);
  const auto v = static_cast<std::uint64_t>(dst);

  int level = 0;
  while (u / t_[level] != v / t_[level]) {
    ++level;
    DCN_ASSERT(level <= params_.k);
  }
  if (level == 0) {
    hops.push_back(SwitchOf(src));
    hops.push_back(dst);
    return;
  }

  const std::uint64_t base = (u / t_[level]) * t_[level];
  const std::uint64_t su = (u - base) / t_[level - 1];
  const std::uint64_t sv = (v - base) / t_[level - 1];
  DCN_ASSERT(su != sv);
  const std::uint64_t i = su < sv ? su : sv;
  const std::uint64_t j = su < sv ? sv : su;
  const auto [li, lj] = LevelLinkLocal(level, i, j);
  const std::uint64_t link_i = base + i * t_[level - 1] + li;
  const std::uint64_t link_j = base + j * t_[level - 1] + lj;
  const auto exit_node = static_cast<graph::NodeId>(su < sv ? link_i : link_j);
  const auto entry_node = static_cast<graph::NodeId>(su < sv ? link_j : link_i);

  RouteRec(src, exit_node, hops);
  hops.push_back(entry_node);
  RouteRec(entry_node, dst, hops);
}

std::vector<graph::NodeId> FiConn::Route(graph::NodeId src, graph::NodeId dst) const {
  CheckServer(src);
  CheckServer(dst);
  std::vector<graph::NodeId> hops{src};
  RouteRec(src, dst, hops);
  return hops;
}

void FiConn::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this FiConn network");
}

}  // namespace dcn::topo
