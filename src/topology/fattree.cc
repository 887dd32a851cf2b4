#include "topology/fattree.h"

#include <sstream>

#include "common/error.h"
#include "topology/address.h"

namespace dcn::topo {

void FatTreeParams::Validate() const {
  DCN_REQUIRE(k >= 2, "fat-tree requires switch radix k >= 2");
  DCN_REQUIRE(k % 2 == 0, "fat-tree requires even switch radix");
  (void)LinkTotal();
}

std::uint64_t FatTreeParams::ServerTotal() const {
  const auto kk = static_cast<std::uint64_t>(k);
  return CheckedMul(kk * kk, kk) / 4;
}

std::uint64_t FatTreeParams::SwitchTotal() const {
  const auto kk = static_cast<std::uint64_t>(k);
  return kk * kk + (kk / 2) * (kk / 2);
}

std::uint64_t FatTreeParams::LinkTotal() const {
  return CheckedMul(3, ServerTotal());
}

FatTree::FatTree(FatTreeParams params) : params_(params) {
  params_.Validate();
  Build();
}

void FatTree::Build() {
  const int k = params_.k;
  const int half = params_.Half();
  server_total_ = params_.ServerTotal();
  RequireGraphIdRange(CheckedAdd(server_total_, params_.SwitchTotal()),
                      params_.LinkTotal());

  graph::Graph& g = MutableNetwork();
  for (std::uint64_t s = 0; s < server_total_; ++s) {
    g.AddNode(graph::NodeKind::kServer);
  }
  edge_base_ = g.NodeCount();
  for (int i = 0; i < k * half; ++i) g.AddNode(graph::NodeKind::kSwitch);
  agg_base_ = g.NodeCount();
  for (int i = 0; i < k * half; ++i) g.AddNode(graph::NodeKind::kSwitch);
  core_base_ = g.NodeCount();
  for (int i = 0; i < half * half; ++i) g.AddNode(graph::NodeKind::kSwitch);

  for (int pod = 0; pod < k; ++pod) {
    for (int edge = 0; edge < half; ++edge) {
      // Hosts under this edge switch.
      for (int host = 0; host < half; ++host) {
        g.AddEdge(ServerIdOf(pod, edge, host), EdgeSwitch(pod, edge));
      }
      // Full bipartite edge <-> aggregation within the pod.
      for (int agg = 0; agg < half; ++agg) {
        g.AddEdge(EdgeSwitch(pod, edge), AggSwitch(pod, agg));
      }
    }
    // Aggregation switch `a` owns core group [a*half, (a+1)*half).
    for (int agg = 0; agg < half; ++agg) {
      for (int c = 0; c < half; ++c) {
        g.AddEdge(AggSwitch(pod, agg), CoreSwitch(agg * half + c));
      }
    }
  }

  DCN_ASSERT(g.ServerCount() == params_.ServerTotal());
  DCN_ASSERT(g.SwitchCount() == params_.SwitchTotal());
  DCN_ASSERT(g.EdgeCount() == params_.LinkTotal());
}

graph::NodeId FatTree::ServerIdOf(int pod, int edge, int host) const {
  const int half = params_.Half();
  DCN_REQUIRE(pod >= 0 && pod < params_.k, "pod out of range");
  DCN_REQUIRE(edge >= 0 && edge < half, "edge index out of range");
  DCN_REQUIRE(host >= 0 && host < half, "host index out of range");
  return static_cast<graph::NodeId>((pod * half + edge) * half + host);
}

graph::NodeId FatTree::EdgeSwitch(int pod, int edge) const {
  const int half = params_.Half();
  DCN_REQUIRE(pod >= 0 && pod < params_.k, "pod out of range");
  DCN_REQUIRE(edge >= 0 && edge < half, "edge index out of range");
  return static_cast<graph::NodeId>(edge_base_ + static_cast<std::uint64_t>(pod * half + edge));
}

graph::NodeId FatTree::AggSwitch(int pod, int agg) const {
  const int half = params_.Half();
  DCN_REQUIRE(pod >= 0 && pod < params_.k, "pod out of range");
  DCN_REQUIRE(agg >= 0 && agg < half, "agg index out of range");
  return static_cast<graph::NodeId>(agg_base_ + static_cast<std::uint64_t>(pod * half + agg));
}

graph::NodeId FatTree::CoreSwitch(int index) const {
  const int half = params_.Half();
  DCN_REQUIRE(index >= 0 && index < half * half, "core index out of range");
  return static_cast<graph::NodeId>(core_base_ + static_cast<std::uint64_t>(index));
}

int FatTree::PodOf(graph::NodeId server) const {
  CheckServer(server);
  const int half = params_.Half();
  return static_cast<int>(server / (half * half));
}

int FatTree::EdgeIndexOf(graph::NodeId server) const {
  CheckServer(server);
  const int half = params_.Half();
  return static_cast<int>(server / half) % half;
}

int FatTree::HostIndexOf(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<int>(server % params_.Half());
}

std::string FatTree::Describe() const {
  std::ostringstream out;
  out << "FatTree(k=" << params_.k << ")";
  return out.str();
}

std::string FatTree::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < Network().NodeCount(),
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  std::ostringstream out;
  if (id < server_total_) {
    out << "h(" << PodOf(node) << "," << EdgeIndexOf(node) << ","
        << HostIndexOf(node) << ")";
  } else if (id < agg_base_) {
    const auto rel = id - edge_base_;
    out << "edge(" << rel / params_.Half() << "," << rel % params_.Half() << ")";
  } else if (id < core_base_) {
    const auto rel = id - agg_base_;
    out << "agg(" << rel / params_.Half() << "," << rel % params_.Half() << ")";
  } else {
    out << "core(" << id - core_base_ << ")";
  }
  return out.str();
}

std::vector<graph::NodeId> FatTree::Route(graph::NodeId src, graph::NodeId dst) const {
  CheckServer(src);
  CheckServer(dst);
  if (src == dst) return {src};
  const int half = params_.Half();
  const int sp = PodOf(src), se = EdgeIndexOf(src);
  const int dp = PodOf(dst), de = EdgeIndexOf(dst), dh = HostIndexOf(dst);

  if (sp == dp && se == de) {
    return {src, EdgeSwitch(sp, se), dst};
  }
  // Deterministic ECMP: hash the up-path choice on the destination so
  // distinct destinations spread across aggs/cores (standard two-level
  // ECMP behavior, made reproducible).
  const int agg_choice = dh % half;
  if (sp == dp) {
    return {src, EdgeSwitch(sp, se), AggSwitch(sp, agg_choice),
            EdgeSwitch(dp, de), dst};
  }
  const int core_choice = de % half;
  return {src,
          EdgeSwitch(sp, se),
          AggSwitch(sp, agg_choice),
          CoreSwitch(agg_choice * half + core_choice),
          AggSwitch(dp, agg_choice),
          EdgeSwitch(dp, de),
          dst};
}

double FatTree::TheoreticalBisection() const {
  return static_cast<double>(params_.ServerTotal()) / 2.0;
}

void FatTree::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this fat-tree network");
}

}  // namespace dcn::topo
