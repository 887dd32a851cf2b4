#include "topology/bcube.h"

#include <sstream>

#include "common/error.h"

namespace dcn::topo {

void BcubeParams::Validate() const {
  DCN_REQUIRE(n >= 2, "BCube requires switch radix n >= 2");
  DCN_REQUIRE(k >= 0, "BCube requires order k >= 0");
  // Link ids must fit 64 bits too; both checks are pure arithmetic.
  (void)ServerTotal();
  (void)LinkTotal();
}

std::uint64_t BcubeParams::ServerTotal() const {
  return CheckedPow(static_cast<std::uint64_t>(n), static_cast<unsigned>(k + 1));
}

std::uint64_t BcubeParams::SwitchTotal() const {
  return CheckedMul(
      static_cast<std::uint64_t>(k + 1),
      CheckedPow(static_cast<std::uint64_t>(n), static_cast<unsigned>(k)));
}

std::uint64_t BcubeParams::LinkTotal() const {
  return CheckedMul(SwitchTotal(), static_cast<std::uint64_t>(n));
}

Bcube::Bcube(BcubeParams params) : params_(params) {
  params_.Validate();
  Build();
}

void Bcube::Build() {
  server_total_ = params_.ServerTotal();
  level_stride_ = CheckedPow(static_cast<std::uint64_t>(params_.n),
                             static_cast<unsigned>(params_.k));
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

  // Switch (level, b) connects the n servers with digit d spliced in at
  // position `level` — pure address arithmetic, no digit temporaries.
  for (int level = 0; level <= params_.k; ++level) {
    for (std::uint64_t b = 0; b < level_stride_; ++b) {
      const graph::NodeId sw =
          static_cast<graph::NodeId>(switch_base_ +
                                     static_cast<std::uint64_t>(level) * level_stride_ + b);
      for (int d = 0; d < params_.n; ++d) {
        g.AddEdge(static_cast<graph::NodeId>(
                      IndexInsertingDigit(b, params_.n, level, d)),
                  sw);
      }
    }
  }

  DCN_ASSERT(g.ServerCount() == params_.ServerTotal());
  DCN_ASSERT(g.SwitchCount() == params_.SwitchTotal());
  DCN_ASSERT(g.EdgeCount() == params_.LinkTotal());
}

graph::NodeId Bcube::ServerAt(std::span<const int> digits) const {
  DCN_REQUIRE(digits.size() == static_cast<std::size_t>(params_.k + 1),
              "BCube address needs k+1 digits");
  return static_cast<graph::NodeId>(DigitsToIndex(digits, params_.n));
}

Digits Bcube::AddressOf(graph::NodeId server) const {
  CheckServer(server);
  return IndexToDigits(static_cast<std::uint64_t>(server), params_.n, params_.k + 1);
}

graph::NodeId Bcube::SwitchAt(int level, std::span<const int> digits) const {
  DCN_REQUIRE(level >= 0 && level <= params_.k, "level out of range");
  DCN_REQUIRE(digits.size() == static_cast<std::size_t>(params_.k + 1),
              "BCube address needs k+1 digits");
  const std::uint64_t b = DigitsToIndexSkipping(digits, params_.n, level);
  return static_cast<graph::NodeId>(switch_base_ +
                                    static_cast<std::uint64_t>(level) * level_stride_ + b);
}

std::vector<graph::NodeId> Bcube::RouteWithLevelOrder(
    graph::NodeId src, graph::NodeId dst, std::span<const int> level_order) const {
  CheckServer(src);
  CheckServer(dst);
  const Digits from = AddressOf(src);
  const Digits to = AddressOf(dst);

  std::vector<bool> mentioned(static_cast<std::size_t>(params_.k + 1), false);
  for (int level : level_order) {
    DCN_REQUIRE(level >= 0 && level <= params_.k, "level out of range in order");
    DCN_REQUIRE(!mentioned[level], "duplicate level in order");
    DCN_REQUIRE(from[level] != to[level],
                "level order contains a non-differing level");
    mentioned[level] = true;
  }
  DCN_REQUIRE(static_cast<int>(level_order.size()) == HammingDistance(from, to),
              "level order must cover every differing level");

  std::vector<graph::NodeId> hops{src};
  Digits digits = from;
  for (int level : level_order) {
    hops.push_back(SwitchAt(level, digits));
    digits[level] = to[level];
    hops.push_back(ServerAt(digits));
  }
  DCN_ASSERT(hops.back() == dst);
  return hops;
}

std::string Bcube::Describe() const {
  std::ostringstream out;
  out << "BCube(n=" << params_.n << ",k=" << params_.k << ")";
  return out.str();
}

std::string Bcube::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < Network().NodeCount(),
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  std::ostringstream out;
  if (id < server_total_) {
    out << "<" << DigitsToString(AddressOf(node), params_.n) << ">";
  } else {
    const std::uint64_t rel = id - switch_base_;
    const int level = static_cast<int>(rel / level_stride_);
    const Digits rest = IndexToDigits(rel % level_stride_, params_.n, params_.k);
    out << "S" << level << "(" << DigitsToString(rest, params_.n) << ")";
  }
  return out.str();
}

std::vector<graph::NodeId> Bcube::Route(graph::NodeId src, graph::NodeId dst) const {
  const Digits from = AddressOf(src);
  const Digits to = AddressOf(dst);
  // BCubeRouting fixes digits from the highest level down (Guo et al. §4.1).
  std::vector<int> order;
  for (int level = params_.k; level >= 0; --level) {
    if (from[level] != to[level]) order.push_back(level);
  }
  return RouteWithLevelOrder(src, dst, order);
}

double Bcube::TheoreticalBisection() const {
  // Cut on the most significant digit, floor(n/2) links per level-k switch.
  return static_cast<double>(level_stride_) *
         static_cast<double>(params_.n / 2);
}

void Bcube::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this BCube network");
}

}  // namespace dcn::topo
