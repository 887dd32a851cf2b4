#include "topology/implicit.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "topology/address.h"

namespace dcn::topo {

ImplicitCube::ImplicitCube(AbcccParams params, CubeFamily family)
    : params_(params), family_(family) {
  params_.Validate();
  if (family_ == CubeFamily::kBccc) {
    DCN_REQUIRE(params_.c == 2, "BCCC is the c == 2 specialization");
  }
  if (family_ == CubeFamily::kBcube) {
    DCN_REQUIRE(params_.RowLength() == 1,
                "BCube is the m == 1 degeneration (c >= k+2)");
  }
  m_ = static_cast<std::uint64_t>(params_.RowLength());
  has_crossbars_ = params_.HasCrossbars();
  server_total_ = params_.ServerTotal();
  crossbar_base_ = server_total_;
  level_switch_base_ =
      server_total_ + (has_crossbars_ ? params_.RowCount() : 0);
  level_stride_ = CheckedPow(static_cast<std::uint64_t>(params_.n),
                             static_cast<unsigned>(params_.k));
  node_total_ = CheckedAdd(level_switch_base_, params_.LevelSwitchTotal());
  // Traversal state is indexed by graph::NodeId, so the id space must fit it
  // even though the arithmetic above works to 64 bits.
  DCN_REQUIRE(node_total_ <= static_cast<std::uint64_t>(
                                 std::numeric_limits<graph::NodeId>::max()),
              "implicit cube node count overflows 32-bit node ids");

  pow_.resize(static_cast<std::size_t>(params_.k) + 2);
  pow_[0] = 1;
  for (std::size_t i = 1; i < pow_.size(); ++i) {
    pow_[i] = pow_[i - 1] * static_cast<std::uint64_t>(params_.n);
  }

  std::size_t server_bound = 0;
  for (int role = 0; role < params_.RowLength(); ++role) {
    server_bound = std::max(
        server_bound, static_cast<std::size_t>(params_.PortsUsed(role)));
  }
  degree_bound_ = std::max(
      {server_bound, has_crossbars_ ? static_cast<std::size_t>(m_) : 0,
       static_cast<std::size_t>(params_.n)});
}

std::string ImplicitCube::Name() const {
  switch (family_) {
    case CubeFamily::kBccc:
      return "BCCC";
    case CubeFamily::kBcube:
      return "BCube";
    default:
      return "ABCCC";
  }
}

std::string ImplicitCube::Describe() const {
  std::ostringstream out;
  switch (family_) {
    case CubeFamily::kBccc:
      out << "BCCC(n=" << params_.n << ",k=" << params_.k << ")";
      break;
    case CubeFamily::kBcube:
      out << "BCube(n=" << params_.n << ",k=" << params_.k << ")";
      break;
    default:
      out << "ABCCC(n=" << params_.n << ",k=" << params_.k
          << ",c=" << params_.c << ")";
      break;
  }
  return out.str();
}

std::size_t ImplicitCube::Degree(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < node_total_,
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  if (id < server_total_) {
    return static_cast<std::size_t>(
        params_.PortsUsed(static_cast<int>(id % m_)));
  }
  if (id < level_switch_base_) return static_cast<std::size_t>(m_);
  return static_cast<std::size_t>(params_.n);
}

std::uint64_t ImplicitCube::NicPortTotal() const {
  // One port per server-side link endpoint: every level-switch link lands on
  // a server, plus one crossbar port per server when crossbars exist.
  return CheckedAdd(
      CheckedMul(params_.LevelSwitchTotal(),
                 static_cast<std::uint64_t>(params_.n)),
      has_crossbars_ ? server_total_ : 0);
}

std::uint64_t ImplicitCube::SwitchPortTotal() const {
  // Symmetric by construction: every link pairs one NIC port with one switch
  // port, so the two totals are equal and sum to 2 * LinkTotal().
  return NicPortTotal();
}

graph::NodeId ImplicitCube::ServerAtRow(std::uint64_t row, int role) const {
  DCN_REQUIRE(row < params_.RowCount(), "row index out of range");
  DCN_REQUIRE(role >= 0 && role < params_.RowLength(), "role out of range");
  return static_cast<graph::NodeId>(row * m_ + static_cast<std::uint64_t>(role));
}

AbcccAddress ImplicitCube::AddressOf(graph::NodeId server) const {
  CheckServer(server);
  const auto id = static_cast<std::uint64_t>(server);
  return AbcccAddress{IndexToDigits(id / m_, params_.n, params_.k + 1),
                      static_cast<int>(id % m_)};
}

graph::NodeId ImplicitCube::CrossbarAt(std::uint64_t row) const {
  DCN_REQUIRE(has_crossbars_, "this instance has no crossbars");
  DCN_REQUIRE(row < params_.RowCount(), "row index out of range");
  return static_cast<graph::NodeId>(crossbar_base_ + row);
}

graph::NodeId ImplicitCube::LevelSwitchAt(int level,
                                          std::span<const int> digits) const {
  DCN_REQUIRE(level >= 0 && level <= params_.k, "level out of range");
  DCN_REQUIRE(digits.size() == static_cast<std::size_t>(params_.k + 1),
              "address needs k+1 digits");
  const std::uint64_t b = DigitsToIndexSkipping(digits, params_.n, level);
  return static_cast<graph::NodeId>(
      level_switch_base_ + static_cast<std::uint64_t>(level) * level_stride_ +
      b);
}

std::vector<graph::NodeId> ImplicitCube::RouteWithLevelOrder(
    graph::NodeId src, graph::NodeId dst,
    std::span<const int> level_order) const {
  // Same digit-fixing walk as GeneralAbccc::RouteWithLevelOrder; with m == 1
  // the role moves degenerate away and it reduces to Bcube's switch-server
  // walk.
  CheckServer(src);
  CheckServer(dst);
  const AbcccAddress from = AddressOf(src);
  const AbcccAddress to = AddressOf(dst);

  std::vector<graph::NodeId> hops{src};
  Digits digits = from.digits;
  int role = from.role;

  auto move_to_role = [&](int target_role) {
    if (role == target_role) return;
    const std::uint64_t row = DigitsToIndex(digits, params_.n);
    hops.push_back(CrossbarAt(row));
    hops.push_back(ServerAtRow(row, target_role));
    role = target_role;
  };

  for (int level : level_order) {
    move_to_role(params_.AgentRole(level));
    hops.push_back(LevelSwitchAt(level, digits));
    digits[level] = to.digits[level];
    hops.push_back(ServerAtRow(DigitsToIndex(digits, params_.n), role));
  }
  move_to_role(to.role);

  DCN_ASSERT(hops.back() == dst);
  return hops;
}

std::vector<graph::NodeId> ImplicitCube::Route(graph::NodeId src,
                                               graph::NodeId dst) const {
  const AbcccAddress from = AddressOf(src);
  const AbcccAddress to = AddressOf(dst);
  std::vector<int> order;
  if (family_ == CubeFamily::kBcube) {
    // BCubeRouting fixes digits from the highest level down (Guo et al.
    // §4.1) — matches Bcube::Route node for node.
    for (int level = params_.k; level >= 0; --level) {
      if (from.digits[level] != to.digits[level]) order.push_back(level);
    }
  } else {
    // GeneralAbccc::DefaultLevelOrder: differing levels bucketed by agent
    // role, src's group first, dst's last.
    std::vector<int> differing;
    for (int level = 0; level <= params_.k; ++level) {
      if (from.digits[level] != to.digits[level]) differing.push_back(level);
    }
    order.reserve(differing.size());
    auto role_of = [&](int level) { return params_.AgentRole(level); };
    for (int level : differing) {
      if (role_of(level) == from.role) order.push_back(level);
    }
    for (int level : differing) {
      const int r = role_of(level);
      if (r != from.role && (r != to.role || to.role == from.role)) {
        order.push_back(level);
      }
    }
    if (to.role != from.role) {
      for (int level : differing) {
        if (role_of(level) == to.role) order.push_back(level);
      }
    }
    DCN_ASSERT(order.size() == differing.size());
  }
  return RouteWithLevelOrder(src, dst, order);
}

int ImplicitCube::ServerPorts() const {
  return params_.RowLength() >= 2 ? params_.PortsUsed(0) : params_.k + 1;
}

int ImplicitCube::RouteLengthBound() const {
  // Bcube::RouteLengthBound vs GeneralAbccc::RouteLengthBound.
  return family_ == CubeFamily::kBcube ? 2 * (params_.k + 1)
                                       : 4 * (params_.k + 1) + 2;
}

double ImplicitCube::TheoreticalBisection() const {
  // Cut on the most significant digit: floor(n/2) links per level-k switch.
  return static_cast<double>(level_stride_) *
         static_cast<double>(params_.n / 2);
}

void ImplicitCube::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this network");
}

}  // namespace dcn::topo
