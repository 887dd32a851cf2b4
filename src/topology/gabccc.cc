#include "topology/gabccc.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace dcn::topo {

void GeneralAbcccParams::Validate() const {
  DCN_REQUIRE(!radices.empty(), "ABCCC needs at least one level");
  for (int radix : radices) {
    DCN_REQUIRE(radix >= 2, "every level radix must be >= 2");
  }
  DCN_REQUIRE(c >= 2, "ABCCC requires servers with c >= 2 NIC ports");
  // Evaluate the derived counts to trigger the overflow checks early: switch
  // and link ids must fit 64 bits too (a huge-but-server-valid shape whose
  // link count wraps would corrupt every downstream total).
  (void)ServerTotal();
  (void)LevelSwitchTotal();
  (void)LinkTotal();
}

int GeneralAbcccParams::RowLength() const {
  return (DigitCount() + c - 2) / (c - 1);
}

std::pair<int, int> GeneralAbcccParams::AgentLevels(int role) const {
  DCN_REQUIRE(role >= 0 && role < RowLength(), "role out of range");
  const int lo = role * (c - 1);
  const int hi = std::min(lo + c - 2, Order());
  return {lo, hi};
}

std::uint64_t GeneralAbcccParams::RowCount() const {
  std::uint64_t rows = 1;
  for (int radix : radices) {
    rows = CheckedMul(rows, static_cast<std::uint64_t>(radix));
  }
  return rows;
}

std::uint64_t GeneralAbcccParams::ServerTotal() const {
  const std::uint64_t rows = RowCount();
  const auto m = static_cast<std::uint64_t>(RowLength());
  DCN_REQUIRE(rows <= (std::uint64_t{1} << 62) / m, "server count overflows");
  return rows * m;
}

std::uint64_t GeneralAbcccParams::CrossbarTotal() const {
  return HasCrossbars() ? RowCount() : 0;
}

std::uint64_t GeneralAbcccParams::LevelSwitchCount(int level) const {
  return RowCount() / static_cast<std::uint64_t>(LevelRadix(level));
}

std::uint64_t GeneralAbcccParams::LevelSwitchTotal() const {
  const std::uint64_t rows = RowCount();
  std::uint64_t total = 0;
  for (int radix : radices) {
    total = CheckedAdd(total, rows / static_cast<std::uint64_t>(radix));
  }
  return total;
}

std::uint64_t GeneralAbcccParams::LinkTotal() const {
  // Each level contributes one link per row (its switches' ports sum to the
  // row count); crossbars add one link per server.
  return CheckedAdd(
      CheckedMul(static_cast<std::uint64_t>(DigitCount()), RowCount()),
      HasCrossbars() ? ServerTotal() : 0);
}

GeneralAbccc::GeneralAbccc(GeneralAbcccParams params) : params_(std::move(params)) {
  params_.Validate();
  Build();
}

void GeneralAbccc::Build() {
  const int k = params_.Order();
  const int m = params_.RowLength();
  row_total_ = params_.RowCount();
  server_total_ = params_.ServerTotal();

  weight_.assign(static_cast<std::size_t>(k) + 2, 1);
  for (int level = 0; level <= k; ++level) {
    weight_[level + 1] =
        weight_[level] * static_cast<std::uint64_t>(params_.radices[level]);
  }

  // Node id layout: all servers, then crossbars (if any), then level
  // switches level by level; each block is index-computable so no lookup
  // tables are needed.
  crossbar_base_ = server_total_;
  level_switch_base_ = crossbar_base_ + params_.CrossbarTotal();
  level_base_.resize(static_cast<std::size_t>(k) + 1);
  std::uint64_t node_total = level_switch_base_;
  for (int level = 0; level <= k; ++level) {
    level_base_[level] = node_total;
    node_total += params_.LevelSwitchCount(level);
  }
  RequireGraphIdRange(node_total, params_.LinkTotal());

  graph::Graph& g = MutableNetwork();
  for (std::uint64_t id = 0; id < server_total_; ++id) {
    g.AddNode(graph::NodeKind::kServer);
  }
  for (std::uint64_t id = server_total_; id < node_total; ++id) {
    g.AddNode(graph::NodeKind::kSwitch);
  }

  // Row-local crossbar links.
  if (params_.HasCrossbars()) {
    for (std::uint64_t row = 0; row < row_total_; ++row) {
      for (int j = 0; j < m; ++j) {
        g.AddEdge(ServerAtRow(row, j), CrossbarAt(row));
      }
    }
  }

  // Level-switch links: switch (level, b) connects the radices[level] agents
  // whose rows are b with digit value d spliced in at position `level` — the
  // splice is pure mixed-radix arithmetic, no digit temporaries.
  for (int level = 0; level <= k; ++level) {
    const int agent = params_.AgentRole(level);
    const int radix = params_.radices[level];
    const std::uint64_t below = weight_[level];
    const std::uint64_t switches = params_.LevelSwitchCount(level);
    for (std::uint64_t b = 0; b < switches; ++b) {
      const std::uint64_t spliced = b / below * weight_[level + 1] + b % below;
      const auto sw = static_cast<graph::NodeId>(level_base_[level] + b);
      for (int d = 0; d < radix; ++d) {
        g.AddEdge(
            ServerAtRow(spliced + static_cast<std::uint64_t>(d) * below, agent),
            sw);
      }
    }
  }

  DCN_ASSERT(g.ServerCount() == params_.ServerTotal());
  DCN_ASSERT(g.SwitchCount() ==
             params_.CrossbarTotal() + params_.LevelSwitchTotal());
  DCN_ASSERT(g.EdgeCount() == params_.LinkTotal());
}

std::uint64_t GeneralAbccc::DigitsToRow(std::span<const int> digits) const {
  DCN_REQUIRE(digits.size() == static_cast<std::size_t>(params_.DigitCount()),
              "ABCCC address needs k+1 digits");
  std::uint64_t row = 0;
  for (int level = params_.Order(); level >= 0; --level) {
    const int radix = params_.radices[level];
    DCN_REQUIRE(digits[level] >= 0 && digits[level] < radix,
                "digit out of range for its level radix");
    row = row * static_cast<std::uint64_t>(radix) +
          static_cast<std::uint64_t>(digits[level]);
  }
  return row;
}

Digits GeneralAbccc::RowToDigits(std::uint64_t row) const {
  DCN_REQUIRE(row < row_total_, "row index out of range");
  Digits digits(static_cast<std::size_t>(params_.DigitCount()));
  for (int level = 0; level <= params_.Order(); ++level) {
    const auto radix = static_cast<std::uint64_t>(params_.radices[level]);
    digits[level] = static_cast<int>(row % radix);
    row /= radix;
  }
  return digits;
}

graph::NodeId GeneralAbccc::ServerAt(std::span<const int> digits, int role) const {
  return ServerAtRow(DigitsToRow(digits), role);
}

graph::NodeId GeneralAbccc::ServerAtRow(std::uint64_t row, int role) const {
  DCN_REQUIRE(row < row_total_, "row index out of range");
  DCN_REQUIRE(role >= 0 && role < params_.RowLength(), "role out of range");
  return static_cast<graph::NodeId>(
      row * static_cast<std::uint64_t>(params_.RowLength()) +
      static_cast<std::uint64_t>(role));
}

AbcccAddress GeneralAbccc::AddressOf(graph::NodeId server) const {
  CheckServer(server);
  const auto m = static_cast<std::uint64_t>(params_.RowLength());
  const auto id = static_cast<std::uint64_t>(server);
  return AbcccAddress{RowToDigits(id / m), static_cast<int>(id % m)};
}

std::uint64_t GeneralAbccc::RowOf(graph::NodeId server) const {
  CheckServer(server);
  return static_cast<std::uint64_t>(server) /
         static_cast<std::uint64_t>(params_.RowLength());
}

graph::NodeId GeneralAbccc::CrossbarAt(std::uint64_t row) const {
  DCN_REQUIRE(params_.HasCrossbars(), "this ABCCC instance has no crossbars");
  DCN_REQUIRE(row < row_total_, "row index out of range");
  return static_cast<graph::NodeId>(crossbar_base_ + row);
}

graph::NodeId GeneralAbccc::LevelSwitchAt(int level,
                                          std::span<const int> digits) const {
  DCN_REQUIRE(level >= 0 && level <= params_.Order(), "level out of range");
  return LevelSwitchOfRow(level, DigitsToRow(digits));
}

graph::NodeId GeneralAbccc::LevelSwitchOfRow(int level, std::uint64_t row) const {
  // The mixed-radix number of the other digits: cut digit `level` out.
  const std::uint64_t below = weight_[level];
  return static_cast<graph::NodeId>(
      level_base_[level] + row / weight_[level + 1] * below + row % below);
}

bool GeneralAbccc::IsCrossbar(graph::NodeId node) const {
  const auto id = static_cast<std::uint64_t>(node);
  return id >= crossbar_base_ && id < level_switch_base_;
}

int GeneralAbccc::LevelOfSwitch(graph::NodeId node) const {
  const auto id = static_cast<std::uint64_t>(node);
  DCN_REQUIRE(id >= level_switch_base_ && id < Network().NodeCount(),
              "node is not a level switch");
  return static_cast<int>(
      std::upper_bound(level_base_.begin(), level_base_.end(), id) -
      level_base_.begin() - 1);
}

std::vector<graph::NodeId> GeneralAbccc::RouteWithLevelOrder(
    graph::NodeId src, graph::NodeId dst, std::span<const int> level_order) const {
  const AbcccAddress from = AddressOf(src);
  const AbcccAddress to = AddressOf(dst);

  // The order must mention exactly the differing levels, once each. Fewer
  // than 64 digits fit a 64-bit row count, so one mask word tracks them.
  std::uint64_t mentioned = 0;
  for (int level : level_order) {
    DCN_REQUIRE(level >= 0 && level <= params_.Order(),
                "level out of range in order");
    DCN_REQUIRE((mentioned >> level & 1) == 0, "duplicate level in order");
    DCN_REQUIRE(from.digits[level] != to.digits[level],
                "level order contains a non-differing level");
    mentioned |= std::uint64_t{1} << level;
  }
  int differing = 0;
  for (int level = 0; level <= params_.Order(); ++level) {
    differing += from.digits[level] != to.digits[level] ? 1 : 0;
  }
  DCN_REQUIRE(static_cast<int>(level_order.size()) == differing,
              "level order must cover every differing level");
  return Walk(src, dst, from, to, level_order);
}

std::vector<graph::NodeId> GeneralAbccc::Walk(
    graph::NodeId src, graph::NodeId dst, const AbcccAddress& from,
    const AbcccAddress& to, std::span<const int> level_order) const {
  // Exact hop count: two per fixed level, two per crossbar reposition.
  std::size_t hop_count = 1 + 2 * level_order.size();
  int role = from.role;
  for (int level : level_order) {
    const int agent = params_.AgentRole(level);
    hop_count += agent != role ? 2 : 0;
    role = agent;
  }
  hop_count += to.role != role ? 2 : 0;

  std::vector<graph::NodeId> hops;
  hops.reserve(hop_count);
  hops.push_back(src);
  std::uint64_t row = static_cast<std::uint64_t>(src) /
                      static_cast<std::uint64_t>(params_.RowLength());
  role = from.role;
  auto move_to_role = [&](int target_role) {
    if (role == target_role) return;
    hops.push_back(CrossbarAt(row));
    hops.push_back(ServerAtRow(row, target_role));
    role = target_role;
  };
  for (int level : level_order) {
    move_to_role(params_.AgentRole(level));
    hops.push_back(LevelSwitchOfRow(level, row));
    row = row - static_cast<std::uint64_t>(from.digits[level]) * weight_[level] +
          static_cast<std::uint64_t>(to.digits[level]) * weight_[level];
    hops.push_back(ServerAtRow(row, role));
  }
  move_to_role(to.role);
  DCN_ASSERT(hops.back() == dst && hops.size() == hop_count);
  return hops;
}

std::vector<int> GeneralAbccc::DefaultLevelOrder(const AbcccAddress& src,
                                                 const AbcccAddress& dst) const {
  // Bucket differing levels by agent role. Ascending level order already
  // groups (agent = level / (c-1) is monotone), so we only reorder groups:
  // the group owned by src's role goes first (saves the initial crossbar
  // hop), dst's role group goes last (saves the final one).
  std::vector<int> order;
  auto append = [&](auto&& wanted) {
    for (int level = 0; level <= params_.Order(); ++level) {
      if (src.digits[level] != dst.digits[level] &&
          wanted(params_.AgentRole(level))) {
        order.push_back(level);
      }
    }
  };
  append([&](int role) { return role == src.role; });
  append([&](int role) {
    return role != src.role && (role != dst.role || dst.role == src.role);
  });
  if (dst.role != src.role) {
    append([&](int role) { return role == dst.role; });
  }
  return order;
}

std::string GeneralAbccc::Describe() const {
  std::ostringstream out;
  out << "GeneralABCCC(radices=[";
  for (int level = params_.Order(); level >= 0; --level) {
    out << params_.radices[level];
    if (level > 0) out << ",";
  }
  out << "],c=" << params_.c << ")";
  return out.str();
}

std::string GeneralAbccc::NodeLabel(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < Network().NodeCount(),
              "node id out of range");
  const auto id = static_cast<std::uint64_t>(node);
  // DigitsToString dots the digits when its base exceeds 10.
  const int base =
      *std::max_element(params_.radices.begin(), params_.radices.end());
  std::ostringstream out;
  if (id < server_total_) {
    const AbcccAddress addr = AddressOf(node);
    out << "<" << DigitsToString(addr.digits, base) << ";" << addr.role << ">";
  } else if (id < level_switch_base_) {
    out << "X(" << DigitsToString(RowToDigits(id - crossbar_base_), base) << ")";
  } else {
    // Decode the other digits, then render with '*' at the level position.
    const int level = LevelOfSwitch(node);
    std::uint64_t rest = id - level_base_[level];
    Digits digits(static_cast<std::size_t>(params_.DigitCount()), 0);
    for (int l = 0; l <= params_.Order(); ++l) {
      if (l == level) continue;
      const auto radix = static_cast<std::uint64_t>(params_.radices[l]);
      digits[l] = static_cast<int>(rest % radix);
      rest /= radix;
    }
    out << "S" << level << "(";
    for (int l = params_.Order(); l >= 0; --l) {
      if (l == level) {
        out << "*";
      } else {
        out << digits[l];
      }
      if (base > 10 && l > 0) out << ".";
    }
    out << ")";
  }
  return out.str();
}

std::vector<graph::NodeId> GeneralAbccc::Route(graph::NodeId src,
                                               graph::NodeId dst) const {
  const AbcccAddress from = AddressOf(src);
  const AbcccAddress to = AddressOf(dst);
  return Walk(src, dst, from, to, DefaultLevelOrder(from, to));
}

int GeneralAbccc::ServerPorts() const {
  if (!params_.HasCrossbars()) return params_.DigitCount();
  const auto [lo, hi] = params_.AgentLevels(0);
  return 1 + (hi - lo + 1);
}

int GeneralAbccc::RouteLengthBound() const {
  // Per differing level: <= 2 (crossbar reposition) + 2 (level switch), plus
  // a final reposition. The default order saves the first/last reposition,
  // but the bound covers any order.
  return 4 * params_.DigitCount() + 2;
}

double GeneralAbccc::TheoreticalBisection() const {
  // Cut on the most significant digit: each level-k switch has
  // floor(radices[k]/2) links toward the smaller side.
  const int k = params_.Order();
  return static_cast<double>(params_.LevelSwitchCount(k)) *
         static_cast<double>(params_.radices[k] / 2);
}

void GeneralAbccc::CheckServer(graph::NodeId node) const {
  DCN_REQUIRE(node >= 0 && static_cast<std::uint64_t>(node) < server_total_,
              "node is not a server of this ABCCC network");
}

}  // namespace dcn::topo
