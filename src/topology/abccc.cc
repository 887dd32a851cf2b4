#include "topology/abccc.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace dcn::topo {

namespace {

GeneralAbcccParams ValidatedGeneral(const AbcccParams& params) {
  params.Validate();
  return params.General();
}

}  // namespace

void AbcccParams::Validate() const {
  DCN_REQUIRE(n >= 2, "ABCCC requires level-switch radix n >= 2");
  DCN_REQUIRE(k >= 0, "ABCCC requires order k >= 0");
  DCN_REQUIRE(c >= 2, "ABCCC requires servers with c >= 2 NIC ports");
  General().Validate();
}

GeneralAbcccParams AbcccParams::General() const {
  // 64 digits of radix >= 2 already overflow 64-bit ids; checking the order
  // first keeps a wild k from allocating its radix vector.
  DCN_REQUIRE(k >= 0 && k < 64, "topology size overflows 64 bits");
  return GeneralAbcccParams{std::vector<int>(static_cast<std::size_t>(k) + 1, n),
                            c};
}

std::pair<int, int> AbcccParams::AgentLevels(int role) const {
  DCN_REQUIRE(role >= 0 && role < RowLength(), "role out of range");
  const int lo = role * (c - 1);
  const int hi = std::min(lo + c - 2, k);
  return {lo, hi};
}

int AbcccParams::PortsUsed(int role) const {
  const auto [lo, hi] = AgentLevels(role);
  return (HasCrossbars() ? 1 : 0) + (hi - lo + 1);
}

std::uint64_t AbcccParams::RowCount() const {
  return CheckedPow(static_cast<std::uint64_t>(n), static_cast<unsigned>(k + 1));
}

std::uint64_t AbcccParams::ServerTotal() const { return General().ServerTotal(); }

std::uint64_t AbcccParams::CrossbarTotal() const {
  return General().CrossbarTotal();
}

std::uint64_t AbcccParams::LevelSwitchTotal() const {
  return General().LevelSwitchTotal();
}

std::uint64_t AbcccParams::LinkTotal() const { return General().LinkTotal(); }

Abccc::Abccc(AbcccParams params)
    : GeneralAbccc(ValidatedGeneral(params)), uniform_(params) {}

std::string Abccc::Describe() const {
  std::ostringstream out;
  out << "ABCCC(n=" << uniform_.n << ",k=" << uniform_.k << ",c=" << uniform_.c
      << ")";
  return out.str();
}

}  // namespace dcn::topo
