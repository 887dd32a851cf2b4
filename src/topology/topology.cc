#include "topology/topology.h"

#include <limits>

#include "common/error.h"

namespace dcn::topo {

void RequireGraphIdRange(std::uint64_t nodes, std::uint64_t links) {
  DCN_REQUIRE(nodes <= static_cast<std::uint64_t>(
                           std::numeric_limits<graph::NodeId>::max()),
              "topology node count overflows 32-bit node ids");
  DCN_REQUIRE(links <= static_cast<std::uint64_t>(
                           std::numeric_limits<graph::EdgeId>::max()),
              "topology link count overflows 32-bit edge ids");
}

std::pair<std::vector<graph::NodeId>, std::vector<graph::NodeId>>
Topology::BisectionHalves() const {
  // Default: first half vs second half in server-id order. Cube topologies
  // override nothing further because their server ids are digit-ordered, so
  // this split is exactly "most significant digit < base/2" when the digit
  // base is even, the cut the literature quotes bisection for.
  const auto servers = Servers();
  DCN_REQUIRE(servers.size() >= 2, "bisection needs at least two servers");
  const std::size_t half = servers.size() / 2;
  std::vector<graph::NodeId> a(servers.begin(), servers.begin() + half);
  std::vector<graph::NodeId> b(servers.begin() + half, servers.end());
  return {std::move(a), std::move(b)};
}

}  // namespace dcn::topo
