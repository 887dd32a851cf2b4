#include "topology/gabccc.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/broadcast.h"
#include "routing/forwarding.h"
#include "routing/multipath.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/expansion.h"

namespace dcn::topo {
namespace {

TEST(GeneralAbcccParamsTest, Validation) {
  EXPECT_NO_THROW((GeneralAbcccParams{{2, 2}, 2}.Validate()));
  EXPECT_THROW((GeneralAbcccParams{{}, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((GeneralAbcccParams{{2, 1}, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((GeneralAbcccParams{{2, 2}, 1}.Validate()), dcn::InvalidArgument);
}

TEST(GeneralAbcccParamsTest, MixedRadixCounts) {
  // radices [4, 3, 2] (little-endian: level0=4, level1=3, level2=2), c=2.
  const GeneralAbcccParams p{{4, 3, 2}, 2};
  EXPECT_EQ(p.Order(), 2);
  EXPECT_EQ(p.RowLength(), 3);
  EXPECT_EQ(p.RowCount(), 24u);
  EXPECT_EQ(p.ServerTotal(), 72u);
  EXPECT_EQ(p.LevelSwitchCount(0), 6u);   // 3*2
  EXPECT_EQ(p.LevelSwitchCount(1), 8u);   // 4*2
  EXPECT_EQ(p.LevelSwitchCount(2), 12u);  // 4*3
  EXPECT_EQ(p.LevelSwitchTotal(), 26u);
  EXPECT_EQ(p.CrossbarTotal(), 24u);
  EXPECT_EQ(p.LinkTotal(), 3u * 24u + 72u);
}

TEST(GeneralAbcccParamsTest, TotalsOverflowIsRejected) {
  // 62 binary digits in one-member rows: the 2^62 servers fit, but the
  // 62 * 2^62 level links (and 31 * 2^62 level switches) do not.
  const GeneralAbcccParams wide{std::vector<int>(62, 2), 63};
  EXPECT_THROW(wide.Validate(), dcn::InvalidArgument);
  EXPECT_THROW((void)wide.LinkTotal(), dcn::InvalidArgument);
  EXPECT_THROW((void)wide.LevelSwitchTotal(), dcn::InvalidArgument);
  // The same shape through the uniform parameters.
  EXPECT_THROW((AbcccParams{2, 61, 63}.Validate()), dcn::InvalidArgument);
  EXPECT_NO_THROW((GeneralAbcccParams{std::vector<int>(40, 2), 41}.Validate()));
}

// Equal radices are the paper's ABCCC(n, k, c): same node ids, node kinds,
// edge ids (endpoint by endpoint) and labels as the uniform view.
void ExpectSameNetwork(const Abccc& uniform) {
  const AbcccParams& p = uniform.Params();
  const GeneralAbccc general{GeneralAbcccParams{
      std::vector<int>(static_cast<std::size_t>(p.k) + 1, p.n), p.c}};
  const graph::Graph& a = uniform.Network();
  const graph::Graph& b = general.Network();
  ASSERT_EQ(a.NodeCount(), b.NodeCount()) << uniform.Describe();
  ASSERT_EQ(a.EdgeCount(), b.EdgeCount()) << uniform.Describe();
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < a.NodeCount();
       ++node) {
    ASSERT_EQ(a.KindOf(node), b.KindOf(node)) << uniform.Describe() << " " << node;
    ASSERT_EQ(uniform.NodeLabel(node), general.NodeLabel(node))
        << uniform.Describe();
  }
  for (graph::EdgeId edge = 0; static_cast<std::size_t>(edge) < a.EdgeCount();
       ++edge) {
    ASSERT_EQ(a.Endpoints(edge), b.Endpoints(edge))
        << uniform.Describe() << " edge " << edge;
  }
}

TEST(GeneralAbcccTest, UniformRadixMatchesAbccc) {
  ExpectSameNetwork(Abccc{AbcccParams{4, 2, 2}});
  ExpectSameNetwork(Abccc{AbcccParams{3, 2, 3}});
  ExpectSameNetwork(Bccc{3, 2});
  ExpectSameNetwork(Abccc{AbcccParams{3, 2, 4}});  // c >= k+2: BCube-shaped
  // Level-switch labels keep the uniform "S<l>(..*..)" rendering.
  const Abccc net{AbcccParams{4, 2, 2}};
  EXPECT_EQ(net.NodeLabel(net.LevelSwitchAt(0, Digits{0, 1, 2})), "S0(21*)");
}

TEST(GeneralAbcccTest, RowDigitsRoundTrip) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  for (std::uint64_t row = 0; row < net.Params().RowCount(); ++row) {
    EXPECT_EQ(net.DigitsToRow(net.RowToDigits(row)), row);
  }
  EXPECT_THROW(net.DigitsToRow(Digits{0, 3, 0}), dcn::InvalidArgument);
}

TEST(GeneralAbcccTest, StructureDegreesAndConnectivity) {
  const GeneralAbcccParams p{{4, 3, 2}, 2};
  const GeneralAbccc net{p};
  const graph::Graph& g = net.Network();
  EXPECT_TRUE(graph::IsConnected(g));
  // Level-l switch degree = radices[l]; check via a row's switches.
  const Digits zero(3, 0);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(0, zero)), 4u);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(1, zero)), 3u);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(2, zero)), 2u);
  EXPECT_EQ(g.Degree(net.CrossbarAt(0)), 3u);  // m = 3
}

TEST(GeneralAbcccTest, LevelSwitchConnectsItsPlane) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  const graph::Graph& g = net.Network();
  Digits digits{1, 2, 0};
  const graph::NodeId sw = net.LevelSwitchAt(1, digits);
  for (int d = 0; d < 3; ++d) {
    digits[1] = d;
    EXPECT_TRUE(g.Adjacent(sw, net.ServerAt(digits, net.Params().AgentRole(1))));
  }
}

TEST(GeneralAbcccTest, AllPairsRoutingIsValid) {
  const GeneralAbccc net{GeneralAbcccParams{{3, 2, 2}, 2}};
  for (const graph::NodeId src : net.Servers()) {
    for (const graph::NodeId dst : net.Servers()) {
      const routing::Route route{net.Route(src, dst)};
      ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "")
          << src << "->" << dst;
      ASSERT_EQ(route.Dst(), dst);
      ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
    }
  }
}

TEST(GeneralAbcccTest, RoutingNotShorterThanBfs) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 2, 3}, 3}};
  Rng rng{91};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 40; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const std::vector<int> dist = graph::BfsDistances(net.Network(), src);
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    EXPECT_GE(static_cast<int>(route.LinkCount()), dist[dst]);
  }
}

TEST(GeneralAbcccTest, DescribeAndLabels) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  EXPECT_EQ(net.Describe(), "GeneralABCCC(radices=[2,3,4],c=2)");
  EXPECT_EQ(net.Name(), "GeneralABCCC");
  EXPECT_EQ(net.NodeLabel(net.ServerAt(Digits{1, 2, 0}, 1)), "<021;1>");
  EXPECT_EQ(net.NodeLabel(net.CrossbarAt(net.DigitsToRow(Digits{1, 2, 0}))),
            "X(021)");
  EXPECT_EQ(net.NodeLabel(net.LevelSwitchAt(1, Digits{3, 2, 1})), "S1(1*3)");
  EXPECT_EQ(net.NodeLabel(net.LevelSwitchAt(2, Digits{3, 2, 1})), "S2(*23)");
}

TEST(SliceExpansionTest, PlanIsPureAddition) {
  const GeneralAbcccParams from{{4, 4, 2}, 2};  // top level partially built
  const ExpansionStep step = PlanSliceExpansion(from, 2);
  EXPECT_EQ(step.existing_servers_modified, 0u);
  EXPECT_EQ(step.existing_switches_replaced, 0u);
  EXPECT_EQ(step.existing_links_recabled, 0u);
  EXPECT_EQ(step.DisruptionTotal(), 0u);
  const GeneralAbcccParams to{{4, 4, 3}, 2};
  EXPECT_EQ(step.servers_after, to.ServerTotal());
  // Each existing level-2 switch accepts one new slice cable.
  EXPECT_EQ(step.crossbar_ports_consumed, from.LevelSwitchCount(2));
  EXPECT_THROW(PlanSliceExpansion(from, 5), dcn::InvalidArgument);
}

TEST(SliceExpansionTest, SliceGrowthChainEmbeds) {
  // Grow the top level 2 -> 3 -> 4: every step keeps the old network intact.
  for (int r = 2; r < 4; ++r) {
    const GeneralAbccc before{GeneralAbcccParams{{4, 4, r}, 2}};
    const GeneralAbccc after{GeneralAbcccParams{{4, 4, r + 1}, 2}};
    EXPECT_TRUE(VerifySliceExpansion(before, after)) << "r=" << r;
  }
}

TEST(SliceExpansionTest, LowerLevelGrowthAlsoEmbeds) {
  const GeneralAbccc before{GeneralAbcccParams{{3, 4, 2}, 3}};
  const GeneralAbccc after{GeneralAbcccParams{{4, 4, 2}, 3}};
  EXPECT_TRUE(VerifySliceExpansion(before, after));
}

TEST(SliceExpansionTest, MismatchesRejected) {
  const GeneralAbccc a{GeneralAbcccParams{{4, 4}, 2}};
  const GeneralAbccc shrunk{GeneralAbcccParams{{4, 3}, 2}};
  EXPECT_FALSE(VerifySliceExpansion(a, shrunk));
  const GeneralAbccc other_c{GeneralAbcccParams{{4, 4}, 3}};
  EXPECT_FALSE(VerifySliceExpansion(a, other_c));
  const GeneralAbccc deeper{GeneralAbcccParams{{4, 4, 2}, 2}};
  EXPECT_FALSE(VerifySliceExpansion(a, deeper));
}

TEST(SliceExpansionTest, IdenticalNetworksEmbedTrivially) {
  const GeneralAbccc a{GeneralAbcccParams{{3, 3}, 2}};
  const GeneralAbccc b{GeneralAbcccParams{{3, 3}, 2}};
  EXPECT_TRUE(VerifySliceExpansion(a, b));
}

TEST(GeneralAbcccTest, PartialDeploymentSizesInterpolate) {
  // The point of slice growth: server counts between the k and k+1 uniform
  // networks become reachable.
  const Abccc small{AbcccParams{4, 1, 2}};   // 32 servers
  const Abccc large{AbcccParams{4, 2, 2}};   // 192 servers
  std::vector<std::uint64_t> sizes;
  for (int r = 2; r <= 4; ++r) {
    const GeneralAbcccParams partial{{4, 4, r}, 2};
    sizes.push_back(partial.ServerTotal());
  }
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{96, 144, 192}));
  EXPECT_GT(sizes.front(), small.ServerCount());
  EXPECT_EQ(sizes.back(), large.ServerCount());
}

TEST(GeneralAbcccRoutingTest, BroadcastCoversPartialDeployment) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 4, 3}, 2}};  // partial top
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
  for (const graph::NodeId server : net.Servers()) {
    const routing::Route path = tree.PathTo(server);
    ASSERT_EQ(routing::ValidateRoute(net.Network(), path), "");
  }
}

TEST(GeneralAbcccRoutingTest, MulticastPrunesPartialDeployment) {
  const GeneralAbccc net{GeneralAbcccParams{{3, 3, 2}, 2}};
  const std::vector<graph::NodeId> targets{3, 17, 25};
  const routing::SpanningTree tree = routing::AbcccMulticastTree(net, 0, targets);
  for (const graph::NodeId target : targets) {
    EXPECT_TRUE(tree.Contains(target));
  }
  EXPECT_LT(tree.CoveredCount(), net.ServerCount());
}

TEST(GeneralAbcccRoutingTest, ForwardingReachesEveryPair) {
  const GeneralAbccc net{GeneralAbcccParams{{3, 2, 2}, 2}};
  for (const graph::NodeId src : net.Servers()) {
    for (const graph::NodeId dst : net.Servers()) {
      const routing::Route route = routing::AbcccForwardRoute(net, src, dst);
      ASSERT_EQ(route.Dst(), dst);
      ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
    }
  }
}

TEST(GeneralAbcccRoutingTest, RotatedRoutesAreValidOnMixedRadices) {
  const GeneralAbccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  Rng rng{93};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 25; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    for (const routing::Route& route :
         routing::RotatedLevelOrderRoutes(net, src, dst)) {
      EXPECT_EQ(routing::ValidateRoute(net.Network(), route), "");
      EXPECT_EQ(route.Src(), src);
      EXPECT_EQ(route.Dst(), dst);
    }
  }
}

}  // namespace
}  // namespace dcn::topo
