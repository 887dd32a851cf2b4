#include "topology/custom.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "metrics/bisection.h"
#include "metrics/report.h"
#include "routing/route.h"
#include "sim/flowsim.h"
#include "topology/cost_model.h"

namespace dcn::topo {
namespace {

constexpr const char* kDumbbell = R"(
# Two 2-server pods joined by a switch-to-switch... no: server-centric relay.
node 0 server left-a
node 1 server left-b
node 2 switch left-tor
node 3 server right-a
node 4 server right-b
node 5 switch right-tor
link 0 2
link 1 2
link 3 5
link 4 5
link 1 3   # server-server patch between the pods
)";

TEST(CustomTopologyTest, ParsesNodesLinksAndLabels) {
  const CustomTopology net = CustomTopology::FromString(kDumbbell, "Dumbbell");
  EXPECT_EQ(net.ServerCount(), 4u);
  EXPECT_EQ(net.SwitchCount(), 2u);
  EXPECT_EQ(net.LinkCount(), 5u);
  EXPECT_EQ(net.Describe(), "Dumbbell(servers=4,switches=2,links=5)");
  EXPECT_EQ(net.NodeLabel(0), "left-a");
  EXPECT_EQ(net.NodeLabel(2), "left-tor");
  EXPECT_TRUE(graph::IsConnected(net.Network()));
}

TEST(CustomTopologyTest, UnlabeledNodesGetGeneratedLabels) {
  const CustomTopology net = CustomTopology::FromString(
      "node 0 server\nnode 1 switch\nlink 0 1\n");
  EXPECT_EQ(net.NodeLabel(0), "server0");
  EXPECT_EQ(net.NodeLabel(1), "switch1");
}

TEST(CustomTopologyTest, RoutesAreShortestPaths) {
  const CustomTopology net = CustomTopology::FromString(kDumbbell);
  const routing::Route route{net.Route(0, 4)};
  EXPECT_EQ(routing::ValidateRoute(net.Network(), route), "");
  // 0 -> tor -> 1 -> 3 -> tor -> 4: 5 links, and BFS finds exactly that.
  EXPECT_EQ(route.LinkCount(), 5u);
  EXPECT_EQ(net.ServerPorts(), 2);  // servers 1 and 3 use two ports
}

TEST(CustomTopologyTest, WorksWithTheMetricsPipeline) {
  const CustomTopology net = CustomTopology::FromString(kDumbbell);
  // Bisection between id-halves {0,1} and {3,4}: the single patch link.
  EXPECT_EQ(metrics::MeasureBisection(net), 1);
  Rng rng{3};
  const metrics::TopologyReport report = metrics::Summarize(net, rng);
  EXPECT_EQ(report.servers, 4u);
  EXPECT_TRUE(report.connected);
  const topo::CapexReport cost = EvaluateCost(net);
  EXPECT_EQ(cost.links, 5u);

  const sim::FlowSimResult result = sim::MaxMinFairRates(
      net.Network(), {routing::Route{net.Route(0, 4)},
                      routing::Route{net.Route(1, 3)}});
  // Both flows share the 1-3 patch link.
  EXPECT_DOUBLE_EQ(result.rates[0], 0.5);
  EXPECT_DOUBLE_EQ(result.rates[1], 0.5);
}

TEST(CustomTopologyTest, CommentsAndBlankLinesIgnored) {
  const CustomTopology net = CustomTopology::FromString(
      "# header\n\nnode 0 server # trailing\nnode 1 server\n\nlink 0 1 # x\n");
  EXPECT_EQ(net.ServerCount(), 2u);
  EXPECT_EQ(net.LinkCount(), 1u);
}

TEST(CustomTopologyTest, MalformedInputsNameTheLine) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      CustomTopology::FromString(text);
      FAIL() << "expected InvalidArgument for: " << text;
    } catch (const dcn::InvalidArgument& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("node 1 server\n", "dense");
  expect_error("node 0 router\n", "server or switch");
  expect_error("node 0 server\nlink 0 5\n", "out of range");
  expect_error("node 0 server\nlink 0 0\n", "line 2");
  expect_error("frob 1 2\n", "unknown record");
  expect_error("node 0 server\nlink 0\n", "expected 'link");
  expect_error("link 0 1\n", "out of range");
  expect_error("node 0 server\nnode 1 server\nlink 0 1\nnode 2 server\n",
               "precede links");
  expect_error("node 0 switch\n", "at least one server");
}

TEST(CustomTopologyTest, LinkEndpointsMustBeWholeTokens) {
  auto expect_error = [](const std::string& link, const std::string& needle) {
    const std::string text = "node 0 server\nnode 1 server\n" + link + "\n";
    try {
      CustomTopology::FromString(text);
      FAIL() << "expected InvalidArgument for: " << link;
    } catch (const dcn::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
  };
  expect_error("link 0 1 2", "unexpected '2'");
  expect_error("link 0 1 x", "unexpected 'x'");
  expect_error("link 0 1x", "expected 'link");
  expect_error("link 0x 1", "expected 'link");
  expect_error("link 0 1.0", "expected 'link");
  expect_error("link +0 1", "expected 'link");
  expect_error("link 0 99999999999999999999", "expected 'link");
  expect_error("link 0 -1", "out of range");
  // A trailing comment is still stripped before the fields are read.
  EXPECT_EQ(CustomTopology::FromString(
                "node 0 server\nnode 1 server\nlink 0 1   # patch\n")
                .LinkCount(),
            1u);
}

TEST(CustomTopologyTest, NodeIdsMustBeWholeTokensButLabelsAreFreeText) {
  EXPECT_THROW(CustomTopology::FromString("node 0x server\n"),
               dcn::InvalidArgument);
  EXPECT_THROW(CustomTopology::FromString("node +0 server\n"),
               dcn::InvalidArgument);
  const CustomTopology net =
      CustomTopology::FromString("node 0 server rack 7, slot 2\n");
  EXPECT_EQ(net.NodeLabel(0), "rack 7, slot 2");
}

TEST(CustomTopologyTest, UnreachableRouteThrows) {
  const CustomTopology net =
      CustomTopology::FromString("node 0 server\nnode 1 server\nnode 2 server\nlink 0 1\n");
  EXPECT_THROW(net.Route(0, 2), dcn::InvalidArgument);
  EXPECT_NO_THROW(net.Route(0, 1));
}

}  // namespace
}  // namespace dcn::topo
