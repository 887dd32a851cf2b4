#include "graph/maxflow.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace dcn::graph {
namespace {

TEST(MaxFlowTest, SingleEdge) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  const std::vector<NodeId> src{a}, dst{b};
  EXPECT_EQ(MinCutBetween(g, src, dst), 1);
  EXPECT_EQ(MinCutBetween(g, src, dst, 5), 5);
}

TEST(MaxFlowTest, ParallelEdgesAdd) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{b}), 3);
}

TEST(MaxFlowTest, CycleGivesTwo) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}), 2);
}

TEST(MaxFlowTest, BridgeLimitsFlow) {
  // Two triangles joined by one bridge: cut = 1.
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  g.AddEdge(2, 3);  // bridge
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{5}), 1);
}

TEST(MaxFlowTest, CompleteGraphK4) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.AddEdge(i, j);
  }
  // Min cut isolating a vertex of degree 3.
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{3}), 3);
}

TEST(MaxFlowTest, SetToSetFlow) {
  // Star: center 4, leaves 0..3. Cut between {0,1} and {2,3} is 2 (the two
  // source attachment links saturate).
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, 4);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0, 1}, std::vector<NodeId>{2, 3}),
            2);
}

TEST(MaxFlowTest, FailuresReduceCut) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  const EdgeId top = g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 2);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}), 2);
  FailureSet failures{g};
  failures.KillEdge(top);
  EXPECT_EQ(
      MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}, 1, &failures),
      1);
  failures.KillNode(3);
  EXPECT_EQ(
      MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}, 1, &failures),
      0);
}

TEST(MaxFlowTest, DisconnectedGivesZero) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{1}), 0);
}

TEST(MaxFlowTest, PreconditionViolations) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  MaxFlowSolver solver{g};
  EXPECT_THROW(solver.Solve({}, std::vector<NodeId>{b}), InvalidArgument);
  EXPECT_THROW(
      MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{a}),
      InvalidArgument);
  EXPECT_THROW(MaxFlowSolver(g, 0), InvalidArgument);
}

TEST(MaxFlowTest, SolveIsSingleShot) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  MaxFlowSolver solver{g};
  EXPECT_EQ(solver.Solve(std::vector<NodeId>{a}, std::vector<NodeId>{b}), 1);
  // The residual network of the first solve is still loaded: solving again
  // must throw rather than return garbage.
  EXPECT_THROW(solver.Solve(std::vector<NodeId>{a}, std::vector<NodeId>{b}),
               InvalidArgument);
}

}  // namespace
}  // namespace dcn::graph
