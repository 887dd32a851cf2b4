// Differential battery for the servers-only cut tree: every server-pair
// answer it gives must equal a per-pair Dinic solve — on all supported
// topology families, random graphs with switches as Steiner nodes, and
// graphs with failures — and the all-pairs stats built from it must be
// exact, at any thread count.
#include "graph/cuttree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/paths.h"
#include "metrics/bisection.h"
#include "obs/obs.h"
#include "topology/custom.h"
#include "topology/factory.h"

namespace dcn {
namespace {

graph::Graph RandomGraph(Rng& rng, std::size_t nodes, std::size_t edges) {
  graph::Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.AddNode(graph::NodeKind::kServer);
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<graph::NodeId>(rng.NextUint64(i)),
              static_cast<graph::NodeId>(i));
  }
  for (std::size_t e = nodes - 1; e < edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

// Like RandomGraph, but each node is a switch with probability 2/5 (node 0
// included), so the tree's terminals are a strict subset of the nodes and
// min cuts route through Steiner switches.
graph::Graph RandomMixedGraph(Rng& rng, std::size_t nodes, std::size_t edges) {
  graph::Graph g;
  for (std::size_t i = 0; i < nodes; ++i) {
    g.AddNode(rng.NextUint64(5) < 2 ? graph::NodeKind::kSwitch
                                    : graph::NodeKind::kServer);
  }
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<graph::NodeId>(rng.NextUint64(i)),
              static_cast<graph::NodeId>(i));
  }
  for (std::size_t e = nodes - 1; e < edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

// Dense pods of mixed servers and switches joined by a few random links:
// inter-pod cuts fall below server degrees, so most solves are unsaturated
// and re-parent whole pods.
graph::Graph RandomPodGraph(Rng& rng, std::size_t pods, std::size_t pod_size) {
  graph::Graph g;
  const std::size_t nodes = pods * pod_size;
  for (std::size_t i = 0; i < nodes; ++i) {
    g.AddNode(rng.NextUint64(4) == 0 ? graph::NodeKind::kSwitch
                                     : graph::NodeKind::kServer);
  }
  for (std::size_t pod = 0; pod < pods; ++pod) {
    const std::size_t base = pod * pod_size;
    for (std::size_t i = 0; i < pod_size; ++i) {
      for (std::size_t j = i + 1; j < pod_size; ++j) {
        if (rng.NextUint64(3) != 0) {
          g.AddEdge(static_cast<graph::NodeId>(base + i),
                    static_cast<graph::NodeId>(base + j));
        }
      }
    }
  }
  for (std::size_t e = 0; e < 2 * pods; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    if (u / static_cast<graph::NodeId>(pod_size) !=
        v / static_cast<graph::NodeId>(pod_size)) {
      g.AddEdge(u, v);
    }
  }
  return g;
}

// Every server pair of `g` against a fresh per-pair Dinic.
void ExpectTreeMatchesBrute(const graph::Graph& g, const graph::CutTree& tree,
                            const graph::FailureSet* failures) {
  const auto servers = g.Servers();
  graph::FlowScope ws;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = i + 1; j < servers.size(); ++j) {
      EXPECT_EQ(tree.MinCut(servers[i], servers[j]),
                static_cast<std::int64_t>(graph::EdgeConnectivity(
                    g.Csr(), servers[i], servers[j], *ws, failures)))
          << servers[i] << " vs " << servers[j];
    }
  }
}

TEST(CutTreeTest, MatchesDinicOnRandomGraphs) {
  Rng rng{11};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nodes = 6 + rng.NextUint64(18);
    const graph::Graph g = RandomGraph(rng, nodes, nodes * 2);
    const graph::CutTree tree = graph::BuildCutTree(g);
    graph::FlowScope ws;
    for (graph::NodeId u = 0; static_cast<std::size_t>(u) < nodes; ++u) {
      for (graph::NodeId v = u + 1; static_cast<std::size_t>(v) < nodes; ++v) {
        EXPECT_EQ(tree.MinCut(u, v),
                  static_cast<std::int64_t>(
                      graph::EdgeConnectivity(g.Csr(), u, v, *ws)))
            << "trial " << trial << ": " << u << " vs " << v;
      }
    }
  }
}

TEST(CutTreeTest, MatchesDinicUnderFailures) {
  Rng rng{13};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t nodes = 8 + rng.NextUint64(12);
    const graph::Graph g = RandomGraph(rng, nodes, nodes * 2);
    graph::FailureSet failures{g};
    for (int k = 0; k < 3; ++k) {
      failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    }
    failures.KillNode(static_cast<graph::NodeId>(rng.NextUint64(nodes)));
    const graph::CutTree tree =
        graph::BuildCutTree(g, /*edge_capacity=*/1, &failures);
    graph::FlowScope ws;
    for (graph::NodeId u = 0; static_cast<std::size_t>(u) < nodes; ++u) {
      for (graph::NodeId v = u + 1; static_cast<std::size_t>(v) < nodes; ++v) {
        EXPECT_EQ(tree.MinCut(u, v),
                  static_cast<std::int64_t>(
                      graph::EdgeConnectivity(g.Csr(), u, v, *ws, &failures)))
            << "trial " << trial << ": " << u << " vs " << v;
      }
    }
  }
}

TEST(CutTreeTest, EdgeCapacityScalesCuts) {
  Rng rng{17};
  const graph::Graph g = RandomGraph(rng, 14, 30);
  const graph::CutTree unit = graph::BuildCutTree(g, 1);
  const graph::CutTree weighted = graph::BuildCutTree(g, 5);
  for (graph::NodeId u = 0; u < 14; ++u) {
    for (graph::NodeId v = u + 1; v < 14; ++v) {
      EXPECT_EQ(weighted.MinCut(u, v), 5 * unit.MinCut(u, v));
    }
  }
}

TEST(CutTreeTest, IsolatedAndDeadNodesAreCutZeroLeaves) {
  graph::Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(graph::NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);  // node 3 isolated
  graph::FailureSet failures{g};
  failures.KillNode(2);
  const graph::CutTree tree = graph::BuildCutTree(g, 1, &failures);
  EXPECT_EQ(tree.MinCut(0, 1), 1);
  EXPECT_EQ(tree.MinCut(0, 2), 0);  // dead
  EXPECT_EQ(tree.MinCut(0, 3), 0);  // isolated
  EXPECT_EQ(tree.MinCut(2, 3), 0);
}

// Brute-force twin of AllPairsCutStats: one Dinic per unordered server pair.
metrics::PairCutStats BruteAllPairs(const topo::Topology& net,
                                    const graph::FailureSet* failures) {
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  graph::FlowScope ws;
  metrics::PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = i + 1; j < servers.size(); ++j) {
      std::int64_t cut = 0;
      if (failures == nullptr || (!failures->NodeDead(servers[i]) &&
                                  !failures->NodeDead(servers[j]))) {
        cut = static_cast<std::int64_t>(
            graph::EdgeConnectivity(csr, servers[i], servers[j], *ws, failures));
      }
      stats.cuts.Add(cut);
      stats.min_cut = std::min(stats.min_cut, cut);
      sum += cut;
      ++stats.pairs;
    }
  }
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(stats.pairs);
  return stats;
}

void ExpectSameStats(const metrics::PairCutStats& a,
                     const metrics::PairCutStats& b) {
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.min_cut, b.min_cut);
  EXPECT_EQ(a.mean_cut, b.mean_cut);  // both exact integer sums / pairs
  EXPECT_EQ(a.cuts.Buckets(), b.cuts.Buckets());
}

TEST(CutTreeTest, SwitchesAreSteinerNodes) {
  Rng rng{19};
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t nodes = 8 + rng.NextUint64(20);
    const graph::Graph g = RandomMixedGraph(rng, nodes, nodes * 2);
    if (g.Servers().size() < 2) continue;
    const graph::CutTree tree = graph::BuildCutTree(g);
    ExpectTreeMatchesBrute(g, tree, nullptr);
    // Switches stay outside the tree.
    for (graph::NodeId n = 0; static_cast<std::size_t>(n) < nodes; ++n) {
      if (g.IsSwitch(n)) {
        EXPECT_EQ(tree.depth[static_cast<std::size_t>(n)], -1);
        EXPECT_EQ(tree.parent[static_cast<std::size_t>(n)], graph::kInvalidNode);
      }
    }
  }
}

TEST(CutTreeTest, SwitchesAreSteinerNodesUnderFailures) {
  Rng rng{23};
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t nodes = 10 + rng.NextUint64(16);
    const graph::Graph g = RandomMixedGraph(rng, nodes, nodes * 2);
    if (g.Servers().size() < 2) continue;
    graph::FailureSet failures{g};
    for (int k = 0; k < 3; ++k) {
      failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    }
    // One dead node of either kind.
    failures.KillNode(static_cast<graph::NodeId>(rng.NextUint64(nodes)));
    const graph::CutTree tree =
        graph::BuildCutTree(g, /*edge_capacity=*/1, &failures);
    ExpectTreeMatchesBrute(g, tree, &failures);
  }
}

TEST(CutTreeTest, PodGraphsReparentAcrossSteinerSwitches) {
  Rng rng{31};
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const graph::Graph g =
        RandomPodGraph(rng, 3 + rng.NextUint64(4), 5 + rng.NextUint64(4));
    if (g.Servers().size() < 2) continue;
    ExpectTreeMatchesBrute(g, graph::BuildCutTree(g), nullptr);
    graph::FailureSet failures{g};
    failures.KillNode(static_cast<graph::NodeId>(rng.NextUint64(g.NodeCount())));
    ExpectTreeMatchesBrute(g, graph::BuildCutTree(g, 1, &failures), &failures);
  }
}

TEST(CutTreeTest, DeadRootServer) {
  Rng rng{29};
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t nodes = 10 + rng.NextUint64(12);
    const graph::Graph g = RandomMixedGraph(rng, nodes, nodes * 2);
    if (g.Servers().size() < 3) continue;
    graph::FailureSet failures{g};
    failures.KillNode(g.Servers()[0]);
    failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    const graph::CutTree tree =
        graph::BuildCutTree(g, /*edge_capacity=*/1, &failures);
    ExpectTreeMatchesBrute(g, tree, &failures);
  }
}

// Switches first: two switch-joined server pods bridged by one link, so
// Servers()[0] is node 2 and the cuts differ across and within pods.
constexpr const char* kSteinerPods =
    "node 0 switch\nnode 1 switch\n"
    "node 2 server\nnode 3 server\nnode 4 server\n"
    "node 5 server\nnode 6 server\n"
    "link 0 2\nlink 0 3\nlink 0 4\nlink 2 3\nlink 3 4\n"
    "link 1 5\nlink 1 6\nlink 5 6\nlink 4 5\n";

TEST(CutTreeTest, FirstServerNeedNotBeNodeZero) {
  const topo::CustomTopology net = topo::CustomTopology::FromString(kSteinerPods);
  const graph::Graph& g = net.Network();
  ASSERT_EQ(g.Servers()[0], 2);
  const graph::CutTree tree = graph::BuildCutTree(g);
  EXPECT_EQ(tree.depth[2], 0);
  EXPECT_EQ(tree.parent[2], graph::kInvalidNode);
  EXPECT_EQ(tree.MinCut(2, 3), 2);
  EXPECT_EQ(tree.MinCut(5, 6), 2);
  EXPECT_EQ(tree.MinCut(3, 6), 1);
  ExpectTreeMatchesBrute(g, tree, nullptr);
  ExpectSameStats(metrics::AllPairsCutStats(net), BruteAllPairs(net, nullptr));
}

TEST(CutTreeTest, MinCutRejectsSwitches) {
  const auto net = topo::MakeTopology("bcube:n=3,k=1");
  const graph::Graph& g = net->Network();
  const graph::CutTree tree = graph::BuildCutTree(g);
  graph::NodeId sw = graph::kInvalidNode;
  for (graph::NodeId n = 0; static_cast<std::size_t>(n) < g.NodeCount(); ++n) {
    if (g.IsSwitch(n)) {
      sw = n;
      break;
    }
  }
  ASSERT_NE(sw, graph::kInvalidNode);
  EXPECT_THROW(tree.MinCut(g.Servers()[0], sw), InvalidArgument);
  EXPECT_THROW(tree.MinCut(sw, g.Servers()[1]), InvalidArgument);
  EXPECT_THROW(graph::BuildCutTree(g, 0), InvalidArgument);
}

TEST(CutTreeTest, SolvesOncePerNonRootServer) {
  const auto net = topo::MakeTopology("abccc:n=4,k=2,c=3");
  const std::uint64_t before = obs::CounterValue("cuttree/solves");
  graph::BuildCutTree(net->Network());
  EXPECT_EQ(obs::CounterValue("cuttree/solves") - before,
            net->Servers().size() - 1);
}

TEST(CutTreeTest, SourceSideSeparatesTerminals) {
  // Two triangles joined by a single bridge: cut 1, source side = triangle A.
  graph::Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(graph::NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  g.AddEdge(2, 3);  // the bridge
  graph::FlowScope ws;
  graph::EdgeConnectivityBatch batch{g.Csr(), *ws};
  std::vector<char> side;
  EXPECT_THROW(batch.SourceSide(side), InvalidArgument);  // no query yet
  EXPECT_EQ(batch.Connectivity(0, 5), 1u);
  EXPECT_EQ(batch.LiveDegree(0), 2u);
  batch.SourceSide(side);
  ASSERT_EQ(side.size(), 6u);
  for (graph::NodeId n = 0; n < 3; ++n) EXPECT_TRUE(side[n]) << n;
  for (graph::NodeId n = 3; n < 6; ++n) EXPECT_FALSE(side[n]) << n;
  // Crossing edges must number exactly the flow value.
  std::size_t crossing = 0;
  for (graph::EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (side[u] != side[v]) ++crossing;
  }
  EXPECT_EQ(crossing, 1u);
  // A later query from the other side reads its own residual network.
  EXPECT_EQ(batch.Connectivity(4, 1), 1u);
  batch.SourceSide(side);
  for (graph::NodeId n = 0; n < 3; ++n) EXPECT_FALSE(side[n]) << n;
  for (graph::NodeId n = 3; n < 6; ++n) EXPECT_TRUE(side[n]) << n;
}

TEST(CutTreeTest, SourceSideAfterDeadEndpointIsLiveComponent) {
  // Path 0-1-2-3 with node 3 dead: after a saturating query the side of a
  // dead-endpoint query must come from pristine capacities, i.e. src's
  // live component {0, 1, 2}, not the previous residual network.
  graph::Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(graph::NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  graph::FailureSet failures{g};
  failures.KillNode(3);
  graph::FlowScope ws;
  graph::EdgeConnectivityBatch batch{g.Csr(), *ws, &failures};
  EXPECT_EQ(batch.Connectivity(0, 2), 1u);
  EXPECT_EQ(batch.Connectivity(0, 3), 0u);
  std::vector<char> side;
  batch.SourceSide(side);
  EXPECT_EQ(side, (std::vector<char>{1, 1, 1, 0}));
}

TEST(AllPairsCutStatsTest, ExactOnSmallTopologies) {
  for (const char* spec : {"abccc:n=2,k=1,c=2", "bcube:n=3,k=1", "fattree:k=4"}) {
    SCOPED_TRACE(spec);
    const auto net = topo::MakeTopology(spec);
    ExpectSameStats(metrics::AllPairsCutStats(*net), BruteAllPairs(*net, nullptr));
  }
}

TEST(AllPairsCutStatsTest, ExactUnderFailures) {
  const auto net = topo::MakeTopology("bcube:n=3,k=1");
  graph::FailureSet failures{net->Network()};
  failures.KillNode(net->Servers()[1]);  // a dead server
  for (graph::NodeId n = 0;
       static_cast<std::size_t>(n) < net->Network().NodeCount(); ++n) {
    if (net->Network().IsSwitch(n)) {  // and a dead switch
      failures.KillNode(n);
      break;
    }
  }
  failures.KillEdge(0);
  ExpectSameStats(metrics::AllPairsCutStats(*net, &failures),
                  BruteAllPairs(*net, &failures));
}

// Every supported family: the tree must answer sampled pairs exactly like a
// fresh per-pair Dinic (full all-pairs brute force would be quadratic in
// servers, so pairs are sampled on the larger defaults).
class CutTreeFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(CutTreeFamilies, TreeMatchesSampledDinic) {
  const auto net = topo::MakeTopology(GetParam());
  const graph::CsrView& csr = net->Network().Csr();
  const graph::CutTree tree = graph::BuildCutTree(net->Network());
  const auto servers = csr.Servers();
  Rng rng{0xc07 + servers.size()};
  graph::FlowScope ws;
  for (int q = 0; q < 40; ++q) {
    const graph::NodeId u = servers[rng.NextUint64(servers.size())];
    graph::NodeId v = u;
    while (v == u) v = servers[rng.NextUint64(servers.size())];
    EXPECT_EQ(tree.MinCut(u, v),
              static_cast<std::int64_t>(graph::EdgeConnectivity(csr, u, v, *ws)))
        << u << " vs " << v;
  }
  // And the aggregate stats must cover every unordered server pair.
  const metrics::PairCutStats stats = metrics::AllPairsCutStats(*net);
  const auto s = static_cast<std::int64_t>(servers.size());
  EXPECT_EQ(stats.pairs, s * (s - 1) / 2);
  EXPECT_EQ(stats.cuts.Count(), stats.pairs);
  EXPECT_EQ(stats.cuts.Min(), stats.min_cut);
}

INSTANTIATE_TEST_SUITE_P(Families, CutTreeFamilies,
                         ::testing::ValuesIn(topo::SupportedSpecs()));

TEST(AllPairsCutStatsTest, ThreadCountInvariant) {
  const auto net = topo::MakeTopology("abccc:n=3,k=1,c=2");
  SetThreadCount(1);
  const metrics::PairCutStats serial = metrics::AllPairsCutStats(*net);
  for (int threads : {3, 7}) {
    SetThreadCount(threads);
    const metrics::PairCutStats parallel = metrics::AllPairsCutStats(*net);
    SCOPED_TRACE(threads);
    ExpectSameStats(serial, parallel);
  }
  SetThreadCount(0);
}

// Oracle twin of SampledPairCuts: the same base.Fork(i) pair draws, each
// recomputed by a fresh per-pair Dinic.
metrics::PairCutStats OracleSampledPairCuts(const topo::Topology& net,
                                            std::size_t pairs, Rng& rng) {
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  const Rng base = rng.Fork();
  graph::FlowScope ws;
  metrics::PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng pair_rng = base.Fork(i);
    const graph::NodeId src = servers[pair_rng.NextUint64(servers.size())];
    graph::NodeId dst = src;
    while (dst == src) dst = servers[pair_rng.NextUint64(servers.size())];
    const auto cut =
        static_cast<std::int64_t>(graph::EdgeConnectivity(csr, src, dst, *ws));
    stats.cuts.Add(cut);
    stats.min_cut = std::min(stats.min_cut, cut);
    sum += cut;
    ++stats.pairs;
  }
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(pairs);
  return stats;
}

// Runs SampledPairCuts at the current thread count, checks it against the
// oracle, and returns how many cut-tree solves it made.
std::uint64_t SampledCutsSolves(const topo::Topology& net, std::size_t pairs) {
  const std::uint64_t before = obs::CounterValue("cuttree/solves");
  Rng rng{0x5a3 + pairs};
  const metrics::PairCutStats sampled = metrics::SampledPairCuts(net, pairs, rng);
  const std::uint64_t solves = obs::CounterValue("cuttree/solves") - before;
  Rng oracle_rng{0x5a3 + pairs};
  ExpectSameStats(sampled, OracleSampledPairCuts(net, pairs, oracle_rng));
  return solves;
}

std::vector<std::unique_ptr<topo::Topology>> SmallFamilyNets() {
  std::vector<std::unique_ptr<topo::Topology>> nets;
  for (const char* spec : {"abccc:n=2,k=1,c=2", "bcube:n=3,k=1", "dcell:n=3,k=1",
                           "ficonn:n=4,k=1", "fattree:k=4"}) {
    nets.push_back(topo::MakeTopology(spec));
  }
  nets.push_back(std::make_unique<topo::CustomTopology>(
      topo::CustomTopology::FromString(kSteinerPods)));
  return nets;
}

// At one thread, pairs >= S-1 takes the tree path: one S-1 solve build,
// then every drawn pair is a tree query.
TEST(SampledPairCutsTest, TreePathMatchesPerPairOracle) {
  SetThreadCount(1);
  for (const auto& net : SmallFamilyNets()) {
    SCOPED_TRACE(net->Name());
    const std::size_t s = net->ServerCount();
    for (const std::size_t pairs : {s - 1, 3 * s}) {
      SCOPED_TRACE(pairs);
      EXPECT_EQ(SampledCutsSolves(*net, pairs), s - 1);
    }
  }
  SetThreadCount(0);
}

// Fewer pairs than S-1, or a team whose share of the batch is shorter than
// the tree's serial chain, keeps the per-pair batch path: no tree is built.
// At two threads the tree takes over from 2(S-1) pairs.
TEST(SampledPairCutsTest, DispatchBoundaryScalesWithThreads) {
  for (const auto& net : SmallFamilyNets()) {
    SCOPED_TRACE(net->Name());
    const std::size_t s = net->ServerCount();
    SetThreadCount(1);
    EXPECT_EQ(SampledCutsSolves(*net, s - 2), 0u);
    SetThreadCount(2);
    EXPECT_EQ(SampledCutsSolves(*net, 2 * (s - 1) - 1), 0u);
    EXPECT_EQ(SampledCutsSolves(*net, 2 * (s - 1)), s - 1);
  }
  SetThreadCount(0);
}

}  // namespace
}  // namespace dcn
