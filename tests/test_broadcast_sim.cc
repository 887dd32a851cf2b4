#include "sim/broadcast_sim.h"

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "graph/csr.h"
#include "routing/broadcast.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace dcn::sim {
namespace {

using topo::Abccc;
using topo::AbcccParams;

TEST(BroadcastSimTest, LowRateCompletesEveryMessageNearTreeDepth) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  config.message_rate = 0.01;
  config.duration = 5000;
  config.warmup = 500;
  const BroadcastSimResult result = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_GT(result.measured, 20u);
  EXPECT_DOUBLE_EQ(result.CompleteFraction(), 1.0);
  EXPECT_EQ(result.copies_dropped, 0u);
  // Completion is bounded below by the tree depth (in links ~ service times)
  // and stays close to it when the fabric is idle.
  EXPECT_GE(result.completion_latency.Min(), tree.MaxDepth());
  EXPECT_LT(result.completion_latency.Mean(), tree.MaxDepth() + 8);
  // Per-receiver latency is at most completion latency.
  EXPECT_LE(result.delivery_latency.Mean(), result.completion_latency.Mean());
}

TEST(BroadcastSimTest, OverloadDropsCopiesAndBreaksCompleteness) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  // The root's first link must carry every message once; rate > 1/fanout
  // saturates the replication stage.
  config.message_rate = 1.5;
  config.duration = 600;
  config.warmup = 100;
  config.queue_capacity = 4;
  const BroadcastSimResult result = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_GT(result.copies_dropped, 0u);
  EXPECT_LT(result.CompleteFraction(), 0.7);
  EXPECT_GE(result.max_link_utilization, 0.9);
}

TEST(BroadcastSimTest, DeterministicGivenSeed) {
  const topo::Bcube net{topo::BcubeParams{3, 1}};
  const routing::SpanningTree tree = routing::BcubeBroadcastTree(net, 2);
  BroadcastSimConfig config;
  config.message_rate = 0.3;
  config.duration = 400;
  const BroadcastSimResult a = RunBroadcastSim(net.Network(), tree, config);
  const BroadcastSimResult b = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.copies_dropped, b.copies_dropped);
}

TEST(BroadcastSimTest, ThroughputCeilingIsRootFanout) {
  // The root transmits each message once per child segment; its busiest
  // outgoing link caps the sustainable message rate at 1 msg per service
  // time. Just below that, completion still holds; just above, it collapses.
  const topo::Bcube net{topo::BcubeParams{4, 1}};
  const routing::SpanningTree tree = routing::BcubeBroadcastTree(net, 0);
  BroadcastSimConfig below;
  below.message_rate = 0.15;
  below.duration = 1500;
  below.warmup = 300;
  const BroadcastSimResult ok = RunBroadcastSim(net.Network(), tree, below);
  EXPECT_GT(ok.CompleteFraction(), 0.98);
  BroadcastSimConfig above = below;
  above.message_rate = 2.0;
  const BroadcastSimResult bad = RunBroadcastSim(net.Network(), tree, above);
  EXPECT_LT(bad.CompleteFraction(), ok.CompleteFraction());
}

TEST(BroadcastSimTest, ConfigValidation) {
  const Abccc net{AbcccParams{2, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  config.message_rate = 0;
  EXPECT_THROW(RunBroadcastSim(net.Network(), tree, config), dcn::InvalidArgument);
  config = BroadcastSimConfig{};
  config.warmup = config.duration;
  EXPECT_THROW(RunBroadcastSim(net.Network(), tree, config), dcn::InvalidArgument);
  EXPECT_THROW(RunBroadcastSim(net.Network(), routing::SpanningTree{}, {}),
               dcn::InvalidArgument);
}

// Pins a faulted, monitored run to the exact figures the deque-queue engine
// produced before the link-queue plumbing moved into sim::RunHarness: the
// ring store, the per-link fault capacities and the window matrices must
// leave every number, and the alert log, bit-for-bit where they were. The
// tree's busiest edge (its parent -> relay link carries one copy per child
// behind that switch) is killed, then degraded to one slot, then restored.
TEST(BroadcastSimTest, FaultedMonitoredRunMatchesPinnedFigures) {
  using obs::monitor::AlertKind;
  const Abccc net{AbcccParams{4, 1, 2}};
  const graph::Graph& g = net.Network();
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  std::map<graph::EdgeId, int> copies;
  for (std::size_t s = 0; s < tree.parent.size(); ++s) {
    if (tree.parent[s] == graph::kInvalidNode) continue;
    ++copies[g.Csr().FindEdge(tree.parent[s], tree.via[s])];
    ++copies[g.Csr().FindEdge(tree.via[s], static_cast<graph::NodeId>(s))];
  }
  graph::EdgeId busiest = graph::kInvalidEdge;
  int most = 0;
  for (const auto& [edge, count] : copies) {
    if (count > most) {
      most = count;
      busiest = edge;
    }
  }
  ASSERT_EQ(busiest, 32);
  ASSERT_EQ(most, 3);

  BroadcastSimConfig config;
  config.message_rate = 0.25;
  config.duration = 800;
  config.warmup = 100;
  config.queue_capacity = 4;
  config.monitor.enabled = true;
  config.monitor.window_width = 20.0;
  config.faults.KillLink(200.0, busiest)
      .DegradeLink(400.0, busiest, 1)
      .RestoreLink(600.0, busiest);
  const BroadcastSimResult r = RunBroadcastSim(g, tree, config);

  EXPECT_EQ(r.messages, 192u);
  EXPECT_EQ(r.measured, 171u);
  EXPECT_EQ(r.complete, 41u);
  EXPECT_EQ(r.copies_dropped, 456u);
  EXPECT_EQ(r.max_queue_depth, 4);
  EXPECT_EQ(r.max_link_utilization, 0x1.1ae147ae147aep-1);
  // Min() sorts the samples, so Mean() then sums them in sorted order.
  ASSERT_EQ(r.completion_latency.Count(), 41u);
  EXPECT_EQ(r.completion_latency.Min(), 0x1.8p+3);
  EXPECT_EQ(r.completion_latency.Mean(), 0x1.81c0d94e9057dp+3);
  EXPECT_EQ(r.completion_latency.Max(), 0x1.9911d2220f6bp+3);
  EXPECT_EQ(r.completion_latency.Percentile(0.5), 0x1.8p+3);
  ASSERT_EQ(r.delivery_latency.Count(), 2571u);
  EXPECT_EQ(r.delivery_latency.Min(), 0x1p+1);
  EXPECT_EQ(r.delivery_latency.Mean(), 0x1.c2619195942b3p+2);
  EXPECT_EQ(r.delivery_latency.Max(), 0x1.bc823d90029cp+3);
  EXPECT_EQ(r.delivery_latency.Percentile(0.5), 0x1.cp+2);
  EXPECT_EQ(r.delivery_latency.Percentile(0.99), 0x1.8aec6a40e6ap+3);

  EXPECT_EQ(r.monitor.windows, 40u);
  EXPECT_EQ(r.monitor.breach_windows, 168u);
  struct PinnedAlert {
    std::uint32_t entity;
    AlertKind kind;
    std::uint16_t signal;
    std::int32_t window;
    std::int64_t value, baseline_q, cusum_q;
  };
  const std::vector<PinnedAlert> expected = {
      {64, AlertKind::kFire, 1, 12, 12, 247711, 1530835},
      {144, AlertKind::kFire, 0, 13, 0, 478879, 1335752},
      {104, AlertKind::kFire, 0, 14, 0, 488894, 1560735},
      {112, AlertKind::kFire, 0, 14, 0, 406496, 1193547},
      {120, AlertKind::kFire, 0, 14, 0, 334611, 1018326},
      {149, AlertKind::kFire, 0, 14, 0, 491065, 1497852},
      {150, AlertKind::kFire, 0, 14, 0, 408206, 1128613},
      {151, AlertKind::kFire, 0, 14, 0, 337403, 958210},
      {96, AlertKind::kFire, 1, 24, 0, 194202, 622118},
      {96, AlertKind::kClear, 1, 27, 9, 222643, 513327},
      {104, AlertKind::kClear, 0, 27, 18, 580704, 0},
      {149, AlertKind::kClear, 0, 27, 18, 588429, 0},
      {112, AlertKind::kClear, 0, 37, 10, 496704, 0},
      {120, AlertKind::kClear, 0, 37, 10, 422562, 0},
      {144, AlertKind::kClear, 0, 37, 11, 587434, 0},
      {150, AlertKind::kClear, 0, 37, 10, 490681, 0},
      {151, AlertKind::kClear, 0, 38, 10, 442352, 0},
  };
  ASSERT_EQ(r.monitor.alerts.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const obs::monitor::Alert& a = r.monitor.alerts[i];
    const PinnedAlert& e = expected[i];
    EXPECT_EQ(a.entity, e.entity) << i;
    EXPECT_EQ(a.kind, e.kind) << i;
    EXPECT_EQ(a.signal, e.signal) << i;
    EXPECT_EQ(a.window, e.window) << i;
    EXPECT_EQ(a.time, (e.window + 1) * config.monitor.window_width) << i;
    EXPECT_EQ(a.value, e.value) << i;
    EXPECT_EQ(a.baseline_q, e.baseline_q) << i;
    EXPECT_EQ(a.cusum_q, e.cusum_q) << i;
  }
}

}  // namespace
}  // namespace dcn::sim
