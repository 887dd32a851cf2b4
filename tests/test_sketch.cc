// obs/sketch.h: the quantile sketch honors its relative rank-error bound
// against an exact sorted reference, merges are bit-identical in any order
// and at any thread count, and the simulators' always-on telemetry
// (packetsim result sketches and link / flow rollups, fluid's FCT sketch)
// is thread-count invariant and matches the exact per-flow data the flight
// recorder exports.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/rollup.h"
#include "routing/route.h"
#include "sim/fluid.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::obs {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

class SketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight::Disable();
    Reset();
  }
  void TearDown() override {
    flight::Disable();
    Reset();
    SetThreadCount(0);
  }
};

// Exact rank-ceil(q * n) order statistic of `values` (the quantity
// QuantileSketch::Quantile estimates).
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// A deterministic long-tailed stream: exponential spacings compounded into
// values spanning several orders of magnitude.
std::vector<double> LongTailedStream(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextExponential(1.0);
    values.push_back(0.05 + u * u * 100.0);
  }
  return values;
}

TEST_F(SketchTest, QuantileWithinRelativeBoundOfExactReference) {
  const std::vector<double> values = LongTailedStream(0x5eed, 20000);
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  ASSERT_EQ(sketch.Count(), values.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = sketch.Quantile(q);
    EXPECT_NEAR(estimate, exact, sketch.RelativeAccuracy() * exact + 1e-12)
        << "q=" << q;
  }
  EXPECT_EQ(sketch.Min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.Max(), *std::max_element(values.begin(), values.end()));
}

TEST_F(SketchTest, TinyValuesLandInTheExactZeroBucket) {
  QuantileSketch sketch;
  sketch.Add(0.0);
  sketch.Add(QuantileSketch::kMinTrackable / 2);
  sketch.Add(5.0);
  EXPECT_EQ(sketch.Count(), 3u);
  EXPECT_EQ(sketch.ZeroCount(), 2u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_NEAR(sketch.Quantile(1.0), 5.0, 5.0 * sketch.RelativeAccuracy());
}

TEST_F(SketchTest, MergeIsBitIdenticalInAnyOrder) {
  const std::vector<double> values = LongTailedStream(0xabcd, 9000);
  QuantileSketch whole;
  for (double v : values) whole.Add(v);

  // Three parts merged in two different orders, versus the single-pass
  // sketch: identical buckets, so identical readouts to the last bit.
  QuantileSketch parts[3];
  for (std::size_t i = 0; i < values.size(); ++i) parts[i % 3].Add(values[i]);
  QuantileSketch ab = parts[0];
  ab.Merge(parts[1]);
  ab.Merge(parts[2]);
  QuantileSketch cb = parts[2];
  cb.Merge(parts[1]);
  cb.Merge(parts[0]);
  for (const QuantileSketch& merged : {ab, cb}) {
    EXPECT_EQ(merged.Count(), whole.Count());
    EXPECT_EQ(merged.Min(), whole.Min());
    EXPECT_EQ(merged.Max(), whole.Max());
    const auto lhs = merged.Buckets();
    const auto rhs = whole.Buckets();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].index, rhs[i].index);
      EXPECT_EQ(lhs[i].count, rhs[i].count);
    }
    for (double q : {0.5, 0.99, 0.999}) {
      EXPECT_EQ(merged.Quantile(q), whole.Quantile(q));
    }
  }
}

TEST_F(SketchTest, SketchMetricIsThreadCountInvariant) {
  auto run = [](int threads) {
    SetThreadCount(threads);
    Reset();
    static SketchMetric& metric = GetQuantileSketch("test/sketch_invariance");
    ParallelFor(5000, 13, [](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        metric.Observe(0.1 + static_cast<double>(i % 257));
      }
    });
    return metric.Merged();
  };
  const QuantileSketch at1 = run(1);
  for (int threads : {3, 7}) {
    const QuantileSketch at_n = run(threads);
    EXPECT_EQ(at_n.Count(), at1.Count());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(at_n.Quantile(q), at1.Quantile(q)) << "threads=" << threads;
    }
    EXPECT_EQ(at_n.ApproxMean(), at1.ApproxMean());
  }
}

// ---------------------------------------------------------------------------
// Simulator telemetry.

// Every level's group count, total, and exact top-K groups.
void ExpectSameRollupSummary(const Rollup& lhs, const Rollup& rhs) {
  const std::vector<Rollup::LevelSummary> a = lhs.Summarize();
  const std::vector<Rollup::LevelSummary> b = rhs.Summarize();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t level = 0; level < a.size(); ++level) {
    SCOPED_TRACE(a[level].name);
    EXPECT_EQ(a[level].groups, b[level].groups);
    EXPECT_EQ(a[level].total, b[level].total);
    ASSERT_EQ(a[level].top.size(), b[level].top.size());
    for (std::size_t i = 0; i < a[level].top.size(); ++i) {
      EXPECT_EQ(a[level].top[i].key, b[level].top[i].key);
      EXPECT_EQ(a[level].top[i].total, b[level].top[i].total);
    }
  }
}

TEST_F(SketchTest, PacketsimTelemetryIsThreadCountInvariant) {
  const topo::Abccc net{topo::AbcccParams{2, 1, 2}};
  Rng traffic_rng{0x7e1e};
  const std::vector<Route> routes =
      sim::NativeRoutes(net, sim::PermutationTraffic(net, traffic_rng));
  const Graph& g = net.Network();
  sim::PacketSimConfig config;
  config.duration = 120.0;
  config.warmup = 20.0;
  config.offered_load = 0.9;

  auto run = [&](int threads) {
    SetThreadCount(threads);
    Reset();
    return sim::RunPacketSim(g, routes, config);
  };
  const sim::PacketSimResult at1 = run(1);
  EXPECT_GT(at1.telemetry.latency.Count(), 0u);
  EXPECT_EQ(at1.telemetry.latency.Count(), at1.delivered);
  EXPECT_GE(at1.telemetry.slowdown.Quantile(0.5), 1.0);
  for (int threads : {3, 7}) {
    const sim::PacketSimResult at_n = run(threads);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(at_n.telemetry.latency.Quantile(q),
                at1.telemetry.latency.Quantile(q))
          << "threads=" << threads;
      EXPECT_EQ(at_n.telemetry.slowdown.Quantile(q),
                at1.telemetry.slowdown.Quantile(q))
          << "threads=" << threads;
    }
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectSameRollupSummary(at_n.telemetry.links, at1.telemetry.links);
    ExpectSameRollupSummary(at_n.telemetry.flows, at1.telemetry.flows);
    EXPECT_EQ(at_n.telemetry.flows.Summarize()[0].total,
              static_cast<std::int64_t>(at_n.delivered));
  }
  // The registry saw the same merge (flushed from the calling thread).
  const auto rows = TakeSketchSnapshot();
  bool found = false;
  for (const SketchRow& row : rows) {
    if (row.name == "packetsim/latency") {
      found = true;
      EXPECT_EQ(row.sketch.Count(), at1.telemetry.latency.Count());
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SketchTest, FctSummarySketchAgreesWithPerFlowCsvRecords) {
  // One fabric, several flows of mixed size, one unroutable: the bounded
  // --fct-summary sketch and the per-flow --fct-csv records must tell the
  // same story.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  std::vector<Route> routes{Route{{0, 2, 3}}, Route{{1, 2, 3}}, Route{{0, 2, 1}},
                            Route{}};
  std::vector<double> bytes{8.0, 4.0, 2.0, 1.0};

  flight::Config config;
  config.fct = true;
  config.fct_summary = true;
  flight::Enable(config);
  sim::FluidCompletionTimes(g, routes, bytes);
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  const flight::RunSnapshot& run = runs[0];

  // Exact quantiles from the per-flow records (the CSV export's source).
  std::vector<double> finite;
  std::uint64_t unroutable = 0;
  for (const flight::FlowRecord& flow : run.flows) {
    if (std::isfinite(flow.value)) {
      finite.push_back(flow.value);
    } else {
      ++unroutable;
    }
  }
  ASSERT_EQ(finite.size(), 3u);
  EXPECT_EQ(unroutable, 1u);
  EXPECT_EQ(run.unroutable, unroutable);
  EXPECT_EQ(run.fct_sketch.Count(), finite.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(finite, q);
    EXPECT_NEAR(run.fct_sketch.Quantile(q), exact,
                run.fct_sketch.RelativeAccuracy() * exact + 1e-12)
        << "q=" << q;
  }

  // The summary table renders without the per-flow materialization.
  std::ostringstream summary;
  flight::WriteFctSummary(summary, runs);
  EXPECT_NE(summary.str().find("fluid"), std::string::npos);
  EXPECT_NE(summary.str().find("p999"), std::string::npos);
}

TEST_F(SketchTest, FctSummaryAloneKeepsPerFlowRecordsOff) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  flight::Config config;
  config.fct_summary = true;  // no per-flow CSV materialization
  flight::Enable(config);
  sim::FluidCompletionTimes(g, {Route{{0, 1}}, Route{}}, {4.0, 2.0});
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].flows.empty());  // bounded memory: sketch only
  EXPECT_EQ(runs[0].fct_sketch.Count(), 1u);
  EXPECT_EQ(runs[0].unroutable, 1u);
  const double fct = runs[0].fct_sketch.Quantile(1.0);
  EXPECT_NEAR(fct, 4.0, 4.0 * runs[0].fct_sketch.RelativeAccuracy());
}

}  // namespace
}  // namespace dcn::obs
