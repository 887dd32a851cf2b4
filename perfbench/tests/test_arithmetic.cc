// Tests for the benchmark's own arithmetic: the tail-percentile rule, span
// self time, and digest stability.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "digest.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);  // 1, 2, ..., n
  return values;
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(TailPercentile(Ramp(99), 0.9).has_value());
  const auto p90 = TailPercentile(Ramp(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(*p90, 90.0);  // samples 91..100 lie beyond it
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);  // rank 10 of 20, 10 beyond
}

TEST(TailPercentile, NearestRankOnUnsortedInput) {
  std::vector<double> values = Ramp(200);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(*TailPercentile(values, 0.9), 180.0);
  EXPECT_EQ(*TailPercentile(values, 0.5, 0), 100.0);
  EXPECT_EQ(*TailPercentile(values, 1.0, 0), 200.0);
  EXPECT_FALSE(TailPercentile({}, 0.5, 0).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

Span At(const char* layer, std::uint64_t start, std::uint64_t end,
        std::int64_t parent = kNone) {
  return {layer, layer, start, end, parent, kNone};
}

TEST(SelfTimes, NestedChildren) {
  // task [0,100) > call [10,60) > library [20,30); check [70,80).
  const std::vector<Span> spans = {At("task", 0, 100), At("call", 10, 60, 0),
                                   At("lib", 20, 30, 1), At("check", 70, 80, 0)};
  EXPECT_EQ(SelfTimes(spans), (std::vector<std::uint64_t>{40, 40, 10, 10}));
  const auto by_layer = SelfTimeByLayer(spans);
  EXPECT_EQ(by_layer.at("task"), 40u);
  EXPECT_EQ(UncoveredNs(spans, 0, 120), 20u);
}

TEST(SelfTimes, OverlappingChildrenAreNotDoubleCounted) {
  // Two children overlap on [30,40) and one spills past the parent's end.
  const std::vector<Span> spans = {At("parent", 0, 100), At("a", 10, 40, 0),
                                   At("b", 30, 60, 0), At("c", 90, 130, 0)};
  // Covered inside the parent: [10,60) + [90,100) = 60.
  EXPECT_EQ(SelfTimes(spans)[0], 40u);
  EXPECT_EQ(UncoveredNs(spans, 0, 150), 20u);
}

TEST(Tracer, RecordsParentAndTask) {
  Tracer tracer;
  tracer.SetRecording(true);
  tracer.BeginTask(7, "task");
  {
    const auto call = tracer.Call("sim.packetsim", "run");
    const auto inner = tracer.Step("bench.check", "inner");
  }
  { const auto check = tracer.Step("bench.check", "check"); }
  tracer.EndTask();
  const std::vector<Span> spans = tracer.TakeSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, kNone);  // task
  EXPECT_EQ(spans[1].parent, 0);      // run
  EXPECT_EQ(spans[2].parent, 1);      // inner
  EXPECT_EQ(spans[3].parent, 0);      // check
  for (const Span& s : spans) {
    EXPECT_EQ(s.task, 7);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_GT(tracer.TakeCallNs(), 0u);
  EXPECT_EQ(tracer.TakeCallNs(), 0u);
}

TEST(NestByContainment, DerivesParentsFromIntervals) {
  std::vector<Span> spans = {At("task", 0, 100), At("call", 10, 60),
                             At("check", 70, 80), At("lib-same", 10, 60),
                             At("lib-head", 10, 30), At("lib-tail", 30, 60)};
  spans[0].task = 7;
  NestByContainment(spans);
  std::map<std::string, std::string> parent_of;
  for (const Span& s : spans) {
    EXPECT_EQ(s.task, 7) << s.name;
    parent_of[s.name] =
        s.parent == kNone ? "" : spans[static_cast<std::size_t>(s.parent)].name;
  }
  EXPECT_EQ(parent_of["task"], "");
  EXPECT_EQ(parent_of["call"], "task");
  EXPECT_EQ(parent_of["check"], "task");
  // Equal intervals: the span listed first (the benchmark's wrapper) is the
  // parent.
  EXPECT_EQ(parent_of["lib-same"], "call");
  EXPECT_EQ(parent_of["lib-head"], "lib-same");
  EXPECT_EQ(parent_of["lib-tail"], "lib-same");
}

TEST(Tracer, CallTimeIsKeptWithRecordingOff) {
  Tracer tracer;
  { const auto call = tracer.Call("layer", "call"); }
  EXPECT_TRUE(tracer.TakeSpans().empty());
  EXPECT_GT(tracer.TakeCallNs(), 0u);
}

TEST(Digest, BitExactAndOrderSensitive) {
  EXPECT_EQ(Digest{}.Add(1.0).Add(std::uint64_t{2}).Value(),
            Digest{}.Add(1.0).Add(std::uint64_t{2}).Value());
  EXPECT_NE(Digest{}.Add(1.0).Add(2.0).Value(), Digest{}.Add(2.0).Add(1.0).Value());
  EXPECT_NE(Digest{}.Add(0.0).Value(), Digest{}.Add(-0.0).Value());
  EXPECT_NE(Digest{}.Add("ab").Add("c").Value(), Digest{}.Add("a").Add("bc").Value());
  EXPECT_EQ(Hex(0xabcull), "0000000000000abc");
}

// Two set-ups of the same workload from the same seed give the same task
// list and the same digest for every task.
TEST(Digest, StableAcrossIdenticalRuns) {
  for (const char* name : {"packet-uniform", "topology-analysis"}) {
    std::vector<std::uint64_t> runs[2];
    for (auto& digests : runs) {
      Tracer tracer;
      auto workload = FindWorkload(name).make();
      workload->Setup(3, tracer);
      for (const Task& task : workload->Tasks()) {
        if (task.key.rfind("symmetry_paths/", 0) == 0) continue;  // 0.7 s
        digests.push_back(task.run(0, tracer).digest);
      }
    }
    EXPECT_EQ(runs[0], runs[1]) << name;
    EXPECT_FALSE(runs[0].empty());
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(FindWorkload("nope"), std::invalid_argument);
  EXPECT_EQ(Workloads().size(), 3u);
}

}  // namespace
}  // namespace perfbench
