// obs/rollup.h: hierarchical rollups keep exact per-group integer totals —
// every level's total equals the flat sum of the leaves — merge key-wise in
// any order, summarize each level into a bounded export (the exact top-K
// groups, checked against a brute-force sort, plus a sketch of the group
// totals), and the registry metric is bit-identical at any thread count.
#include "obs/rollup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/obs.h"

namespace dcn::obs {
namespace {

class RollupTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override {
    Reset();
    SetThreadCount(0);
  }
};

std::vector<std::string> LinkLevels() {
  const auto span = LinkRollupLevels();
  return {span.begin(), span.end()};
}

// The simulators' leaf shape: a directed link, its transmitting node, the
// node's tier, and the single fabric group.
std::array<std::int64_t, 4> LeafGroups(std::int64_t link) {
  return {link, link / 4, link % 3 == 0 ? 0 : 1, 0};
}

TEST_F(RollupTest, EveryLevelTotalEqualsTheFlatSum) {
  Rollup rollup{LinkLevels()};
  Rng rng{0xfeed};
  std::int64_t flat = 0;
  std::uint64_t leaves = 0;
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto link = static_cast<std::int64_t>(rng.NextUint64(64));
    const auto value = static_cast<std::int64_t>(rng.NextUint64(100));
    rollup.Add(LeafGroups(link), value);
    flat += value;
    ++leaves;
  }
  for (std::size_t level = 0; level < rollup.LevelCount(); ++level) {
    std::int64_t total = 0;
    std::uint64_t level_leaves = 0;
    for (const auto& [key, agg] : rollup.Level(level)) {
      total += agg.total;
      level_leaves += agg.leaves;
    }
    EXPECT_EQ(total, flat) << "level " << level;
    EXPECT_EQ(level_leaves, leaves) << "level " << level;
  }
  // The fabric level is one group holding everything.
  ASSERT_EQ(rollup.Level(3).size(), 1u);
  EXPECT_EQ(rollup.Level(3).at(0).total, flat);
}

TEST_F(RollupTest, MergeIsKeyWiseAndOrderFree) {
  Rollup a{LinkLevels()};
  Rollup b{LinkLevels()};
  Rollup whole{LinkLevels()};
  Rng rng{0xc0de};
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto link = static_cast<std::int64_t>(rng.NextUint64(48));
    const auto value = static_cast<std::int64_t>(rng.NextUint64(20));
    (i % 2 == 0 ? a : b).Add(LeafGroups(link), value);
    whole.Add(LeafGroups(link), value);
  }
  Rollup ab = a;
  ab.Merge(b);
  Rollup ba;  // default-constructed target adopts the level chain
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(ba.LevelNames(), whole.LevelNames());
  for (const Rollup& merged : {ab, ba}) {
    for (std::size_t level = 0; level < whole.LevelCount(); ++level) {
      const auto& lhs = merged.Level(level);
      const auto& rhs = whole.Level(level);
      ASSERT_EQ(lhs.size(), rhs.size());
      for (const auto& [key, agg] : rhs) {
        ASSERT_TRUE(lhs.contains(key));
        EXPECT_EQ(lhs.at(key).total, agg.total);
        EXPECT_EQ(lhs.at(key).leaves, agg.leaves);
      }
    }
  }
}

TEST_F(RollupTest, SummarizeIsBoundedAndExactWhereItClaimsToBe) {
  Rollup rollup{LinkLevels()};
  // 40 links; link 13 is the clear elephant.
  for (std::int64_t link = 0; link < 40; ++link) {
    rollup.Add(LeafGroups(link), link == 13 ? 5000 : 10 + link);
  }
  const auto summaries = rollup.Summarize(/*top_k=*/8);
  ASSERT_EQ(summaries.size(), 4u);
  const Rollup::LevelSummary& links = summaries[0];
  EXPECT_EQ(links.name, "link");
  EXPECT_EQ(links.groups, 40u);
  EXPECT_EQ(links.leaves, 40u);
  ASSERT_EQ(links.top.size(), 8u);
  EXPECT_EQ(links.top[0].key, 13);
  EXPECT_EQ(links.top[0].total, 5000);
  EXPECT_EQ(links.quantiles.Count(), 40u);
  // Totals agree across every summarized level.
  for (const auto& summary : summaries) {
    EXPECT_EQ(summary.total, links.total) << summary.name;
    EXPECT_EQ(summary.leaves, links.leaves) << summary.name;
  }
  EXPECT_EQ(summaries[3].groups, 1u);  // fabric

  // Seeded random leaves whose small value range forces many tied group
  // totals: every level's top-K must equal a brute-force sort of Level()
  // by (total desc, key asc), keys and totals both, for K below, at, and
  // above the group count.
  Rollup tied{LinkLevels()};
  Rng rng{0x7095};
  for (std::size_t i = 0; i < 600; ++i) {
    const auto link = static_cast<std::int64_t>(rng.NextUint64(90));
    tied.Add(LeafGroups(link), static_cast<std::int64_t>(rng.NextUint64(4)));
  }
  for (const std::size_t top_k : {std::size_t{1}, std::size_t{8},
                                  std::size_t{1000}}) {
    const auto summarized = tied.Summarize(top_k);
    ASSERT_EQ(summarized.size(), tied.LevelCount());
    for (std::size_t level = 0; level < tied.LevelCount(); ++level) {
      SCOPED_TRACE(testing::Message() << "level " << level << " top_k "
                                      << top_k);
      std::vector<Rollup::GroupTotal> expected;
      for (const auto& [key, agg] : tied.Level(level)) {
        expected.push_back({key, agg.total});
      }
      std::sort(expected.begin(), expected.end(),
                [](const Rollup::GroupTotal& a, const Rollup::GroupTotal& b) {
                  return a.total != b.total ? a.total > b.total
                                            : a.key < b.key;
                });
      expected.resize(std::min(top_k, expected.size()));
      const std::vector<Rollup::GroupTotal>& top = summarized[level].top;
      ASSERT_EQ(top.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(top[i].key, expected[i].key) << "rank " << i;
        EXPECT_EQ(top[i].total, expected[i].total) << "rank " << i;
      }
    }
  }
}

TEST_F(RollupTest, RollupMetricIsThreadCountInvariant) {
  auto run = [](int threads) {
    SetThreadCount(threads);
    Reset();
    static RollupMetric& metric =
        GetRollup("test/rollup_invariance", LinkRollupLevels());
    ParallelFor(3000, 11, [](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto link = static_cast<std::int64_t>(i % 56);
        metric.Add(LeafGroups(link), static_cast<std::int64_t>(i % 17));
      }
    });
    return metric.Merged();
  };
  const Rollup at1 = run(1);
  for (int threads : {3, 7}) {
    const Rollup at_n = run(threads);
    for (std::size_t level = 0; level < at1.LevelCount(); ++level) {
      const auto& lhs = at_n.Level(level);
      const auto& rhs = at1.Level(level);
      ASSERT_EQ(lhs.size(), rhs.size()) << "threads=" << threads;
      for (const auto& [key, agg] : rhs) {
        EXPECT_EQ(lhs.at(key).total, agg.total);
        EXPECT_EQ(lhs.at(key).leaves, agg.leaves);
      }
    }
  }
  // Snapshot surfaces the merged rollup under its registered name.
  const auto rows = TakeRollupSnapshot();
  bool found = false;
  for (const RollupRow& row : rows) {
    if (row.name == "test/rollup_invariance") {
      found = true;
      EXPECT_EQ(row.rollup.Level(3).at(0).total, at1.Level(3).at(0).total);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dcn::obs
