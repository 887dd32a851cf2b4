#include "obs/rollup.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"

namespace dcn::obs {

Rollup::Rollup(std::vector<std::string> level_names)
    : level_names_(std::move(level_names)), levels_(level_names_.size()) {
  DCN_REQUIRE(!level_names_.empty(), "a rollup needs at least one level");
}

void Rollup::Add(std::span<const std::int64_t> groups, std::int64_t value) {
  DCN_REQUIRE(groups.size() == level_names_.size(),
              "rollup Add needs one group id per level");
  DCN_REQUIRE(value >= 0, "rollup values must be non-negative");
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    GroupAgg& agg = levels_[level][groups[level]];
    ++agg.leaves;
    agg.total += value;
  }
}

void Rollup::Merge(const Rollup& other) {
  if (other.level_names_.empty()) return;
  if (level_names_.empty()) {
    level_names_ = other.level_names_;
    levels_.resize(level_names_.size());
  }
  DCN_REQUIRE(level_names_ == other.level_names_,
              "cannot merge rollups with different level chains");
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    for (const auto& [key, agg] : other.levels_[level]) {
      GroupAgg& mine = levels_[level][key];
      mine.leaves += agg.leaves;
      mine.total += agg.total;
    }
  }
}

const std::map<std::int64_t, Rollup::GroupAgg>& Rollup::Level(
    std::size_t level) const {
  DCN_REQUIRE(level < levels_.size(), "rollup level out of range");
  return levels_[level];
}

std::vector<Rollup::LevelSummary> Rollup::Summarize(
    std::size_t top_k, double relative_accuracy) const {
  std::vector<LevelSummary> summaries;
  summaries.reserve(levels_.size());
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    LevelSummary summary{level_names_[level], 0, 0, 0, {},
                         QuantileSketch{relative_accuracy}};
    std::vector<GroupTotal> groups;
    groups.reserve(levels_[level].size());
    // Ascending group order: the summary is a pure function of the merged
    // totals, not of how they were accumulated.
    for (const auto& [key, agg] : levels_[level]) {
      ++summary.groups;
      summary.leaves += agg.leaves;
      summary.total += agg.total;
      summary.quantiles.Add(static_cast<double>(agg.total));
      groups.push_back({key, agg.total});
    }
    const auto keep = groups.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(top_k, groups.size()));
    std::partial_sort(groups.begin(), keep, groups.end(),
                      [](const GroupTotal& a, const GroupTotal& b) {
                        return a.total != b.total ? a.total > b.total
                                                  : a.key < b.key;
                      });
    groups.erase(keep, groups.end());
    summary.top = std::move(groups);
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

// ---------------------------------------------------------------------------
// Registry (same shape as obs/sketch.cc).

namespace {

struct RollupInfo {
  std::string name;
  std::vector<std::string> level_names;
  std::unique_ptr<RollupMetric> handle;
};

struct RollupShard {
  std::vector<std::unique_ptr<Rollup>> rollups;  // by rollup id
};

struct RollupRegistry {
  std::mutex mutex;
  std::vector<RollupInfo> rollups;  // registration order
  std::map<std::string, std::size_t, std::less<>> ids;
  std::vector<std::unique_ptr<RollupShard>> shards;  // shard creation order
  std::uint64_t epoch = 0;
};

RollupRegistry& Reg() {
  static RollupRegistry* registry = new RollupRegistry;
  return *registry;
}

thread_local RollupShard* tl_rollup_shard = nullptr;
thread_local std::uint64_t tl_rollup_epoch = 0;

RollupShard& LocalShard() {
  RollupRegistry& reg = Reg();
  if (tl_rollup_shard == nullptr || tl_rollup_epoch != reg.epoch) {
    std::lock_guard<std::mutex> lock{reg.mutex};
    auto shard = std::make_unique<RollupShard>();
    tl_rollup_shard = shard.get();
    tl_rollup_epoch = reg.epoch;
    reg.shards.push_back(std::move(shard));
  }
  return *tl_rollup_shard;
}

Rollup& RollupSlot(RollupShard& shard, std::size_t id,
                   const std::vector<std::string>& level_names) {
  if (shard.rollups.size() <= id) shard.rollups.resize(id + 1);
  if (shard.rollups[id] == nullptr) {
    shard.rollups[id] = std::make_unique<Rollup>(level_names);
  }
  return *shard.rollups[id];
}

}  // namespace

void RollupMetric::Add(std::span<const std::int64_t> groups,
                       std::int64_t value) {
  RollupSlot(LocalShard(), id_, level_names_).Add(groups, value);
}

void RollupMetric::Merge(const Rollup& partial) {
  RollupSlot(LocalShard(), id_, level_names_).Merge(partial);
}

Rollup RollupMetric::Merged() const {
  Rollup merged{level_names_};
  RollupRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  for (const auto& shard : reg.shards) {
    if (shard->rollups.size() > id_ && shard->rollups[id_] != nullptr) {
      merged.Merge(*shard->rollups[id_]);
    }
  }
  return merged;
}

RollupMetric& GetRollup(std::string_view name,
                        std::span<const std::string> level_names) {
  std::vector<std::string> levels{level_names.begin(), level_names.end()};
  RollupRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  if (const auto it = reg.ids.find(name); it != reg.ids.end()) {
    RollupInfo& info = reg.rollups[it->second];
    DCN_REQUIRE(info.level_names == levels,
                "rollup re-registered with a different level chain: " +
                    std::string{name});
    return *info.handle;
  }
  const std::size_t id = reg.rollups.size();
  RollupInfo info;
  info.name = std::string{name};
  info.level_names = levels;
  info.handle.reset(new RollupMetric{id, std::move(levels)});
  reg.ids.emplace(info.name, id);
  reg.rollups.push_back(std::move(info));
  return *reg.rollups.back().handle;
}

std::vector<RollupRow> TakeRollupSnapshot() {
  RollupRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  std::vector<RollupRow> rows;
  rows.reserve(reg.rollups.size());
  for (std::size_t id = 0; id < reg.rollups.size(); ++id) {
    RollupRow row{reg.rollups[id].name, Rollup{reg.rollups[id].level_names}};
    for (const auto& shard : reg.shards) {
      if (shard->rollups.size() > id && shard->rollups[id] != nullptr) {
        row.rollup.Merge(*shard->rollups[id]);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace detail {

void ResetRollupRegistry() {
  RollupRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  reg.shards.clear();
  ++reg.epoch;
}

}  // namespace detail

std::span<const std::string> LinkRollupLevels() {
  static const std::array<std::string, 4> kLevels{"link", "node", "tier",
                                                  "fabric"};
  return kLevels;
}

Rollup MakeLinkRollup() {
  const std::span<const std::string> levels = LinkRollupLevels();
  return Rollup{{levels.begin(), levels.end()}};
}

}  // namespace dcn::obs
