// Hierarchical telemetry rollups: aggregate per-element measurements (one
// leaf per directed link, flow, ...) up a caller-defined chain of grouping
// levels — e.g. link -> transmitting node -> tier (server/switch) -> fabric —
// so a run can export a bounded summary per LEVEL instead of a row per
// element.
//
// Each Add(groups, value) contributes `value` to one group per level (the
// element's link id, its node id, its tier id, 0). Per level the rollup
// keeps exact integer totals per group, so every level's total equals the
// flat sum of the leaves — aggregation loses nothing but the grouping.
// Summarize() then compresses each level into O(K + buckets): the exact
// group count / total, the exact top-K groups by total, and a quantile
// sketch over the group totals (obs/sketch.h), which is what the stats-JSON
// sink exports. This is the one per-element top-K in the tree: every
// simulator tally that names hot links, nodes or routes is a rollup level.
// The in-memory state is bounded by the number of DISTINCT groups (graph
// elements), not by how many values were added, and the export is
// O(levels * (K + buckets)) regardless of either.
//
// Determinism: totals are exact integers keyed by group id and Merge adds
// them key-wise, so merged rollups are bit-identical in any merge order.
// Summarize() reads the merged totals in ascending group order and breaks
// top-K ties by key — a pure function of the rollup's content.
//
// Registry handles (GetRollup) follow obs/sketch.h: named process-global
// metrics backed by per-thread shards merged in registration x shard order,
// exported by obs/report.cc, cleared (registrations kept) by obs::Reset().
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.h"

namespace dcn::obs {

class Rollup {
 public:
  Rollup() = default;  // zero levels; usable only as a Merge target
  explicit Rollup(std::vector<std::string> level_names);

  std::size_t LevelCount() const { return level_names_.size(); }
  const std::vector<std::string>& LevelNames() const { return level_names_; }

  struct GroupAgg {
    std::uint64_t leaves = 0;  // Add calls that touched this group
    std::int64_t total = 0;    // exact sum of their values
  };

  // One leaf observation: groups[i] is the element's group id at level i
  // (size must equal LevelCount()); `value` must be >= 0.
  void Add(std::span<const std::int64_t> groups, std::int64_t value);
  // Key-wise exact addition. A default-constructed (zero-level) target
  // adopts the other rollup's levels; otherwise the level names must match.
  void Merge(const Rollup& other);

  // Exact per-group aggregates of one level, keyed by group id.
  const std::map<std::int64_t, GroupAgg>& Level(std::size_t level) const;

  struct GroupTotal {
    std::int64_t key = 0;
    std::int64_t total = 0;
  };
  struct LevelSummary {
    std::string name;
    std::uint64_t groups = 0;  // distinct group ids seen
    std::uint64_t leaves = 0;  // Add calls (identical across levels)
    std::int64_t total = 0;    // flat sum (identical across levels)
    // The min(top_k, groups) largest groups, exact, ordered by
    // (total desc, key asc); front() is the busiest group.
    std::vector<GroupTotal> top;
    QuantileSketch quantiles;  // distribution of the group totals
  };

  // Bounded per-level export: O(levels * (top_k + buckets)).
  std::vector<LevelSummary> Summarize(
      std::size_t top_k = 16,
      double relative_accuracy = QuantileSketch::kDefaultAccuracy) const;

 private:
  std::vector<std::string> level_names_;
  std::vector<std::map<std::int64_t, GroupAgg>> levels_;
};

// Thread-safe handle to a named rollup. Add/Merge write the calling thread's
// shard; Merged() folds every shard — bit-identical at any DCN_THREADS
// because Rollup merges are commutative and associative.
class RollupMetric {
 public:
  void Add(std::span<const std::int64_t> groups, std::int64_t value);
  void Merge(const Rollup& partial);
  Rollup Merged() const;

 private:
  friend RollupMetric& GetRollup(std::string_view,
                                 std::span<const std::string>);
  RollupMetric(std::size_t id, std::vector<std::string> level_names)
      : id_(id), level_names_(std::move(level_names)) {}
  std::size_t id_;
  std::vector<std::string> level_names_;
};

// Registers (or finds) a named rollup; re-registration must agree on the
// level names. Handles survive obs::Reset() like the sketch metrics.
RollupMetric& GetRollup(std::string_view name,
                        std::span<const std::string> level_names);

struct RollupRow {
  std::string name;
  Rollup rollup;
};

// Merged snapshot in registration order. Call outside parallel regions.
std::vector<RollupRow> TakeRollupSnapshot();

namespace detail {
// Clears every shard's data; keeps registrations. Called by obs::Reset().
void ResetRollupRegistry();
}  // namespace detail

// The simulators' standard link hierarchy: directed link -> transmitting
// node -> transmitter tier (0 = server, 1 = switch) -> fabric (always group
// 0). See sim/packetsim.cc for the group-id derivation.
std::span<const std::string> LinkRollupLevels();
Rollup MakeLinkRollup();

}  // namespace dcn::obs
