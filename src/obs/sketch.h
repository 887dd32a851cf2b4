// Deterministic, mergeable telemetry sketches: bounded-error quantiles in
// O(buckets) space regardless of stream length. (Per-element top-K views —
// hot links, nodes, routes — are exact and live in obs/rollup.h.)
//
// QuantileSketch — a DDSketch-style log-bucketed quantile summary. Values are
// hashed to geometric buckets index = ceil(log(v) / log(gamma)) with
// gamma = (1 + alpha) / (1 - alpha), so the bucket midpoint estimate
// 2 * gamma^i / (gamma + 1) is within a RELATIVE error of alpha of every
// value in the bucket. Quantile(q) therefore returns an estimate x~ with
// |x~ - x| <= alpha * x for the exact rank-ceil(q*n) order statistic x
// (values below kMinTrackable collapse into an exact zero bucket and are
// returned as 0). Bucket counts are integers and min/max are tracked exactly,
// so Merge is commutative and associative — merged readouts are bit-identical
// in any merge order, which is what makes the registry handles below safe to
// feed from any thread at any DCN_THREADS.
//
// Registry handles (GetQuantileSketch) mirror obs/timeseries.h: named
// process-global metrics backed by per-thread shards merged in registration
// x shard order, flushed into the stats-JSON / --obs-report sinks by
// obs/report.cc, and cleared (registrations kept) by obs::Reset().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcn::obs {

class QuantileSketch {
 public:
  // 1% relative value error: p99 of a 10000-time-unit tail reads within
  // +-100 time units of truth, at ~1000 buckets per decade-spanning stream.
  static constexpr double kDefaultAccuracy = 0.01;
  // Values in [0, kMinTrackable) land in the exact zero bucket (reported as
  // 0, which for that range IS within any relative bound worth having).
  static constexpr double kMinTrackable = 1e-9;

  explicit QuantileSketch(double relative_accuracy = kDefaultAccuracy);

  // `value` must be finite and >= 0 (callers exclude sentinel infinities —
  // see sim/fluid.cc's unroutable counter). `weight` adds that many
  // occurrences in O(1).
  void Add(double value, std::uint64_t weight = 1);
  // Exact bucket-count addition; requires matching relative accuracy.
  void Merge(const QuantileSketch& other);

  std::uint64_t Count() const { return count_; }
  std::uint64_t ZeroCount() const { return zero_; }
  double RelativeAccuracy() const { return alpha_; }
  double Min() const;  // exact; 0 when empty
  double Max() const;  // exact; 0 when empty

  // Estimate of the rank-ceil(q * Count()) order statistic (q clamped into
  // (0, 1]; 0 on an empty sketch), clamped into [Min(), Max()].
  double Quantile(double q) const;
  // Mean from the bucket midpoints (relative error <= alpha), accumulated in
  // ascending bucket order so it is identical however the sketch was merged.
  double ApproxMean() const;

  struct Bucket {
    std::int32_t index = 0;
    std::uint64_t count = 0;
  };
  // Non-empty log buckets, ascending index. The zero bucket is not included.
  std::vector<Bucket> Buckets() const;
  // Midpoint value estimate of log bucket `index` (2 gamma^i / (gamma + 1)).
  double BucketEstimate(std::int32_t index) const;

 private:
  std::int32_t IndexOf(double value) const;
  void AddBucket(std::int32_t index, std::uint64_t weight);

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  // Contiguous counts for bucket indices [lo_, lo_ + counts_.size()); grown
  // on demand. Log-bucket indices of any one stream span a few hundred slots
  // (the whole double range fits in ~4k at the default accuracy).
  std::int32_t lo_ = 0;
  std::vector<std::uint64_t> counts_;
};

// ---------------------------------------------------------------------------
// Registry handles (process-global named metrics, like obs/timeseries.h).

// Thread-safe handle to a named quantile sketch. Observe/Merge write the
// calling thread's shard; Merged() folds every shard. Because QuantileSketch
// merges are commutative AND associative, Merged() readouts are bit-identical
// at any DCN_THREADS however the writers were scheduled.
class SketchMetric {
 public:
  void Observe(double value, std::uint64_t weight = 1);
  void Merge(const QuantileSketch& partial);
  QuantileSketch Merged() const;

 private:
  friend SketchMetric& GetQuantileSketch(std::string_view, double);
  SketchMetric(std::size_t id, double alpha) : id_(id), alpha_(alpha) {}
  std::size_t id_;
  double alpha_;
};

// Registers (or finds) a named metric. Re-registration must agree on the
// parameters. Handles stay valid across obs::Reset() — reset clears the
// data, not the registrations — so caching them in static locals is safe.
SketchMetric& GetQuantileSketch(
    std::string_view name,
    double relative_accuracy = QuantileSketch::kDefaultAccuracy);

struct SketchRow {
  std::string name;
  QuantileSketch sketch;
};

// Merged snapshots in registration order (shards folded in creation order).
// Call outside parallel regions, like obs::TakeSnapshot().
std::vector<SketchRow> TakeSketchSnapshot();

namespace detail {
// Clears every shard's data; keeps registrations so cached handles survive.
// Called by obs::Reset().
void ResetSketchRegistry();
}  // namespace detail

}  // namespace dcn::obs
