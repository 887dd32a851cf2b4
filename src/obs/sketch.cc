#include "obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"

namespace dcn::obs {

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy),
      gamma_((1.0 + relative_accuracy) / (1.0 - relative_accuracy)),
      inv_log_gamma_(1.0 / std::log(gamma_)) {
  DCN_REQUIRE(relative_accuracy > 0.0 && relative_accuracy < 1.0,
              "quantile sketch relative accuracy must be in (0, 1)");
}

std::int32_t QuantileSketch::IndexOf(double value) const {
  // Bucket i holds (gamma^(i-1), gamma^i]. std::log is a pure function of the
  // value, so the index — and with it every merged readout — is independent
  // of which thread computed it.
  return static_cast<std::int32_t>(std::ceil(std::log(value) * inv_log_gamma_));
}

double QuantileSketch::BucketEstimate(std::int32_t index) const {
  // The point of (gamma^(i-1), gamma^i] whose worst-case relative error over
  // the bucket is exactly alpha.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::AddBucket(std::int32_t index, std::uint64_t weight) {
  if (counts_.empty()) {
    lo_ = index;
    counts_.push_back(weight);
    return;
  }
  if (index < lo_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - index), 0);
    lo_ = index;
  } else if (const auto slot = static_cast<std::size_t>(index - lo_);
             slot >= counts_.size()) {
    counts_.resize(slot + 1, 0);
  }
  counts_[static_cast<std::size_t>(index - lo_)] += weight;
}

void QuantileSketch::Add(double value, std::uint64_t weight) {
  DCN_REQUIRE(std::isfinite(value) && value >= 0.0,
              "quantile sketch values must be finite and non-negative");
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  if (value < kMinTrackable) {
    zero_ += weight;
  } else {
    AddBucket(IndexOf(value), weight);
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  DCN_REQUIRE(alpha_ == other.alpha_,
              "cannot merge quantile sketches with different accuracies");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_ += other.zero_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] != 0) {
      AddBucket(other.lo_ + static_cast<std::int32_t>(i), other.counts_[i]);
    }
  }
}

double QuantileSketch::Min() const { return count_ == 0 ? 0.0 : min_; }
double QuantileSketch::Max() const { return count_ == 0 ? 0.0 : max_; }

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double want = std::ceil(q * static_cast<double>(count_));
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, std::min(static_cast<std::uint64_t>(want), count_));
  std::uint64_t cum = zero_;
  if (cum >= rank) return min_;  // the rank falls inside the zero bucket
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      const double est = BucketEstimate(lo_ + static_cast<std::int32_t>(i));
      return std::clamp(est, min_, max_);
    }
  }
  return max_;
}

double QuantileSketch::ApproxMean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;  // ascending bucket order: identical for any merge tree
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      sum += static_cast<double>(counts_[i]) *
             BucketEstimate(lo_ + static_cast<std::int32_t>(i));
    }
  }
  return sum / static_cast<double>(count_);
}

std::vector<QuantileSketch::Bucket> QuantileSketch::Buckets() const {
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      buckets.push_back({lo_ + static_cast<std::int32_t>(i), counts_[i]});
    }
  }
  return buckets;
}

// ---------------------------------------------------------------------------
// Registry (mirrors obs/timeseries.cc: per-thread shards, leaky singleton,
// epoch-invalidated thread-local shard pointers).

namespace {

struct SketchInfo {
  std::string name;
  double alpha = QuantileSketch::kDefaultAccuracy;
  std::unique_ptr<SketchMetric> handle;
};

// One thread's slice of every metric, written only by the owning thread;
// snapshots read after the writing region completed (the pool's completion
// sync is the happens-before edge, as for the obs metric shards).
struct SketchShard {
  std::vector<std::unique_ptr<QuantileSketch>> sketches;  // by sketch id
};

struct SketchRegistry {
  std::mutex mutex;
  std::vector<SketchInfo> sketches;  // registration order
  std::map<std::string, std::size_t, std::less<>> sketch_ids;
  std::vector<std::unique_ptr<SketchShard>> shards;  // shard creation order
  std::uint64_t epoch = 0;
};

SketchRegistry& Reg() {
  static SketchRegistry* registry = new SketchRegistry;
  return *registry;
}

thread_local SketchShard* tl_sketch_shard = nullptr;
thread_local std::uint64_t tl_sketch_epoch = 0;

SketchShard& LocalShard() {
  SketchRegistry& reg = Reg();
  if (tl_sketch_shard == nullptr || tl_sketch_epoch != reg.epoch) {
    std::lock_guard<std::mutex> lock{reg.mutex};
    auto shard = std::make_unique<SketchShard>();
    tl_sketch_shard = shard.get();
    tl_sketch_epoch = reg.epoch;
    reg.shards.push_back(std::move(shard));
  }
  return *tl_sketch_shard;
}

QuantileSketch& SketchSlot(SketchShard& shard, std::size_t id, double alpha) {
  if (shard.sketches.size() <= id) shard.sketches.resize(id + 1);
  if (shard.sketches[id] == nullptr) {
    shard.sketches[id] = std::make_unique<QuantileSketch>(alpha);
  }
  return *shard.sketches[id];
}

}  // namespace

void SketchMetric::Observe(double value, std::uint64_t weight) {
  SketchSlot(LocalShard(), id_, alpha_).Add(value, weight);
}

void SketchMetric::Merge(const QuantileSketch& partial) {
  SketchSlot(LocalShard(), id_, alpha_).Merge(partial);
}

QuantileSketch SketchMetric::Merged() const {
  QuantileSketch merged{alpha_};
  SketchRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  for (const auto& shard : reg.shards) {
    if (shard->sketches.size() > id_ && shard->sketches[id_] != nullptr) {
      merged.Merge(*shard->sketches[id_]);
    }
  }
  return merged;
}

SketchMetric& GetQuantileSketch(std::string_view name,
                                double relative_accuracy) {
  SketchRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  if (const auto it = reg.sketch_ids.find(name); it != reg.sketch_ids.end()) {
    SketchInfo& info = reg.sketches[it->second];
    DCN_REQUIRE(info.alpha == relative_accuracy,
                "quantile sketch re-registered with a different accuracy: " +
                    std::string{name});
    return *info.handle;
  }
  const std::size_t id = reg.sketches.size();
  SketchInfo info;
  info.name = std::string{name};
  info.alpha = relative_accuracy;
  info.handle.reset(new SketchMetric{id, relative_accuracy});
  reg.sketch_ids.emplace(info.name, id);
  reg.sketches.push_back(std::move(info));
  return *reg.sketches.back().handle;
}

std::vector<SketchRow> TakeSketchSnapshot() {
  SketchRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  std::vector<SketchRow> rows;
  rows.reserve(reg.sketches.size());
  for (std::size_t id = 0; id < reg.sketches.size(); ++id) {
    SketchRow row{reg.sketches[id].name,
                  QuantileSketch{reg.sketches[id].alpha}};
    for (const auto& shard : reg.shards) {
      if (shard->sketches.size() > id && shard->sketches[id] != nullptr) {
        row.sketch.Merge(*shard->sketches[id]);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace detail {

void ResetSketchRegistry() {
  SketchRegistry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  // Registrations (names, handles) survive so static-local caches stay
  // valid; the shards and the thread-local pointers into them do not.
  reg.shards.clear();
  ++reg.epoch;
}

}  // namespace detail

}  // namespace dcn::obs
