// Run plumbing shared by the link-queue simulators (both packet engines in
// sim/packetsim.cc, and sim/broadcast_sim.cc). One RunHarness per run owns
// the shared config checks, the link store, the fault capacities
// (sim/failures.h), the monitor windows (obs/monitor.h), the flight scope
// (obs/flight.h) and the finalize step; the event loops and their pop orders
// stay in the engines.
//
// Threading (sharded packet engine): Capacity, CountTx and CountDrop touch
// only the given link's state, so each link's owner calls them for its own
// links with non-decreasing times; StepMonitorBefore, AddDelivery and
// Finish run on the coordinating thread, barrier-separated from the counting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/monitor.h"
#include "obs/rollup.h"
#include "sim/failures.h"

namespace dcn::sim {

// Every link transmits one packet per time unit: simulated time is measured
// in packet service times.
inline constexpr double kServiceTime = 1.0;

// Per-directed-link FIFO output queues, capacity-bounded: one contiguous
// slab of queue_capacity slots per link plus flat head/size/transmitted
// arrays. No allocation after construction and no pointer chasing in the
// depart hot path. A queue never holds more than queue_capacity entries
// because a fault can only lower a link's capacity below it.
class RingLinkStore {
 public:
  RingLinkStore(std::size_t links, int capacity)
      : capacity_(static_cast<std::size_t>(capacity)),
        slots_(links * capacity_),
        head_(links, 0),
        size_(links, 0),
        transmitted_(links, 0) {}

  int Size(std::size_t link) const { return static_cast<int>(size_[link]); }
  bool Empty(std::size_t link) const { return size_[link] == 0; }
  // Entry at the queue head (in service). Link must be non-empty.
  std::uint32_t Front(std::size_t link) const {
    return slots_[link * capacity_ + head_[link]];
  }
  std::uint64_t Transmitted(std::size_t link) const {
    return transmitted_[link];
  }
  void Push(std::size_t link, std::uint32_t entry) {
    std::size_t slot = head_[link] + size_[link];
    if (slot >= capacity_) slot -= capacity_;
    slots_[link * capacity_ + slot] = entry;
    ++size_[link];
  }
  std::uint32_t PopFront(std::size_t link) {
    const std::uint32_t entry = slots_[link * capacity_ + head_[link]];
    if (++head_[link] == capacity_) head_[link] = 0;
    --size_[link];
    ++transmitted_[link];
    return entry;
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint64_t> transmitted_;
};

// The config checks every link-queue run shares: 0 <= warmup < duration and
// queue_capacity >= 1 (throws dcn::InvalidArgument). RunHarness runs them
// first; an engine that does heavy setup before building its harness runs
// them before that setup.
void CheckRunConfig(double duration, double warmup, int queue_capacity);

// What a finished run's links add up to.
struct RunTotals {
  // Packets a directed link transmitted divided by the generation window:
  // the busiest link, and the mean over links that carried anything.
  double max_link_utilization = 0.0;
  double mean_link_utilization = 0.0;
  std::uint64_t transmitted = 0;  // departures over every link
  // Exact transmit counts, link -> transmitting node -> tier -> fabric.
  obs::Rollup links = obs::MakeLinkRollup();
  // The monitor's verdicts; enabled == false when the monitor is off.
  obs::monitor::MonitorResult monitor;
};

class RunHarness {
 public:
  // `sim` names the run in the flight recorder and the published alert log.
  // Throws dcn::InvalidArgument on a malformed config or fault schedule.
  RunHarness(std::string_view sim, const graph::Graph& graph, double duration,
             double warmup, int queue_capacity, const FaultSchedule& faults,
             const obs::monitor::MonitorConfig& monitor);

  std::size_t link_count() const { return link_count_; }
  RingLinkStore& links() { return links_; }
  // The run's flight recorder, or nullptr when it is off (or nested).
  obs::flight::Recorder* recorder() const { return flight_.recorder(); }

  // Queue capacity of `link` at `time` under the fault schedule: the last
  // capacity change at or before `time` wins, and a later schedule entry
  // wins a same-time tie. Per-link cursor: the link's owner calls this with
  // non-decreasing times.
  int Capacity(std::uint64_t link, double time) {
    if (fault_cap_.empty()) return queue_capacity_;
    std::uint32_t& next = fault_next_[link];
    const std::uint32_t end = fault_first_[link + 1];
    while (next < end && fault_ops_[next].time <= time) {
      fault_cap_[link] = fault_ops_[next].capacity;
      ++next;
    }
    return fault_cap_[link];
  }

  // Online monitor (no-ops when it is off). An event at `time` counts in
  // window floor(time / width); counts past the window grid are ignored.
  void CountTx(double time, std::uint64_t link) { Count(tx_, time, link); }
  void CountDrop(double time, std::uint64_t link) { Count(drop_, time, link); }
  // Steps every window that ends at or before `time`: the caller promises no
  // later Count* call lands in them. Infinity steps the whole grid.
  void StepMonitorBefore(double time) {
    if (monitor_ != nullptr) StepWindows(time);
  }
  // Measured delivery into the per-window recovery aggregates.
  void AddDelivery(double time, double latency) {
    if (monitor_ != nullptr) {
      monitor_->AddDelivery(obs::monitor::WindowOf(time, width_), latency);
    }
  }

  // Once, after the event loop: steps the remaining monitor windows and
  // adds up the links.
  RunTotals Finish();
  // Last, after the engine's own obs flush: publishes a monitored run's
  // result (obs/monitor.h). Coming after the flush keeps the engine's
  // metrics registering before the monitor's, and the registry exports in
  // first-use order.
  void Publish(const obs::monitor::MonitorResult& result) const;

 private:
  struct CapChange {
    double time = 0.0;
    std::int32_t capacity = 0;
  };

  void Count(std::vector<std::uint32_t>& matrix, double time,
             std::uint64_t link) {
    if (monitor_ == nullptr) return;
    const std::uint32_t window = obs::monitor::WindowOf(time, width_);
    if (window < window_count_) {
      ++matrix[static_cast<std::size_t>(window) * link_count_ + link];
    }
  }
  void StepWindows(double time);

  int queue_capacity_;  // first: its initializer runs the config checks
  std::string sim_;
  double duration_;
  std::size_t link_count_;
  const graph::Graph& graph_;
  RingLinkStore links_;

  // Faults: each link's capacity changes in (time, schedule) order live in
  // fault_ops_[fault_first_[link], fault_first_[link + 1]); fault_next_ is
  // the link's cursor and fault_cap_ its current capacity. All empty when
  // the schedule is.
  std::size_t faults_scheduled_;
  std::vector<CapChange> fault_ops_;
  std::vector<std::uint32_t> fault_first_;
  std::vector<std::uint32_t> fault_next_;
  std::vector<std::int32_t> fault_cap_;

  // Monitor: [window * link_count + link] counts, folded into the detectors
  // one window at a time. Entity order: directed links 0..L-1, then every
  // switch in ascending node id; a switch row adds up the links it
  // transmits on. Signals: "tx" (kDrop) and "drops" (kSpike).
  std::unique_ptr<obs::monitor::HealthMonitor> monitor_;
  double width_ = 1.0;
  std::uint32_t window_count_ = 0;
  std::vector<std::uint32_t> tx_, drop_;
  std::vector<std::uint32_t> tail_switch_;  // link -> its switch row or ~0u
  std::vector<std::vector<std::int64_t>> values_;  // [signal][entity] scratch

  obs::flight::RunScope flight_;
};

}  // namespace dcn::sim
