// Failure injection for the fault-tolerance experiments.
//
// Two layers:
//   * RandomFailures (F7): a static FailureSet drawn before the run starts —
//     topology-level kills consumed by the routing / connectivity benches.
//   * FaultSchedule (F24): deterministic *mid-run* fault events at scheduled
//     sim times, consumed by the packet / broadcast / fluid simulators. Link
//     and switch kills and capacity degrades take effect while packets are in
//     flight, giving the online health monitor (obs/monitor.h) something to
//     detect and letting us measure time-to-detect and recovery.
//
// FaultSchedule semantics in the queueing simulators are drain-then-dead: a
// fault changes the per-directed-link queue capacity (kill -> 0) from its
// scheduled time onward. Capacity is consulted only at enqueue, so packets
// already queued on a dying link still transmit; nothing in flight is
// cancelled and the event order is untouched. An empty schedule therefore
// leaves the simulation byte-identical to a run without fault support. The
// packet and broadcast simulators read that capacity through
// sim::RunHarness (sim/run_harness.h); fluid instead terminates the flows
// that cross a killed element. All three validate the whole schedule up
// front with SortedFaultEvents.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "obs/monitor.h"
#include "topology/topology.h"

namespace dcn::sim {

// Kills each server / switch / link independently with the given
// probabilities (fractions in [0, 1]). Deterministic given rng.
graph::FailureSet RandomFailures(const topo::Topology& net,
                                 double server_fraction, double switch_fraction,
                                 double link_fraction, Rng& rng);

// ---------------------------------------------------------------------------
// Mid-run fault schedule.

enum class FaultKind : std::uint8_t {
  kLinkDown,     // entity = EdgeId; both directed links 2e / 2e+1 die
  kLinkDegrade,  // entity = EdgeId; both directions clamp to `capacity`
  kLinkRestore,  // entity = EdgeId; both directions back to full capacity
  kNodeDown,     // entity = NodeId; every incident directed link dies
};

struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kLinkDown;
  std::int64_t entity = 0;  // EdgeId for link faults, NodeId for kNodeDown
  int capacity = 0;         // kLinkDegrade only: new queue capacity (>= 0)
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool Empty() const { return events.empty(); }

  FaultSchedule& KillLink(double time, graph::EdgeId edge) {
    events.push_back({time, FaultKind::kLinkDown, edge, 0});
    return *this;
  }
  FaultSchedule& DegradeLink(double time, graph::EdgeId edge, int capacity) {
    events.push_back({time, FaultKind::kLinkDegrade, edge, capacity});
    return *this;
  }
  FaultSchedule& RestoreLink(double time, graph::EdgeId edge) {
    events.push_back({time, FaultKind::kLinkRestore, edge, 0});
    return *this;
  }
  FaultSchedule& KillNode(double time, graph::NodeId node) {
    events.push_back({time, FaultKind::kNodeDown, node, 0});
    return *this;
  }
};

// Checks every event against `graph` — time >= 0 (NaN fails), entity in
// range, 0 <= degrade capacity <= max_capacity — before anything else reads
// the schedule, then returns the events stable-sorted by time: same-time
// events keep schedule order, so a later entry wins a same-time conflict.
// The queueing simulators pass their queue capacity (what kLinkRestore
// restores); fluid, which has no queues, passes INT_MAX.
std::vector<FaultEvent> SortedFaultEvents(const graph::Graph& graph,
                                          const FaultSchedule& schedule,
                                          int max_capacity);

// ---------------------------------------------------------------------------
// Detection outcome: pairing scheduled faults with the monitor's alert log.

struct DetectionOutcome {
  FaultEvent fault;
  bool detected = false;
  double detect_time = 0.0;  // earliest matching alert at time >= fault.time
  double ttd = 0.0;          // detect_time - fault.time (when detected)
};

// Matches each scheduled fault against the alert log of a monitored run over
// the same graph. A fault matches an alert when the alert's entity is
// affected by the fault: for link faults the two directed links and the two
// endpoint nodes; for kNodeDown the node itself plus every incident directed
// link. Kill/degrade events match kFire alerts; kLinkRestore matches kClear.
std::vector<DetectionOutcome> MatchDetections(
    const graph::Graph& graph, const FaultSchedule& schedule,
    const obs::monitor::MonitorResult& result);

}  // namespace dcn::sim
