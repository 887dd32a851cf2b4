#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/sketch.h"
#include "sim/flowsim.h"

namespace dcn::sim {

FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 double link_capacity) {
  return FluidCompletionTimes(graph, routes, bytes, FaultSchedule{},
                              link_capacity);
}

FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 const FaultSchedule& faults,
                                 double link_capacity) {
  DCN_REQUIRE(routes.size() == bytes.size(), "need one byte count per flow");
  for (double b : bytes) {
    DCN_REQUIRE(b > 0, "flow sizes must be positive");
  }
  // Fluid has no queues, so any non-negative degrade is well-formed.
  const std::vector<FaultEvent> fault_events = SortedFaultEvents(
      graph, faults, std::numeric_limits<int>::max());

  OBS_SPAN("fluid/run");
  // Opening the run here (before the draining loop) also suppresses the
  // inner MaxMinFairRates calls' own RunScopes — only fluid's per-flow
  // completion times are recorded, not every recomputation's rates.
  obs::flight::RunScope flight_run{"fluid", /*duration=*/0.0};
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  FluidResult result;
  result.finish_time.assign(routes.size(), kInfinity);

  std::vector<double> remaining = bytes;
  std::vector<bool> done(routes.size(), false);
  // Unroutable flows never finish; self-flows finish at full NIC rate.
  std::size_t active = 0;
  std::uint64_t unroutable = 0;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    if (routes[f].Empty()) {
      done[f] = true;
      ++unroutable;
    } else {
      ++active;
    }
  }

  static obs::Counter& c_runs = obs::GetCounter("fluid/runs");
  static obs::Counter& c_recomputations =
      obs::GetCounter("fluid/rate_recomputations");
  static obs::Counter& c_unroutable =
      obs::GetCounter("fluid/unroutable_flows");
  c_runs.Add(1);
  c_unroutable.Add(unroutable);

  // Mid-run faults, fluid granularity: kLinkDown / kNodeDown terminate the
  // active flows crossing the dead element at the scheduled instant and hand
  // their capacity to the survivors; degrade/restore are queueing-level and
  // ignored here. Applied cumulatively in time order.
  std::size_t next_fault = 0;
  graph::FailureSet dead{graph};
  const auto crosses_dead = [&](const routing::Route& route) {
    for (std::size_t h = 0; h < route.hops.size(); ++h) {
      if (dead.NodeDead(route.hops[h])) return true;
      if (h + 1 < route.hops.size() &&
          dead.EdgeDead(graph.Csr().FindEdge(route.hops[h],
                                             route.hops[h + 1]))) {
        return true;
      }
    }
    return false;
  };
  // Applies every fault due at or before `now`; returns true when a kill
  // event landed (degrades never change the fluid picture).
  const auto apply_due_faults = [&](double now) {
    bool killed = false;
    while (next_fault < fault_events.size() &&
           fault_events[next_fault].time <= now) {
      const FaultEvent& event = fault_events[next_fault++];
      if (event.kind == FaultKind::kLinkDown) {
        dead.KillEdge(static_cast<graph::EdgeId>(event.entity));
        killed = true;
      } else if (event.kind == FaultKind::kNodeDown) {
        dead.KillNode(static_cast<graph::NodeId>(event.entity));
        killed = true;
      }
    }
    return killed;
  };

  double now = 0.0;
  if (apply_due_faults(now)) {
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (done[f] || !crosses_dead(routes[f])) continue;
      done[f] = true;
      --active;
      ++result.killed_flows;
    }
  }
  while (active > 0) {
    // Rates for the currently active flows (finished flows release capacity
    // by being excluded — empty routes get rate 0 and are skipped).
    std::vector<routing::Route> current(routes.size());
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (!done[f]) current[f] = routes[f];
    }
    const FlowSimResult rates =
        MaxMinFairRates(graph, current, link_capacity, /*count_empty=*/true);
    ++result.rate_recomputations;

    // Next completion: smallest remaining/rate among active flows.
    double step = kInfinity;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (done[f]) continue;
      DCN_ASSERT(rates.rates[f] > 0);
      step = std::min(step, remaining[f] / rates.rates[f]);
    }
    DCN_ASSERT(step < kInfinity);

    // A fault before the next completion preempts it: drain to the fault
    // instant, kill the crossing flows, and recompute with the survivors.
    const double fault_time = next_fault < fault_events.size()
                                  ? fault_events[next_fault].time
                                  : kInfinity;
    if (fault_time < now + step) {
      const double partial = std::max(0.0, fault_time - now);
      for (std::size_t f = 0; f < routes.size(); ++f) {
        if (!done[f]) remaining[f] -= rates.rates[f] * partial;
      }
      now = std::max(now, fault_time);
      if (apply_due_faults(now)) {
        for (std::size_t f = 0; f < routes.size(); ++f) {
          if (done[f] || !crosses_dead(routes[f])) continue;
          done[f] = true;
          --active;
          ++result.killed_flows;
        }
      }
      continue;
    }
    now += step;

    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (done[f]) continue;
      remaining[f] -= rates.rates[f] * step;
      if (remaining[f] <= 1e-9 * bytes[f]) {
        done[f] = true;
        --active;
        result.finish_time[f] = now;
        result.makespan = std::max(result.makespan, now);
      }
    }
  }
  // Conservation: every flow ended finished, unroutable or killed.
  std::uint64_t finished = 0;
  for (const double t : result.finish_time) finished += std::isfinite(t) ? 1 : 0;
  DCN_ASSERT(finished + unroutable + result.killed_flows == routes.size());
  c_recomputations.Add(static_cast<std::uint64_t>(result.rate_recomputations));
  if (obs::flight::Recorder* fr = flight_run.recorder();
      fr != nullptr && fr->FctOn()) {
    for (std::size_t f = 0; f < routes.size(); ++f) {
      fr->Flow(obs::flight::FlowKind::kFct, static_cast<std::uint32_t>(f),
               bytes[f], result.finish_time[f]);
    }
  }
  // Always-on FCT distribution. Unroutable flows carry +inf finish times and
  // would poison a quantile readout, so they are counted above
  // (fluid/unroutable_flows) and excluded here.
  if (!flight_run.nested()) {
    obs::QuantileSketch fct;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (std::isfinite(result.finish_time[f])) fct.Add(result.finish_time[f]);
    }
    static obs::SketchMetric& s_fct = obs::GetQuantileSketch("fluid/fct");
    s_fct.Merge(fct);
  }
  return result;
}

double CoflowCompletionTime(const FluidResult& result,
                            const std::vector<std::size_t>& members) {
  DCN_REQUIRE(!members.empty(), "coflow needs at least one member");
  double completion = 0.0;
  for (std::size_t member : members) {
    DCN_REQUIRE(member < result.finish_time.size(), "member index out of range");
    completion = std::max(completion, result.finish_time[member]);
  }
  return completion;
}

}  // namespace dcn::sim
