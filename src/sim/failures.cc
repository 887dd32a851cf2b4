#include "sim/failures.h"

#include <algorithm>

#include "common/error.h"

namespace dcn::sim {

graph::FailureSet RandomFailures(const topo::Topology& net,
                                 double server_fraction, double switch_fraction,
                                 double link_fraction, Rng& rng) {
  DCN_REQUIRE(server_fraction >= 0 && server_fraction <= 1,
              "server_fraction must be in [0,1]");
  DCN_REQUIRE(switch_fraction >= 0 && switch_fraction <= 1,
              "switch_fraction must be in [0,1]");
  DCN_REQUIRE(link_fraction >= 0 && link_fraction <= 1,
              "link_fraction must be in [0,1]");
  const graph::Graph& g = net.Network();
  graph::FailureSet failures{g};
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    const double p = g.IsServer(node) ? server_fraction : switch_fraction;
    if (rng.NextBernoulli(p)) failures.KillNode(node);
  }
  for (graph::EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
       ++edge) {
    if (rng.NextBernoulli(link_fraction)) failures.KillEdge(edge);
  }
  return failures;
}

std::vector<FaultEvent> SortedFaultEvents(const graph::Graph& graph,
                                          const FaultSchedule& schedule,
                                          int max_capacity) {
  const auto edge_count = static_cast<std::int64_t>(graph.EdgeCount());
  const auto node_count = static_cast<std::int64_t>(graph.NodeCount());
  for (const FaultEvent& event : schedule.events) {
    DCN_REQUIRE(event.time >= 0.0, "fault time must be >= 0");
    if (event.kind == FaultKind::kNodeDown) {
      DCN_REQUIRE(event.entity >= 0 && event.entity < node_count,
                  "fault node id out of range");
    } else {
      DCN_REQUIRE(event.entity >= 0 && event.entity < edge_count,
                  "fault edge id out of range");
    }
    if (event.kind == FaultKind::kLinkDegrade) {
      DCN_REQUIRE(event.capacity >= 0 && event.capacity <= max_capacity,
                  "degrade capacity outside [0, queue_capacity]");
    }
  }
  std::vector<FaultEvent> events = schedule.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

std::vector<DetectionOutcome> MatchDetections(
    const graph::Graph& graph, const FaultSchedule& schedule,
    const obs::monitor::MonitorResult& result) {
  using obs::monitor::AlertKind;
  using obs::monitor::EntityKind;
  std::vector<DetectionOutcome> outcomes;
  outcomes.reserve(schedule.events.size());
  for (const FaultEvent& fault : schedule.events) {
    const bool want_clear = fault.kind == FaultKind::kLinkRestore;
    const auto affected = [&](const obs::monitor::EntityInfo& entity) {
      if (fault.kind == FaultKind::kNodeDown) {
        if (entity.kind == EntityKind::kNode) {
          return entity.key == fault.entity;
        }
        const auto [u, v] =
            graph.Endpoints(static_cast<graph::EdgeId>(entity.key / 2));
        return u == fault.entity || v == fault.entity;
      }
      if (entity.kind == EntityKind::kLink) {
        return entity.key / 2 == fault.entity;
      }
      const auto [u, v] =
          graph.Endpoints(static_cast<graph::EdgeId>(fault.entity));
      return entity.key == u || entity.key == v;
    };
    DetectionOutcome outcome;
    outcome.fault = fault;
    for (const obs::monitor::Alert& alert : result.alerts) {
      if (alert.time < fault.time) continue;
      if ((alert.kind == AlertKind::kClear) != want_clear) continue;
      if (!affected(result.entities[alert.entity])) continue;
      outcome.detected = true;
      outcome.detect_time = alert.time;
      outcome.ttd = alert.time - fault.time;
      break;  // alerts are in window order: first match is earliest
    }
    outcomes.push_back(outcome);
  }
  return outcomes;
}

}  // namespace dcn::sim
