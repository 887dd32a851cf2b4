#include "sim/run_harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "graph/csr.h"

namespace dcn::sim {

namespace {

int CheckedCapacity(double duration, double warmup, int queue_capacity) {
  CheckRunConfig(duration, warmup, queue_capacity);
  return queue_capacity;
}

// Flight-recorder lane names: directed link -> "u->v".
std::function<std::string(std::uint64_t)> LaneNamer(const graph::CsrView& csr) {
  return [&csr](std::uint64_t link) {
    const auto [u, v] = csr.Endpoints(static_cast<graph::EdgeId>(link / 2));
    return link % 2 == 0 ? std::to_string(u) + "->" + std::to_string(v)
                         : std::to_string(v) + "->" + std::to_string(u);
  };
}

graph::NodeId Transmitter(const graph::Graph& graph, std::size_t link) {
  const auto [u, v] = graph.Endpoints(static_cast<graph::EdgeId>(link / 2));
  return link % 2 == 0 ? u : v;
}

}  // namespace

void CheckRunConfig(double duration, double warmup, int queue_capacity) {
  DCN_REQUIRE(duration > warmup && warmup >= 0, "need 0 <= warmup < duration");
  DCN_REQUIRE(queue_capacity >= 1, "queue capacity must be >= 1");
}

RunHarness::RunHarness(std::string_view sim, const graph::Graph& graph,
                       double duration, double warmup, int queue_capacity,
                       const FaultSchedule& faults,
                       const obs::monitor::MonitorConfig& monitor)
    : queue_capacity_(CheckedCapacity(duration, warmup, queue_capacity)),
      sim_(sim),
      duration_(duration),
      link_count_(graph.EdgeCount() * 2),
      graph_(graph),
      links_(link_count_, queue_capacity),
      faults_scheduled_(faults.events.size()),
      flight_(sim, duration, link_count_, LaneNamer(graph.Csr())) {
  if (!faults.Empty()) {
    // Expand every event into per-directed-link capacity changes, then
    // bucket them by link with a stable counting sort: each link's changes
    // stay in (time, schedule) order, so the per-link cursor applies them
    // exactly as one global time-ordered cursor would.
    struct Change {
      std::uint64_t link;
      CapChange change;
    };
    std::vector<Change> changes;
    const auto push_edge = [&](graph::EdgeId edge, const FaultEvent& event,
                               std::int32_t capacity) {
      const auto link = static_cast<std::uint64_t>(2 * edge);
      changes.push_back({link, {event.time, capacity}});
      changes.push_back({link + 1, {event.time, capacity}});
    };
    for (const FaultEvent& event :
         SortedFaultEvents(graph, faults, queue_capacity)) {
      if (event.kind == FaultKind::kNodeDown) {
        for (const graph::HalfEdge& half :
             graph.Neighbors(static_cast<graph::NodeId>(event.entity))) {
          push_edge(half.edge, event, 0);
        }
        continue;
      }
      push_edge(static_cast<graph::EdgeId>(event.entity), event,
                event.kind == FaultKind::kLinkRestore   ? queue_capacity
                : event.kind == FaultKind::kLinkDegrade ? event.capacity
                                                        : 0);
    }
    fault_first_.assign(link_count_ + 1, 0);
    for (const Change& c : changes) ++fault_first_[c.link + 1];
    for (std::size_t link = 0; link < link_count_; ++link) {
      fault_first_[link + 1] += fault_first_[link];
    }
    fault_next_.assign(fault_first_.begin(), fault_first_.end() - 1);
    fault_ops_.resize(changes.size());
    for (const Change& c : changes) fault_ops_[fault_next_[c.link]++] = c.change;
    fault_next_.assign(fault_first_.begin(), fault_first_.end() - 1);
    fault_cap_.assign(link_count_, queue_capacity);
  }

  if (!monitor.enabled) return;
  width_ = monitor.window_width;
  window_count_ =
      static_cast<std::uint32_t>(std::ceil(duration / monitor.window_width));
  monitor_ = std::make_unique<obs::monitor::HealthMonitor>(monitor);
  for (std::size_t link = 0; link < link_count_; ++link) {
    monitor_->AddEntity(obs::monitor::EntityKind::kLink,
                        static_cast<std::int64_t>(link));
  }
  std::vector<std::uint32_t> switch_entity(graph.NodeCount(), ~0u);
  for (graph::NodeId node = 0;
       static_cast<std::size_t>(node) < graph.NodeCount(); ++node) {
    if (!graph.IsSwitch(node)) continue;
    switch_entity[node] =
        monitor_->AddEntity(obs::monitor::EntityKind::kNode, node);
  }
  monitor_->AddSignal("tx", obs::monitor::SignalDirection::kDrop);
  monitor_->AddSignal("drops", obs::monitor::SignalDirection::kSpike);
  monitor_->Seal(window_count_);
  tail_switch_.resize(link_count_);
  for (std::size_t link = 0; link < link_count_; ++link) {
    tail_switch_[link] = switch_entity[Transmitter(graph, link)];
  }
  tx_.assign(static_cast<std::size_t>(window_count_) * link_count_, 0);
  drop_.assign(tx_.size(), 0);
  values_.assign(2, std::vector<std::int64_t>(monitor_->EntityCount(), 0));
}

void RunHarness::Publish(const obs::monitor::MonitorResult& result) const {
  if (monitor_ != nullptr) {
    obs::monitor::PublishRun(sim_, faults_scheduled_, result);
  }
}

void RunHarness::StepWindows(double time) {
  const std::uint32_t safe =
      time == std::numeric_limits<double>::infinity()
          ? window_count_
          : std::min(window_count_, obs::monitor::WindowOf(time, width_));
  while (monitor_->WindowsStepped() < safe) {
    const std::uint32_t window = monitor_->WindowsStepped();
    const std::uint32_t* tx = tx_.data() + window * link_count_;
    const std::uint32_t* drop = drop_.data() + window * link_count_;
    std::fill(values_[0].begin(), values_[0].end(), 0);
    std::fill(values_[1].begin(), values_[1].end(), 0);
    std::uint64_t drops = 0;
    for (std::size_t link = 0; link < link_count_; ++link) {
      values_[0][link] = tx[link];
      values_[1][link] = drop[link];
      drops += drop[link];
      const std::uint32_t entity = tail_switch_[link];
      if (entity != ~0u) {
        values_[0][entity] += tx[link];
        values_[1][entity] += drop[link];
      }
    }
    monitor_->AddDrops(window, drops);
    monitor_->StepWindow(values_);
  }
}

RunTotals RunHarness::Finish() {
  RunTotals totals;
  double utilization_sum = 0.0;
  std::size_t busy_links = 0;
  for (std::size_t link = 0; link < link_count_; ++link) {
    const std::uint64_t tx = links_.Transmitted(link);
    totals.transmitted += tx;
    if (tx == 0) continue;
    const double utilization =
        static_cast<double>(tx) * kServiceTime / duration_;
    totals.max_link_utilization =
        std::max(totals.max_link_utilization, utilization);
    utilization_sum += utilization;
    ++busy_links;
    const graph::NodeId tail = Transmitter(graph_, link);
    const std::array<std::int64_t, 4> groups{static_cast<std::int64_t>(link),
                                             static_cast<std::int64_t>(tail),
                                             graph_.IsSwitch(tail) ? 1 : 0, 0};
    totals.links.Add(groups, static_cast<std::int64_t>(tx));
  }
  totals.mean_link_utilization =
      busy_links == 0 ? 0.0
                      : utilization_sum / static_cast<double>(busy_links);
  if (monitor_ != nullptr) {
    StepWindows(std::numeric_limits<double>::infinity());
    totals.monitor = monitor_->TakeResult();
  }
  return totals;
}

}  // namespace dcn::sim
