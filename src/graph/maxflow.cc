#include "graph/maxflow.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/obs.h"

namespace dcn::graph {

namespace {
constexpr std::int64_t kInfinity = std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

MaxFlowSolver::MaxFlowSolver(const Graph& graph, std::int64_t edge_capacity,
                             const FailureSet* failures)
    : edge_capacity_(edge_capacity) {
  DCN_REQUIRE(edge_capacity > 0, "edge capacity must be positive");
  base_node_count_ = graph.NodeCount();
  live_edges_.reserve(graph.EdgeCount());
  for (EdgeId edge = 0; static_cast<std::size_t>(edge) < graph.EdgeCount();
       ++edge) {
    if (failures != nullptr && failures->EdgeDead(edge)) continue;
    const auto [u, v] = graph.Endpoints(edge);
    if (failures != nullptr && (failures->NodeDead(u) || failures->NodeDead(v))) {
      continue;
    }
    live_edges_.emplace_back(u, v);
  }
}

void MaxFlowSolver::AddArcPair(std::int32_t from, std::int32_t to,
                               std::int64_t cap) {
  const std::int32_t fwd = cursor_[static_cast<std::size_t>(from)]++;
  const std::int32_t res = cursor_[static_cast<std::size_t>(to)]++;
  to_[static_cast<std::size_t>(fwd)] = to;
  rev_[static_cast<std::size_t>(fwd)] = res;
  cap_[static_cast<std::size_t>(fwd)] = cap;
  to_[static_cast<std::size_t>(res)] = from;
  rev_[static_cast<std::size_t>(res)] = fwd;
  cap_[static_cast<std::size_t>(res)] = 0;
}

bool MaxFlowSolver::BuildLevels(std::int32_t s, std::int32_t t) {
  level_.assign(offset_.size() - 1, -1);
  queue_.clear();
  level_[static_cast<std::size_t>(s)] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t node = queue_[head];
    for (std::int32_t a = offset_[static_cast<std::size_t>(node)];
         a < offset_[static_cast<std::size_t>(node) + 1]; ++a) {
      const std::int32_t next = to_[static_cast<std::size_t>(a)];
      if (cap_[static_cast<std::size_t>(a)] > 0 &&
          level_[static_cast<std::size_t>(next)] < 0) {
        level_[static_cast<std::size_t>(next)] =
            level_[static_cast<std::size_t>(node)] + 1;
        queue_.push_back(next);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] >= 0;
}

std::int64_t MaxFlowSolver::Augment(std::int32_t node, std::int32_t t,
                                    std::int64_t limit) {
  if (node == t) return limit;
  for (std::int32_t& i = iter_[static_cast<std::size_t>(node)];
       i < offset_[static_cast<std::size_t>(node) + 1]; ++i) {
    const auto a = static_cast<std::size_t>(i);
    const std::int32_t next = to_[a];
    if (cap_[a] <= 0 || level_[static_cast<std::size_t>(next)] !=
                            level_[static_cast<std::size_t>(node)] + 1) {
      continue;
    }
    const std::int64_t pushed = Augment(next, t, std::min(limit, cap_[a]));
    if (pushed > 0) {
      cap_[a] -= pushed;
      cap_[static_cast<std::size_t>(rev_[a])] += pushed;
      return pushed;
    }
  }
  return 0;
}

std::int64_t MaxFlowSolver::Solve(std::span<const NodeId> sources,
                                  std::span<const NodeId> sinks) {
  DCN_REQUIRE(!sources.empty() && !sinks.empty(),
              "max flow needs non-empty source and sink sets");
  DCN_REQUIRE(!solved_,
              "MaxFlowSolver is single-shot: the arc capacities still hold "
              "the previous residual network");
  solved_ = true;

  const std::size_t nodes = base_node_count_ + 2;
  const auto s = static_cast<std::int32_t>(base_node_count_);
  const auto t = static_cast<std::int32_t>(base_node_count_ + 1);

  std::vector<bool> is_sink(nodes, false);
  for (NodeId sink : sinks) {
    DCN_REQUIRE(sink >= 0 && static_cast<std::size_t>(sink) < base_node_count_,
                "sink node out of range");
    is_sink[static_cast<std::size_t>(sink)] = true;
  }
  for (NodeId source : sources) {
    DCN_REQUIRE(source >= 0 && static_cast<std::size_t>(source) < base_node_count_,
                "source node out of range");
    DCN_REQUIRE(!is_sink[static_cast<std::size_t>(source)],
                "source and sink sets must be disjoint");
  }

  // Size the flat arc arrays: each live edge contributes two arcs to each
  // endpoint (one direction + its residual twin), each attachment one arc to
  // each of its endpoints.
  offset_.assign(nodes + 1, 0);
  for (const auto& [u, v] : live_edges_) {
    offset_[static_cast<std::size_t>(u) + 1] += 2;
    offset_[static_cast<std::size_t>(v) + 1] += 2;
  }
  offset_[static_cast<std::size_t>(s) + 1] +=
      static_cast<std::int32_t>(sources.size());
  offset_[static_cast<std::size_t>(t) + 1] +=
      static_cast<std::int32_t>(sinks.size());
  for (const NodeId source : sources) {
    offset_[static_cast<std::size_t>(source) + 1] += 1;
  }
  for (const NodeId sink : sinks) {
    offset_[static_cast<std::size_t>(sink) + 1] += 1;
  }
  for (std::size_t node = 0; node < nodes; ++node) {
    offset_[node + 1] += offset_[node];
  }
  const auto arcs = static_cast<std::size_t>(offset_[nodes]);
  cursor_.assign(offset_.begin(), offset_.end() - 1);
  to_.resize(arcs);
  rev_.resize(arcs);
  cap_.resize(arcs);
  for (const auto& [u, v] : live_edges_) {
    // Undirected edge: one arc each way, each with an explicit residual twin.
    AddArcPair(u, v, edge_capacity_);
    AddArcPair(v, u, edge_capacity_);
  }
  // Source/sink attachment arcs are effectively infinite, so the answer is
  // the min link cut.
  for (const NodeId source : sources) {
    AddArcPair(s, static_cast<std::int32_t>(source), kInfinity);
  }
  for (const NodeId sink : sinks) {
    AddArcPair(static_cast<std::int32_t>(sink), t, kInfinity);
  }

  std::int64_t flow = 0;
  std::uint64_t obs_phases = 0;
  std::uint64_t obs_paths = 0;
  {
    OBS_SPAN("dinic/solve");
    while (BuildLevels(s, t)) {
      ++obs_phases;
      iter_.assign(offset_.begin(), offset_.end() - 1);
      while (true) {
        const std::int64_t pushed = Augment(s, t, kInfinity);
        if (pushed == 0) break;
        ++obs_paths;
        flow += pushed;
      }
    }
  }
  // Phase and augmenting-path counts are exact properties of the instance —
  // the observables that explain why one cut is slower than another.
  static obs::Counter& c_solves = obs::GetCounter("dinic/solves");
  static obs::Counter& c_phases = obs::GetCounter("dinic/phases");
  static obs::Counter& c_paths = obs::GetCounter("dinic/augmenting_paths");
  static obs::Histogram& h_phases = obs::GetHistogram("dinic/phases_per_solve");
  c_solves.Add(1);
  c_phases.Add(obs_phases);
  c_paths.Add(obs_paths);
  h_phases.Add(static_cast<std::int64_t>(obs_phases));
  return flow;
}

std::int64_t MinCutBetween(const Graph& graph, std::span<const NodeId> side_a,
                           std::span<const NodeId> side_b,
                           std::int64_t edge_capacity, const FailureSet* failures) {
  MaxFlowSolver solver{graph, edge_capacity, failures};
  return solver.Solve(side_a, side_b);
}

}  // namespace dcn::graph
