#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "digest.h"
#include "graph/components.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "routing/multipath.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/flowsim.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"
#include "topology/factory.h"
#include "topology/implicit.h"

namespace perfbench {
namespace {

using namespace dcn;

void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

std::string Fixed(double value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

void AddSketch(Digest& d, const obs::QuantileSketch& sketch) {
  d.Add(sketch.Count()).Add(sketch.ZeroCount()).Add(sketch.Min()).Add(sketch.Max());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) d.Add(sketch.Quantile(q));
}

// Conservation checks and digest of one packet run. The Space-Saving top-K
// views (hot_links, hot_switches, elephant_flows) stay out of the digest:
// they are approximate by design and due to be replaced by exact ones.
TaskOutcome CheckPacketRun(const sim::PacketSimResult& r, Tracer& tracer) {
  const auto step = tracer.Step("bench.check", "check packet run");
  Check(r.delivered + r.dropped == r.measured, "delivered + dropped != measured");
  Check(r.measured <= r.generated, "measured > generated");
  Check(r.latency.Count() == r.delivered, "latency samples != delivered");
  Check(r.telemetry.latency.Count() == r.delivered,
        "latency sketch count != delivered");
  Digest d;
  d.Add(r.generated).Add(r.measured).Add(r.delivered).Add(r.dropped);
  d.Add(r.latency.Count() == 0 ? 0.0 : r.latency.Mean());
  d.Add(r.max_link_utilization).Add(r.mean_link_utilization).Add(r.max_queue_depth);
  AddSketch(d, r.telemetry.latency);
  AddSketch(d, r.telemetry.slowdown);
  for (std::size_t level = 0; level < r.telemetry.links.LevelCount(); ++level) {
    for (const auto& [key, agg] : r.telemetry.links.Level(level)) {
      d.Add(key).Add(agg.leaves).Add(agg.total);
    }
  }
  const obs::monitor::MonitorResult& m = r.monitor;
  d.Add(m.enabled).Add(m.windows).Add(m.breach_windows);
  for (const obs::monitor::Alert& a : m.alerts) {
    d.Add(a.entity).Add(static_cast<int>(a.kind)).Add(a.signal).Add(a.window);
    d.Add(a.time).Add(a.value).Add(a.baseline_q).Add(a.cusum_q);
  }
  for (const std::uint32_t v : m.delivered_per_window) d.Add(v);
  for (const double v : m.latency_sum_per_window) d.Add(v);
  for (const std::uint64_t v : m.dropped_per_window) d.Add(v);
  return {d.Value(), r.generated, r.measured, r.delivered};
}

std::unique_ptr<topo::Abccc> BuildAbccc432(Tracer& tracer) {
  const auto call = tracer.Call("topology.build", "topo::Abccc");
  auto net = std::make_unique<topo::Abccc>(topo::AbcccParams{4, 3, 2});
  net->Network().Csr();
  return net;
}

std::vector<routing::Route> BuildNativeRoutes(const topo::Topology& net,
                                              const std::vector<sim::Flow>& flows,
                                              Tracer& tracer) {
  const auto call = tracer.Call("routing.routes", "sim::NativeRoutes");
  return sim::NativeRoutes(net, flows);
}

// ---------------------------------------------------------------------------
// packet-uniform: permutation traffic on ABCCC(4,3,2), native single path or
// spraying over the rotated level orders, loads from stable to saturated.
// No faults, no monitor.

class PacketUniform final : public Workload {
  enum class Policy { kNative, kSprayRoundRobin, kSprayRandom };
  static const char* PolicyName(Policy p) {
    return p == Policy::kNative ? "native"
           : p == Policy::kSprayRoundRobin ? "spray-rr" : "spray-random";
  }

 public:
  void Setup(std::uint64_t seed, Tracer& tracer) override {
    tasks_.clear();
    Rng rng{seed};
    net_ = BuildAbccc432(tracer);
    std::vector<sim::Flow> flows;
    {
      const auto call = tracer.Call("sim.traffic", "sim::PermutationTraffic");
      Rng traffic = rng.Fork();
      flows = sim::PermutationTraffic(*net_, traffic);
    }
    routes_ = BuildNativeRoutes(*net_, flows, tracer);
    {
      const auto call =
          tracer.Call("routing.routes", "routing::RotatedLevelOrderRoutes");
      candidates_.clear();
      candidates_.reserve(flows.size());
      for (const sim::Flow& f : flows) {
        candidates_.push_back(routing::RotatedLevelOrderRoutes(*net_, f.src, f.dst));
      }
    }
    route_count_ = routes_.size();
    for (const auto& set : candidates_) route_count_ += set.size();

    // F14's three policies at three loads. An odd task count keeps the
    // pooled task-time median inside one task's samples instead of on the
    // edge between two tasks.
    const std::uint64_t sim_seed = rng();
    for (const double load : {0.05, 0.125, 0.20}) {
      for (const Policy policy : {Policy::kNative, Policy::kSprayRoundRobin,
                                  Policy::kSprayRandom}) {
        tasks_.push_back(
            {std::string{PolicyName(policy)} + "/load=" + Fixed(load, 3), 1,
             [this, policy, load, sim_seed](std::size_t, Tracer& t) {
               sim::PacketSimConfig config;
               config.offered_load = load;
               config.duration = 600.0;
               config.warmup = 120.0;
               config.seed = sim_seed;
               const graph::Graph& g = net_->Network();
               sim::PacketSimResult result;
               if (policy == Policy::kNative) {
                 const auto call = t.Call("sim.packetsim", "sim::RunPacketSim");
                 result = sim::RunPacketSim(g, routes_, config);
               } else {
                 const auto call = t.Call("sim.packetsim", "sim::RunPacketSimMultipath");
                 result = sim::RunPacketSimMultipath(
                     g, candidates_, config,
                     policy == Policy::kSprayRoundRobin
                         ? sim::SprayPolicy::kRoundRobin
                         : sim::SprayPolicy::kRandomPerPacket);
               }
               return CheckPacketRun(result, t);
             }});
      }
    }
  }

  std::uint64_t RouteCount() const override { return route_count_; }

 private:
  std::unique_ptr<topo::Abccc> net_;
  std::vector<routing::Route> routes_;
  std::vector<std::vector<routing::Route>> candidates_;
  std::uint64_t route_count_ = 0;
};

// ---------------------------------------------------------------------------
// packet-hotspot-faulted: incast groups on a light permutation background,
// a mid-run degrade / link kill / switch kill, health monitor on.

// F24's fault targets, from the static per-directed-link route load: kill the
// busiest edge, then the busiest transmitting switch off that edge, and
// degrade the busiest edge disjoint from both.
sim::FaultSchedule SelectFaults(const graph::Graph& graph,
                                const std::vector<routing::Route>& routes) {
  std::vector<std::uint32_t> link_flows(2 * graph.EdgeCount(), 0);
  for (const routing::Route& route : routes) {
    for (const std::uint64_t link : routing::RouteDirectedLinks(graph, route)) {
      ++link_flows[link];
    }
  }
  const auto edge_flows = [&](graph::EdgeId e) {
    return std::max(link_flows[2 * e], link_flows[2 * e + 1]);
  };
  const auto edges = static_cast<graph::EdgeId>(graph.EdgeCount());
  graph::EdgeId kill_edge = 0;
  for (graph::EdgeId e = 1; e < edges; ++e) {
    if (edge_flows(e) > edge_flows(kill_edge)) kill_edge = e;
  }
  const auto [ku, kv] = graph.Endpoints(kill_edge);
  std::vector<std::uint64_t> node_tx(graph.NodeCount(), 0);
  for (std::uint64_t link = 0; link < link_flows.size(); ++link) {
    const auto [u, v] = graph.Endpoints(static_cast<graph::EdgeId>(link / 2));
    node_tx[link % 2 == 0 ? u : v] += link_flows[link];
  }
  graph::NodeId kill_switch = graph::kInvalidNode;
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(graph.NodeCount()); ++n) {
    if (!graph.IsSwitch(n) || n == ku || n == kv) continue;
    if (kill_switch == graph::kInvalidNode || node_tx[n] > node_tx[kill_switch]) {
      kill_switch = n;
    }
  }
  graph::EdgeId degrade_edge = graph::kInvalidEdge;
  for (graph::EdgeId e = 0; e < edges; ++e) {
    const auto [u, v] = graph.Endpoints(e);
    if (e == kill_edge || u == ku || u == kv || v == ku || v == kv ||
        u == kill_switch || v == kill_switch || edge_flows(e) == 0) {
      continue;
    }
    if (degrade_edge == graph::kInvalidEdge || edge_flows(e) > edge_flows(degrade_edge)) {
      degrade_edge = e;
    }
  }
  Check(kill_switch != graph::kInvalidNode && degrade_edge != graph::kInvalidEdge,
        "no fault targets");
  // Multiples of every monitor window width, so faults land on boundaries.
  sim::FaultSchedule schedule;
  schedule.DegradeLink(600.0, degrade_edge, 1)
      .KillLink(800.0, kill_edge)
      .KillNode(1000.0, kill_switch);
  return schedule;
}

class PacketHotspotFaulted final : public Workload {
 public:
  void Setup(std::uint64_t seed, Tracer& tracer) override {
    tasks_.clear();
    Rng rng{seed};
    net_ = BuildAbccc432(tracer);
    std::vector<sim::Flow> flows;
    {
      const auto call = tracer.Call(
          "sim.traffic", "sim::PermutationTraffic + sim::ManyToOneTraffic");
      Rng traffic = rng.Fork();
      flows = sim::PermutationTraffic(*net_, traffic);
      for (int group = 0; group < 8; ++group) {
        const std::vector<sim::Flow> incast = sim::ManyToOneTraffic(*net_, 24, traffic);
        flows.insert(flows.end(), incast.begin(), incast.end());
      }
    }
    routes_ = BuildNativeRoutes(*net_, flows, tracer);
    {
      const auto step = tracer.Step("sim.faults", "select fault targets");
      schedule_ = SelectFaults(net_->Network(), routes_);
    }

    const std::uint64_t sim_seed = rng();
    for (const double width : {20.0, 50.0, 100.0}) {
      for (const double load : {0.03, 0.05, 0.07}) {
        tasks_.push_back(
            {"window=" + Fixed(width, 0) + "/load=" + Fixed(load, 2), 1,
             [this, width, load, sim_seed](std::size_t, Tracer& t) {
               sim::PacketSimConfig config;
               config.offered_load = load;
               config.duration = 1600.0;
               config.warmup = 200.0;
               config.queue_capacity = 64;
               config.seed = sim_seed;
               config.faults = schedule_;
               config.monitor.enabled = true;
               config.monitor.window_width = width;
               const graph::Graph& g = net_->Network();
               sim::PacketSimResult result;
               std::vector<sim::DetectionOutcome> outcomes;
               {
                 const auto call = t.Call("sim.packetsim", "sim::RunPacketSim");
                 result = sim::RunPacketSim(g, routes_, config);
               }
               {
                 const auto call = t.Call("sim.faults", "sim::MatchDetections");
                 outcomes = sim::MatchDetections(g, schedule_, result.monitor);
               }
               TaskOutcome outcome = CheckPacketRun(result, t);
               const auto step = t.Step("bench.check", "check detections");
               Check(outcomes.size() == schedule_.events.size(),
                     "one detection outcome per fault");
               Digest d;
               d.Add(outcome.digest);
               for (const sim::DetectionOutcome& o : outcomes) {
                 d.Add(o.detected).Add(o.detect_time).Add(o.ttd);
               }
               outcome.digest = d.Value();
               return outcome;
             }});
      }
    }
  }

  std::uint64_t RouteCount() const override { return routes_.size(); }

 private:
  std::unique_ptr<topo::Abccc> net_;
  std::vector<routing::Route> routes_;
  sim::FaultSchedule schedule_;
};

// ---------------------------------------------------------------------------
// topology-analysis: the T2/F6/F18/S1-style comparison. Six queries on each
// ~1,000-server topology, then one symmetry-reduced sweep of a 3.1M-server
// implicit cube. Runs at one thread.

constexpr const char* kRoster[] = {
    "abccc:n=4,k=3,c=2", "abccc:n=4,k=3,c=3", "bcube:n=4,k=4",
    "dcell:n=5,k=2",     "ficonn:n=12,k=2",   "fattree:k=16",
};

// Fresh failure sets cycle over this many variants, one per pass.
constexpr std::size_t kFailureVariants = 4;

void AddCuts(Digest& d, const metrics::PairCutStats& stats) {
  for (const auto& [cut, pairs] : stats.cuts.Buckets()) d.Add(cut).Add(pairs);
  d.Add(stats.min_cut).Add(stats.mean_cut).Add(stats.pairs);
}

TaskOutcome CheckExactPaths(const metrics::ExactPathStats& s,
                            std::uint64_t servers, Tracer& tracer) {
  const auto step = tracer.Step("bench.check", "check exact paths");
  std::uint64_t counted = 0;
  for (const std::uint64_t pairs : s.pairs_at_distance) counted += pairs;
  Check(counted == s.pairs, "distance histogram does not sum to the pair count");
  Check(s.pairs_at_distance.empty() || s.pairs_at_distance[0] == 0,
        "pairs at distance 0");
  Check(!s.connected || s.pairs == servers * (servers - 1),
        "connected network misses ordered pairs");
  Digest d;
  d.Add(s.diameter).Add(s.radius).Add(s.average).Add(s.pairs).Add(s.connected);
  for (const std::uint64_t pairs : s.pairs_at_distance) d.Add(pairs);
  return {d.Value()};
}

class TopologyAnalysis final : public Workload {
 public:
  void Setup(std::uint64_t seed, Tracer& tracer) override {
    tasks_.clear();
    nets_.clear();
    route_count_ = 0;
    Rng rng{seed};
    for (const char* spec : kRoster) {
      Net net;
      {
        const auto call = tracer.Call("topology.build", "topo::MakeTopology");
        net.topology = topo::MakeTopology(spec);
        net.topology->Network().Csr();
      }
      std::vector<sim::Flow> flows;
      {
        const auto call = tracer.Call("sim.traffic", "sim::PermutationTraffic");
        Rng traffic = rng.Fork();
        flows = sim::PermutationTraffic(*net.topology, traffic);
      }
      net.routes = BuildNativeRoutes(*net.topology, flows, tracer);
      route_count_ += net.routes.size();
      nets_.push_back(std::move(net));
    }
    {
      const auto call = tracer.Call("topology.build", "topo::ImplicitCube::MakeAbccc");
      cube_ = std::make_unique<topo::ImplicitCube>(topo::ImplicitCube::MakeAbccc(16, 4, 3));
    }
    for (const Net& net : nets_) AddQueries(net, rng.Fork());
    tasks_.push_back({"symmetry_paths/" + cube_->Describe(), 1,
                      [this](std::size_t, Tracer& t) {
                        metrics::ExactPathStats stats;
                        {
                          const auto call = t.Call("metrics.symmetry_paths",
                                                   "metrics::SymmetryReducedPathStats");
                          stats = metrics::SymmetryReducedPathStats(*cube_);
                        }
                        return CheckExactPaths(stats, cube_->ServerCount(), t);
                      }});
  }

  std::uint64_t RouteCount() const override { return route_count_; }

 private:
  struct Net {
    std::unique_ptr<topo::Topology> topology;
    std::vector<routing::Route> routes;
  };

  void AddQueries(const Net& net, Rng stream) {
    const topo::Topology& topology = *net.topology;
    const std::vector<routing::Route>& routes = net.routes;
    const std::string name = topology.Describe();
    const Rng failures_rng = stream.Fork();
    const Rng pairs_rng = stream.Fork();
    const Rng blast_rng = stream.Fork();

    tasks_.push_back(
        {"all_pairs_cuts/" + name, kFailureVariants,
         [&topology, failures_rng](std::size_t variant, Tracer& t) {
           graph::FailureSet failures;
           {
             const auto call = t.Call("sim.faults", "sim::RandomFailures");
             Rng r = failures_rng.Fork(variant);
             failures = sim::RandomFailures(topology, 0.01, 0.01, 0.01, r);
           }
           metrics::PairCutStats stats;
           {
             const auto call = t.Call("metrics.all_pairs_cuts", "metrics::AllPairsCutStats");
             stats = metrics::AllPairsCutStats(topology, &failures);
           }
           const auto step = t.Step("bench.check", "check all-pairs cuts");
           const auto servers = static_cast<std::int64_t>(topology.ServerCount());
           Check(stats.cuts.Count() == servers * (servers - 1) / 2 &&
                     stats.pairs == stats.cuts.Count(),
                 "cut histogram does not cover every server pair");
           // Pairs with a positive cut are exactly the alive pairs that
           // share a component.
           graph::ComponentSet components;
           graph::LabelComponents(topology.Network().Csr(), &failures, components);
           std::vector<std::int64_t> alive(components.count, 0);
           for (const graph::NodeId s : topology.Servers()) {
             const std::int32_t c = components.ComponentOf(s);
             if (c >= 0) ++alive[static_cast<std::size_t>(c)];
           }
           std::int64_t connected = 0;
           for (const std::int64_t a : alive) connected += a * (a - 1) / 2;
           std::int64_t positive = 0;
           for (const auto& [cut, pairs] : stats.cuts.Buckets()) {
             if (cut > 0) positive += pairs;
           }
           Check(positive == connected,
                 "positive-cut pairs != connected alive-server pairs");
           Digest d;
           d.Add(failures.DeadNodeCount()).Add(failures.DeadEdgeCount());
           AddCuts(d, stats);
           return TaskOutcome{d.Value()};
         }});

    tasks_.push_back(
        {"sampled_pair_cuts/" + name, 1,
         [&topology, pairs_rng](std::size_t, Tracer& t) {
           constexpr std::int64_t kPairs = 2000;
           metrics::PairCutStats stats;
           {
             const auto call =
                 t.Call("metrics.sampled_pair_cuts", "metrics::SampledPairCuts");
             Rng r = pairs_rng;
             stats = metrics::SampledPairCuts(topology, kPairs, r);
           }
           const auto step = t.Step("bench.check", "check sampled cuts");
           Check(stats.pairs == kPairs && stats.cuts.Count() == kPairs,
                 "sampled cut count != pairs drawn");
           Check(stats.min_cut >= 1, "a sampled pair of an intact network is cut");
           Digest d;
           AddCuts(d, stats);
           return TaskOutcome{d.Value()};
         }});

    tasks_.push_back(
        {"blast_radius/" + name, 1,
         [&topology, blast_rng](std::size_t, Tracer& t) {
           double worst = 0.0;
           {
             const auto call = t.Call("metrics.blast_radius",
                                      "metrics::WorstSingleSwitchDisconnection");
             Rng r = blast_rng;
             worst = metrics::WorstSingleSwitchDisconnection(topology, 10000, 64, r);
           }
           const auto step = t.Step("bench.check", "check blast radius");
           Check(worst >= 0.0 && worst <= 1.0, "disconnection fraction outside [0, 1]");
           Digest d;
           d.Add(worst);
           return TaskOutcome{d.Value()};
         }});

    tasks_.push_back(
        {"exact_paths/" + name, 1, [&topology](std::size_t, Tracer& t) {
           metrics::ExactPathStats stats;
           {
             const auto call =
                 t.Call("metrics.exact_paths", "metrics::ExactServerPathStats");
             stats = metrics::ExactServerPathStats(topology);
           }
           return CheckExactPaths(stats, topology.ServerCount(), t);
         }});

    tasks_.push_back(
        {"bisection/" + name, 1, [&topology](std::size_t, Tracer& t) {
           std::int64_t cut = 0;
           {
             const auto call = t.Call("metrics.bisection", "metrics::MeasureBisection");
             cut = metrics::MeasureBisection(topology);
           }
           const auto step = t.Step("bench.check", "check bisection");
           Check(cut > 0 && cut <= static_cast<std::int64_t>(topology.LinkCount()),
                 "bisection cut outside (0, links]");
           Digest d;
           d.Add(cut);
           return TaskOutcome{d.Value()};
         }});

    tasks_.push_back(
        {"maxmin/" + name, 1, [&topology, &routes](std::size_t, Tracer& t) {
           sim::FlowSimResult result;
           {
             const auto call = t.Call("sim.flowsim", "sim::MaxMinFairRates");
             result = sim::MaxMinFairRates(topology.Network(), routes);
           }
           const auto step = t.Step("bench.check", "check max-min rates");
           Check(result.rates.size() == routes.size(), "one rate per route");
           const graph::Graph& g = topology.Network();
           std::vector<double> load(2 * g.EdgeCount(), 0.0);
           for (std::size_t f = 0; f < routes.size(); ++f) {
             Check(result.rates[f] >= 0.0, "negative rate");
             for (const std::uint64_t link : routing::RouteDirectedLinks(g, routes[f])) {
               load[link] += result.rates[f];
             }
           }
           for (const double l : load) Check(l <= 1.0 + 1e-9, "link over capacity");
           Digest d;
           d.Add(result.aggregate).Add(result.min_rate).Add(result.max_rate);
           d.Add(result.mean_rate).Add(result.abt).Add(result.jain_fairness);
           for (const double rate : result.rates) d.Add(rate);
           return TaskOutcome{d.Value()};
         }});
  }

  std::vector<Net> nets_;
  std::unique_ptr<topo::ImplicitCube> cube_;
  std::uint64_t route_count_ = 0;
};

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"packet-uniform", true, [] { return std::make_unique<PacketUniform>(); }},
      {"packet-hotspot-faulted", true,
       [] { return std::make_unique<PacketHotspotFaulted>(); }},
      {"topology-analysis", false,
       [] { return std::make_unique<TopologyAnalysis>(); }},
  };
  return kWorkloads;
}

const WorkloadInfo& FindWorkload(std::string_view name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string{name} + "'");
}

}  // namespace perfbench
