// M1 — engineering micro-benchmarks: construction, routing, BFS, and
// max-flow costs. These are the operations a topology-management plane runs
// continuously, so their constants matter.
//
// Two modes:
//  * default: the google-benchmark suite below (exploratory, human-read);
//  * --json:  a fixed kernel set at pinned seeds/sizes on 1 thread, printed
//             as a JSON array (one object per line, awk-friendly). Each
//             kernel that has a pre-CSR baseline re-runs that legacy
//             implementation in the same process, so the reported `speedup`
//             compares the flat CSR + workspace hot paths against the
//             adjacency-list + fresh-allocation code they replaced, on the
//             same machine and build. scripts/bench_json.sh captures this
//             output into BENCH_core.json; scripts/check.sh --bench diffs a
//             fresh run against the committed file.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench_reference.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/cuttree.h"
#include "graph/paths.h"
#include "metrics/bisection.h"
#include "metrics/resilience.h"
#include "metrics/path_metrics.h"
#include "routing/abccc_routing.h"
#include "routing/broadcast.h"
#include "routing/route.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace {

using dcn::Rng;
using dcn::topo::Abccc;
using dcn::topo::AbcccParams;

void BM_AbcccConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Abccc net{AbcccParams{4, k, 2}};
    benchmark::DoNotOptimize(net.ServerCount());
  }
  state.counters["servers"] =
      static_cast<double>(AbcccParams{4, k, 2}.ServerTotal());
}
BENCHMARK(BM_AbcccConstruction)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_BcubeConstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    dcn::topo::Bcube net{dcn::topo::BcubeParams{4, k}};
    benchmark::DoNotOptimize(net.ServerCount());
  }
}
BENCHMARK(BM_BcubeConstruction)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_AbcccRoute(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  Rng rng{1};
  const auto servers = net.Servers();
  for (auto _ : state) {
    const auto src = servers[rng.NextUint64(servers.size())];
    const auto dst = servers[rng.NextUint64(servers.size())];
    benchmark::DoNotOptimize(dcn::routing::AbcccRoute(net, src, dst));
  }
}
BENCHMARK(BM_AbcccRoute)->Arg(2)->Arg(3)->Arg(4);

void BM_BfsSweep(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::graph::BfsDistances(net.Network(), 0));
  }
}
BENCHMARK(BM_BfsSweep)->Arg(2)->Arg(3);

void BM_Bisection(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::metrics::MeasureBisection(net));
  }
}
BENCHMARK(BM_Bisection)->Arg(1)->Arg(2);

void BM_BroadcastTree(benchmark::State& state) {
  const Abccc net{AbcccParams{4, static_cast<int>(state.range(0)), 2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn::routing::AbcccBroadcastTree(net, 0));
  }
}
BENCHMARK(BM_BroadcastTree)->Arg(2)->Arg(3);

// ---------------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------------

namespace json_mode {

using dcn::graph::EdgeId;
using dcn::graph::FailureSet;
using dcn::graph::Graph;
using dcn::graph::HalfEdge;
using dcn::graph::kUnreachable;
using dcn::graph::NodeId;

using Clock = std::chrono::steady_clock;

// Best-of-repeats wall time of one call, in nanoseconds.
template <typename Fn>
double BestNs(int repeats, Fn&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    const auto ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    best = std::min(best, ns);
  }
  return best;
}

// The adjacency-list BFS the hot paths ran before the CSR refactor: fresh
// O(V) distance vector per call, vector-of-vectors neighbor walk.
std::vector<int> LegacyBfs(const Graph& g, NodeId src) {
  std::vector<int> dist(g.NodeCount(), kUnreachable);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop_front();
    for (const HalfEdge& half : g.Neighbors(node)) {
      if (dist[static_cast<std::size_t>(half.to)] != kUnreachable) continue;
      dist[static_cast<std::size_t>(half.to)] =
          dist[static_cast<std::size_t>(node)] + 1;
      queue.push_back(half.to);
    }
  }
  return dist;
}

// The pre-CSR unit-capacity Dinic: per-node arc vectors allocated per solve.
class LegacyUnitFlow {
 public:
  explicit LegacyUnitFlow(const Graph& g) : arcs_(g.NodeCount()) {
    for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
         ++edge) {
      const auto [u, v] = g.Endpoints(edge);
      AddArcPair(u, v);
      AddArcPair(v, u);
    }
  }

  std::size_t Run(NodeId src, NodeId dst) {
    std::size_t flow = 0;
    while (BuildLevels(src, dst)) {
      iter_.assign(arcs_.size(), 0);
      while (Augment(src, dst)) ++flow;
    }
    return flow;
  }

 private:
  struct Arc {
    NodeId to;
    std::int32_t rev;
    std::int8_t cap;
  };

  void AddArcPair(NodeId from, NodeId to) {
    arcs_[static_cast<std::size_t>(from)].push_back(
        Arc{to, static_cast<std::int32_t>(arcs_[static_cast<std::size_t>(to)].size()), 1});
    arcs_[static_cast<std::size_t>(to)].push_back(
        Arc{from,
            static_cast<std::int32_t>(arcs_[static_cast<std::size_t>(from)].size() - 1),
            0});
  }

  bool BuildLevels(NodeId src, NodeId dst) {
    level_.assign(arcs_.size(), -1);
    std::deque<NodeId> queue{src};
    level_[static_cast<std::size_t>(src)] = 0;
    while (!queue.empty()) {
      const NodeId node = queue.front();
      queue.pop_front();
      for (const Arc& arc : arcs_[static_cast<std::size_t>(node)]) {
        if (arc.cap > 0 && level_[static_cast<std::size_t>(arc.to)] < 0) {
          level_[static_cast<std::size_t>(arc.to)] =
              level_[static_cast<std::size_t>(node)] + 1;
          queue.push_back(arc.to);
        }
      }
    }
    return level_[static_cast<std::size_t>(dst)] >= 0;
  }

  bool Augment(NodeId node, NodeId dst) {
    if (node == dst) return true;
    for (std::size_t& i = iter_[static_cast<std::size_t>(node)];
         i < arcs_[static_cast<std::size_t>(node)].size(); ++i) {
      Arc& arc = arcs_[static_cast<std::size_t>(node)][i];
      if (arc.cap <= 0 || level_[static_cast<std::size_t>(arc.to)] !=
                              level_[static_cast<std::size_t>(node)] + 1) {
        continue;
      }
      if (Augment(arc.to, dst)) {
        arc.cap -= 1;
        arcs_[static_cast<std::size_t>(arc.to)][static_cast<std::size_t>(arc.rev)]
            .cap += 1;
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<Arc>> arcs_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

struct Entry {
  explicit Entry(std::string n) : name(std::move(n)) {}

  std::string name;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;  // 0 = no legacy baseline for this kernel
  // Selected obs counter readouts (work per op, not time), taken from a
  // dedicated post-timing run so the measured loops stay untouched. These are
  // deterministic, so BENCH_core.json diffs catch workload drift — a kernel
  // whose ns/op "improved" because it does less work is not a speedup.
  std::vector<std::pair<std::string, double>> obs;
};

int RunJson() {
  constexpr int kRepeats = 7;
  dcn::SetThreadCount(1);  // single-thread: measure the kernels, not the pool

  // The pinned instance from the acceptance bar: ABCCC(n=4, k=3, c=2).
  const Abccc net{AbcccParams{4, 3, 2}};
  const Graph& g = net.Network();
  g.Csr();  // build the snapshot up front; kernels measure traversal, not setup
  const auto servers = net.Servers();

  std::vector<Entry> entries;

  // 1. Single-source BFS over the full graph: the CSR + workspace form the
  //    metrics actually run in their inner loops (the Graph-returning wrapper
  //    additionally materializes a distance vector for compatibility callers
  //    and is not the hot path).
  {
    Entry e{"bfs_sweep_abccc_n4_k3_c2"};
    e.ns_per_op = BestNs(kRepeats, [&] {
      dcn::graph::TraversalScope ws;
      benchmark::DoNotOptimize(dcn::graph::BfsDistances(g.Csr(), 0, *ws));
    });
    e.baseline_ns_per_op =
        BestNs(kRepeats, [&] { benchmark::DoNotOptimize(LegacyBfs(g, 0)); });
    entries.push_back(e);
  }

  // 2. The headline: exact server-pair path stats (all-pairs BFS sweep).
  {
    Entry e{"aspl_exact_sweep_abccc_n4_k3_c2"};
    e.ns_per_op = BestNs(kRepeats, [&] {
      benchmark::DoNotOptimize(dcn::metrics::ExactServerPathStats(net));
    });
    // Legacy: the same serial accumulation the metric used to run, with a
    // fresh distance vector per source.
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      int diameter = 0;
      double total = 0.0;
      std::uint64_t pairs = 0;
      for (const NodeId src : servers) {
        const std::vector<int> dist = LegacyBfs(g, src);
        for (const NodeId dst : servers) {
          if (dst == src) continue;
          diameter = std::max(diameter, dist[static_cast<std::size_t>(dst)]);
          total += dist[static_cast<std::size_t>(dst)];
          ++pairs;
        }
      }
      benchmark::DoNotOptimize(total / static_cast<double>(pairs) + diameter);
    });
    dcn::obs::Reset();
    benchmark::DoNotOptimize(dcn::metrics::ExactServerPathStats(net));
    const auto bu = static_cast<double>(
        dcn::obs::CounterValue("msbfs/levels_bottom_up"));
    const auto td = static_cast<double>(
        dcn::obs::CounterValue("msbfs/levels_top_down"));
    e.obs.emplace_back("msbfs_bottom_up_level_fraction", bu / (bu + td));
    entries.push_back(e);
  }

  // 3. Unit-capacity Dinic cut between far-apart servers.
  {
    Entry e{"dinic_cut_abccc_n4_k3_c2"};
    const NodeId src = servers.front();
    const NodeId dst = servers.back();
    std::size_t cut_new = 0, cut_old = 0;
    e.ns_per_op = BestNs(kRepeats, [&] {
      cut_new = dcn::graph::EdgeConnectivity(g, src, dst);
      benchmark::DoNotOptimize(cut_new);
    });
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      LegacyUnitFlow flow{g};
      cut_old = flow.Run(src, dst);
      benchmark::DoNotOptimize(cut_old);
    });
    if (cut_new != cut_old) {
      std::fprintf(stderr, "dinic baseline mismatch: %zu vs %zu\n", cut_new,
                   cut_old);
      return 1;
    }
    entries.push_back(e);
  }

  // 4. Sampled pair cuts: the source-shared batch Dinic (one arc build per
  //    source group, cached first-phase levels, truncated level BFS) against
  //    the retained per-pair kernel it replaced. Same Fork(i) draws, so the
  //    stats must agree exactly — a digest mismatch fails the run.
  {
    Entry e{"pair_cuts_abccc_n4_k3_c2"};
    constexpr std::size_t kPairs = 64;
    dcn::metrics::PairCutStats batched, reference;
    e.ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      batched = dcn::metrics::SampledPairCuts(net, kPairs, rng);
      benchmark::DoNotOptimize(batched);
    });
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      reference = dcn::bench::ReferenceSampledPairCuts(net, kPairs, rng);
      benchmark::DoNotOptimize(reference);
    });
    if (batched.mean_cut != reference.mean_cut ||
        batched.min_cut != reference.min_cut ||
        batched.pairs != reference.pairs) {
      std::fprintf(stderr, "pair-cuts batch baseline mismatch\n");
      return 1;
    }
    dcn::obs::Reset();
    Rng rng{dcn::bench::kDefaultSeed};
    benchmark::DoNotOptimize(dcn::metrics::SampledPairCuts(net, kPairs, rng));
    const auto solves =
        static_cast<double>(dcn::obs::CounterValue("dinic/unit_solves"));
    const auto reuse =
        static_cast<double>(dcn::obs::CounterValue("dinic/reuse_hits"));
    e.obs.emplace_back("dinic_reuse_fraction", reuse / solves);
    entries.push_back(e);
  }

  // 4b. Sampled pair cuts with pairs >= S-1 at one thread: SampledPairCuts
  //     builds the servers-only cut tree (S-1 solves) and answers every drawn
  //     pair from it, against the same per-pair reference. The stats must
  //     agree exactly — a digest mismatch fails the run.
  {
    Entry e{"pair_cuts_tree_abccc_n4_k3_c2"};
    constexpr std::size_t kPairs = 2048;
    dcn::metrics::PairCutStats tree, reference;
    e.ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      tree = dcn::metrics::SampledPairCuts(net, kPairs, rng);
      benchmark::DoNotOptimize(tree);
    });
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      reference = dcn::bench::ReferenceSampledPairCuts(net, kPairs, rng);
      benchmark::DoNotOptimize(reference);
    });
    if (tree.mean_cut != reference.mean_cut ||
        tree.min_cut != reference.min_cut || tree.pairs != reference.pairs ||
        tree.cuts.Buckets() != reference.cuts.Buckets()) {
      std::fprintf(stderr, "pair-cuts tree baseline mismatch\n");
      return 1;
    }
    dcn::obs::Reset();
    Rng rng{dcn::bench::kDefaultSeed};
    benchmark::DoNotOptimize(dcn::metrics::SampledPairCuts(net, kPairs, rng));
    e.obs.emplace_back(
        "cuttree_solves",
        static_cast<double>(dcn::obs::CounterValue("cuttree/solves")));
    entries.push_back(e);
  }

  // 5. Monte Carlo single-switch fault trials: the intact-forest cone repair
  //    plus component-oracle sampling against the retained full-BFS-per-trial
  //    kernel. The worst-case fraction must be bit-identical.
  {
    Entry e{"fault_trials_abccc_n4_k3_c2"};
    constexpr std::size_t kSamplePairs = 128;
    constexpr std::size_t kSampleSwitches = 16;
    double repaired = 0.0, reference = 0.0;
    e.ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      repaired = dcn::metrics::WorstSingleSwitchDisconnection(
          net, kSamplePairs, kSampleSwitches, rng);
      benchmark::DoNotOptimize(repaired);
    });
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      Rng rng{dcn::bench::kDefaultSeed};
      reference = dcn::bench::ReferenceWorstSingleSwitchDisconnection(
          net, kSamplePairs, kSampleSwitches, rng);
      benchmark::DoNotOptimize(reference);
    });
    if (repaired != reference) {
      std::fprintf(stderr, "fault-trials repair baseline mismatch: %f vs %f\n",
                   repaired, reference);
      return 1;
    }
    dcn::obs::Reset();
    Rng rng{dcn::bench::kDefaultSeed};
    benchmark::DoNotOptimize(dcn::metrics::WorstSingleSwitchDisconnection(
        net, kSamplePairs, kSampleSwitches, rng));
    const auto cone = static_cast<double>(
        dcn::obs::CounterValue("resilience/repair_cone_nodes"));
    const auto total = static_cast<double>(
        dcn::obs::CounterValue("resilience/repair_total_nodes"));
    e.obs.emplace_back("repaired_fraction", cone / total);
    entries.push_back(e);
  }

  // 6. Servers-only cut tree: exact all-server-pair min cuts in S-1 unit
  //    Dinic solves on one batched engine. No retained baseline — the per-pair
  //    equivalent is quadratic in servers and was never a shipped kernel —
  //    so this row tracks absolute cost, with the solve count pinned by obs.
  {
    Entry e{"cuttree_abccc_n4_k3_c2"};
    e.ns_per_op = BestNs(kRepeats, [&] {
      benchmark::DoNotOptimize(dcn::metrics::AllPairsCutStats(net));
    });
    dcn::obs::Reset();
    benchmark::DoNotOptimize(dcn::metrics::AllPairsCutStats(net));
    e.obs.emplace_back(
        "cuttree_solves",
        static_cast<double>(dcn::obs::CounterValue("cuttree/solves")));
    entries.push_back(e);
  }

  // 7. Route construction + directed-link flattening for a fixed permutation.
  {
    Entry e{"route_flatten_abccc_n4_k3_c2"};
    Rng rng{dcn::bench::kDefaultSeed};
    const std::vector<dcn::sim::Flow> flows = dcn::sim::PermutationTraffic(net, rng);
    const std::vector<dcn::routing::Route> routes = dcn::sim::NativeRoutes(net, flows);
    e.ns_per_op = BestNs(kRepeats, [&] {
      const dcn::graph::CsrView& csr = g.Csr();
      dcn::graph::EpochMarks used;
      std::vector<std::uint64_t> links;
      std::size_t total = 0;
      for (const dcn::routing::Route& route : routes) {
        dcn::routing::RouteDirectedLinksInto(csr, route, used, links);
        total += links.size();
      }
      benchmark::DoNotOptimize(total);
    });
    e.baseline_ns_per_op = BestNs(kRepeats, [&] {
      std::size_t total = 0;
      for (const dcn::routing::Route& route : routes) {
        total += dcn::routing::RouteDirectedLinks(g, route).size();
      }
      benchmark::DoNotOptimize(total);
    });
    entries.push_back(e);
  }

  // 8. Packet-sim run at fixed seed/load. Baseline: the same event loop
  //    with per-link FIFOs stored as a vector of deques — the layout the
  //    simulator used before the flat ring-buffer link store. Identical FIFO
  //    semantics and event order, so the two runs must agree exactly.
  {
    Entry e{"packetsim_run_abccc_n4_k3_c2"};
    Rng rng{dcn::bench::kDefaultSeed};
    const std::vector<dcn::sim::Flow> flows = dcn::sim::PermutationTraffic(net, rng);
    const std::vector<dcn::routing::Route> routes = dcn::sim::NativeRoutes(net, flows);
    dcn::sim::PacketSimConfig config;
    config.offered_load = 0.5;
    config.duration = 100.0;
    config.warmup = 20.0;
    dcn::sim::PacketSimResult ring, legacy;
    e.ns_per_op = BestNs(3, [&] {
      ring = dcn::sim::RunPacketSim(g, routes, config);
      benchmark::DoNotOptimize(ring);
    });
    e.baseline_ns_per_op = BestNs(3, [&] {
      legacy = dcn::sim::RunPacketSimLegacyBaseline(g, routes, config);
      benchmark::DoNotOptimize(legacy);
    });
    if (ring.delivered != legacy.delivered || ring.dropped != legacy.dropped ||
        ring.latency.Mean() != legacy.latency.Mean()) {
      std::fprintf(stderr, "packetsim link-store baseline mismatch\n");
      return 1;
    }
    dcn::obs::Reset();
    benchmark::DoNotOptimize(dcn::sim::RunPacketSim(g, routes, config));
    e.obs.emplace_back(
        "events_per_op",
        static_cast<double>(dcn::obs::CounterValue("packetsim/events")));
    // Telemetry-sketch readouts: deterministic functions of the pinned
    // workload (obs/sketch.h), so any drift is an algorithm change.
    e.obs.emplace_back("p99_slowdown", ring.telemetry.slowdown.Quantile(0.99));
    e.obs.emplace_back("p999_slowdown",
                       ring.telemetry.slowdown.Quantile(0.999));
    e.obs.emplace_back(
        "telemetry_buckets",
        static_cast<double>(ring.telemetry.latency.Buckets().size() +
                            ring.telemetry.slowdown.Buckets().size()));
    entries.push_back(e);
  }

  // 9. Monitored packet-sim with a mid-run link kill: the full detection
  //    path (per-window counting, Q16.16 EWMA/CUSUM stepping, alert log) on
  //    top of the event loop. The obs fields pin the verdicts themselves:
  //    fired alarms and time-to-detect (in windows) on the faulted run, and
  //    false alarms on a fault-free control at the same seed — all
  //    deterministic functions of the pinned workload.
  {
    Entry e{"monitor_detect_abccc_n4_k3_c2"};
    Rng rng{dcn::bench::kDefaultSeed};
    const std::vector<dcn::sim::Flow> flows =
        dcn::sim::PermutationTraffic(net, rng);
    const std::vector<dcn::routing::Route> routes =
        dcn::sim::NativeRoutes(net, flows);
    std::vector<std::uint32_t> link_flows(2 * g.EdgeCount(), 0);
    for (const dcn::routing::Route& route : routes) {
      for (std::uint64_t link : dcn::routing::RouteDirectedLinks(g, route)) {
        ++link_flows[link];
      }
    }
    dcn::graph::EdgeId busiest = 0;
    for (dcn::graph::EdgeId ed = 1;
         ed < static_cast<dcn::graph::EdgeId>(g.EdgeCount()); ++ed) {
      if (std::max(link_flows[2 * ed], link_flows[2 * ed + 1]) >
          std::max(link_flows[2 * busiest], link_flows[2 * busiest + 1])) {
        busiest = ed;
      }
    }
    dcn::sim::PacketSimConfig config;
    config.offered_load = 0.1;  // stable: the control run raises no alarms
    config.duration = 320.0;
    config.warmup = 80.0;
    config.queue_capacity = 64;
    config.monitor.enabled = true;
    config.monitor.window_width = 20.0;
    dcn::sim::PacketSimResult control;
    e.ns_per_op = BestNs(3, [&] {
      control = dcn::sim::RunPacketSim(g, routes, config);
      benchmark::DoNotOptimize(control);
    });
    config.faults.KillLink(160.0, busiest);
    const dcn::sim::PacketSimResult faulted =
        dcn::sim::RunPacketSim(g, routes, config);
    const std::vector<dcn::sim::DetectionOutcome> outcomes =
        dcn::sim::MatchDetections(g, config.faults, faulted.monitor);
    e.obs.emplace_back("alerts_fired",
                       static_cast<double>(faulted.monitor.FireCount()));
    e.obs.emplace_back("ttd_windows",
                       outcomes[0].detected
                           ? outcomes[0].ttd / config.monitor.window_width
                           : -1.0);
    e.obs.emplace_back("false_alarms",
                       static_cast<double>(control.monitor.FireCount()));
    entries.push_back(e);
  }

  dcn::SetThreadCount(0);

  std::printf("[\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::printf("{\"name\": \"%s\", \"ns_per_op\": %.0f", e.name.c_str(),
                e.ns_per_op);
    if (e.baseline_ns_per_op > 0.0) {
      std::printf(", \"baseline_ns_per_op\": %.0f, \"speedup\": %.2f",
                  e.baseline_ns_per_op, e.baseline_ns_per_op / e.ns_per_op);
    }
    for (const auto& [key, value] : e.obs) {
      std::printf(", \"obs_%s\": %.6g", key.c_str(), value);
    }
    std::printf("}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::printf("]\n");
  return 0;
}

}  // namespace json_mode

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return json_mode::RunJson();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
