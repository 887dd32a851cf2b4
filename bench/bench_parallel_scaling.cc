// M2 — thread-pool scaling of the metrics hot paths: wall-clock speedup at
// 1/2/4/8 threads for all-pairs MS-BFS (ExactServerPathStats), sampled path
// stats, max-flow pair sampling, Monte Carlo fault trials, and the sharded
// packet simulator, on an ABCCC instance with >= 2000 servers. Every row also
// re-checks the determinism contract: the measured values must be
// bit-identical to the 1-thread run.
//
// The `speedup` column is measured against a RETAINED SERIAL REFERENCE where
// one exists — for exact-paths, the pre-MS-BFS one-BFS-per-source sweep run
// single-threaded — so the row captures the algorithmic win times the thread
// scaling, and a kernel regression shows up as a falling ratio even on a
// single-core host (where pure thread scaling is pinned at ~1x). Kernels
// without a legacy implementation use their own 1-thread run as reference.
// `--min-speedup R` (default 2.5 — both ratios are in-process relative, so
// the bar travels across machines) fails the run if a kernel with a serial
// reference lands below R at the highest thread count, and `identical: false`
// anywhere is always a failure — regressions are loud, not just visible.
//
// Unlike the F-benches this binary measures TIME, so the timing columns vary
// run to run; the `identical` column and the metric values themselves are
// deterministic — including the merged obs counters (MS-BFS level direction
// counts), whose cross-thread-count equality is folded into `identical`.
// Flags: --n/--k/--c (topology), --pairs, --trials, --repeats,
// --threads-max, --min-speedup, --json (machine-readable output for
// scripts/bench_json.sh: a JSON array of kernel/threads/time_ms/speedup/
// identical rows, plus msbfs_bottom_up_fraction where the kernel enters
// MS-BFS, instead of the table).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_reference.h"
#include "bench_util.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/table.h"
#include "graph/bfs.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "routing/route.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace {

using Clock = std::chrono::steady_clock;

double BestOf(int repeats, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(Clock::now() - start)
                        .count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  const CliArgs& args = env.Args();
  const topo::AbcccParams params{
      static_cast<int>(args.GetInt("n", 5)),
      static_cast<int>(args.GetInt("k", 3)),
      static_cast<int>(args.GetInt("c", 2))};  // default: 2500 servers
  const auto pairs = static_cast<std::size_t>(args.GetInt("pairs", 64));
  const auto trials = static_cast<std::size_t>(args.GetInt("trials", 24));
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));
  const int threads_max = static_cast<int>(args.GetInt("threads-max", 8));
  const double min_speedup = args.GetDouble("min-speedup", 2.5);
  const bool json = args.Has("json");

  const topo::Abccc net{params};
  if (!json) {
    bench::PrintHeader("M2", "deterministic thread-pool scaling of metric kernels");
    std::cout << net.Describe() << ": " << net.ServerCount() << " servers, "
              << net.SwitchCount() << " switches, " << net.LinkCount()
              << " links\n\n";
  }

  // Shared packet-sim workload: permutation traffic over the same ABCCC
  // instance, hot enough that the event loop dominates. The sharded engine is
  // anchored to the serial reference event loop.
  Rng traffic_rng{bench::kDefaultSeed};
  const std::vector<routing::Route> psim_routes =
      sim::NativeRoutes(net, sim::PermutationTraffic(net, traffic_rng));
  sim::PacketSimConfig psim_config;
  psim_config.offered_load = 0.7;
  psim_config.duration = 60.0;
  psim_config.warmup = 10.0;
  const auto psim_digest = [](const sim::PacketSimResult& r) {
    // Percentile sorts the sample storage, so the Mean() that follows sums in
    // sorted order — bit-stable however the engine interleaved its Add calls.
    const double p99 = r.latency.Percentile(0.99);
    return p99 + r.latency.Mean() +
           static_cast<double>(r.delivered + r.dropped + 2 * r.generated) +
           r.max_queue_depth + r.max_link_utilization;
  };

  // Each kernel returns a digest of its results; digests must not depend on
  // the thread count. A kernel with a `reference` carries the retained serial
  // implementation it replaced — run single-threaded, it anchors the speedup
  // column and must produce the identical digest.
  struct Kernel {
    std::string name;
    std::function<double()> run;
    std::function<double()> reference;  // null: 1-thread run is the reference
    // Kernel-specific floor for the speedup gate; < 0 defers to the
    // --min-speedup flag, and lowering the flag lowers this floor too (so
    // --min-speedup=0 still disables every gate). The sharded packet sim
    // carries its own bar because its serial reference is an equally
    // optimized event loop (no algorithmic win to bank), so on a single-core
    // host the honest expectation is ~1x.
    double min_speedup = -1.0;
  };
  const std::vector<Kernel> kernels = {
      {"exact-paths (all-pairs MS-BFS)",
       [&] {
         const metrics::ExactPathStats stats = metrics::ExactServerPathStats(net);
         return stats.average + stats.diameter;
       },
       // The pre-MS-BFS kernel: one single-source BFS per server, serial.
       // Same integer accumulation, same final division — the digest must
       // match the bit-parallel sweep exactly.
       [&] {
         const graph::CsrView& csr = net.Network().Csr();
         graph::TraversalScope ws;
         std::int64_t total = 0;
         std::uint64_t reached_pairs = 0;
         int diameter = 0;
         for (const graph::NodeId src : net.Servers()) {
           graph::BfsDistances(csr, src, *ws);
           for (const graph::NodeId dst : net.Servers()) {
             if (dst == src) continue;
             const int d = ws->Dist(dst);
             diameter = std::max(diameter, d);
             total += d;
             ++reached_pairs;
           }
         }
         return static_cast<double>(total) / static_cast<double>(reached_pairs) +
                diameter;
       }},
      {"sampled-paths (BFS + routes)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         const metrics::SampledPathStats stats =
             metrics::SamplePathStats(net, trials, 32, rng);
         return stats.mean_stretch + stats.shortest.Mean();
       },
       nullptr},
      {"pair-cuts (max-flow sampling)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         const metrics::PairCutStats stats =
             metrics::SampledPairCuts(net, pairs, rng);
         return stats.mean_cut + static_cast<double>(stats.min_cut);
       },
       // The pre-batch kernel: a fresh arc build and an untruncated Dinic
       // per sampled pair. Same base.Fork(i) draws, so the digest must match
       // the source-shared batch engine exactly.
       [&] {
         Rng rng{bench::kDefaultSeed};
         const metrics::PairCutStats stats =
             bench::ReferenceSampledPairCuts(net, pairs, rng);
         return stats.mean_cut + static_cast<double>(stats.min_cut);
       },
       // The batch engine banks an algorithmic win (shared arcs + levels),
       // so the floor holds even where threads cannot help; measured ~2x on
       // a single-core host, the floor leaves margin for runner noise.
       1.7},
      {"fault-trials (Monte Carlo)",
       [&] {
         Rng rng{bench::kDefaultSeed};
         return metrics::WorstSingleSwitchDisconnection(net, 128, trials, rng) +
                1.0;
       },
       // The pre-repair kernel: full BFS traversals per kill trial instead
       // of re-leveling the dead switch's cone in the intact forest.
       [&] {
         Rng rng{bench::kDefaultSeed};
         return bench::ReferenceWorstSingleSwitchDisconnection(net, 128, trials,
                                                               rng) +
                1.0;
       },
       2.0},
      {"packetsim (sharded event loop)",
       [&] {
         return psim_digest(
             sim::RunPacketSim(net.Network(), psim_routes, psim_config));
       },
       // The serial reference loop, byte-identical by contract
       // (packetsim.h); run single-threaded it anchors the speedup column.
       [&] {
         return psim_digest(sim::RunPacketSimSerial(
             net.Network(), psim_routes, psim_config));
       },
       // Honest single-core floor: the sharded engine must stay within 2x of
       // the serial loop when threads cannot help (window sort + barrier
       // overhead), and any thread scaling only raises the measured ratio.
       0.5},
  };

  struct Row {
    std::string kernel;
    int threads = 0;
    double ms = 0.0;
    double speedup = 0.0;
    bool identical = false;
    // Merged obs counters for the timed runs (0 when the kernel never enters
    // MS-BFS). Exact integers, so cross-thread-count equality is part of the
    // `identical` verdict: the observability layer obeys the same determinism
    // contract as the results it describes.
    std::uint64_t msbfs_bu_levels = 0;
    std::uint64_t msbfs_td_levels = 0;
  };
  std::vector<Row> rows;
  bool all_identical = true;
  bool speedup_ok = true;
  for (const Kernel& kernel : kernels) {
    double ref_ms = 0.0;
    double ref_digest = 0.0;
    if (kernel.reference) {
      SetThreadCount(1);
      ref_ms = BestOf(repeats, [&] { ref_digest = kernel.reference(); });
    }
    double serial_digest = 0.0;
    std::uint64_t serial_bu = 0;
    std::uint64_t serial_td = 0;
    for (int threads = 1; threads <= threads_max; threads *= 2) {
      SetThreadCount(threads);
      double digest = 0.0;
      // Counter deltas rather than obs::Reset(): a --trace-out run keeps its
      // span buffer intact across the whole sweep.
      const std::uint64_t bu0 = obs::CounterValue("msbfs/levels_bottom_up");
      const std::uint64_t td0 = obs::CounterValue("msbfs/levels_top_down");
      const double ms = BestOf(repeats, [&] { digest = kernel.run(); });
      const std::uint64_t bu =
          (obs::CounterValue("msbfs/levels_bottom_up") - bu0) /
          static_cast<std::uint64_t>(repeats);
      const std::uint64_t td =
          (obs::CounterValue("msbfs/levels_top_down") - td0) /
          static_cast<std::uint64_t>(repeats);
      if (threads == 1) {
        serial_digest = digest;
        serial_bu = bu;
        serial_td = td;
        if (!kernel.reference) {
          ref_ms = ms;
          ref_digest = digest;
        }
      }
      const bool identical = digest == serial_digest && digest == ref_digest &&
                             bu == serial_bu && td == serial_td;
      all_identical = all_identical && identical;
      rows.push_back(
          Row{kernel.name, threads, ms, ref_ms / ms, identical, bu, td});
      const double floor = kernel.min_speedup >= 0.0
                               ? std::min(kernel.min_speedup, min_speedup)
                               : min_speedup;
      if (kernel.reference && threads == threads_max &&
          rows.back().speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: %s at %d threads is %.2fx vs the serial reference "
                     "(minimum %.2fx)\n",
                     kernel.name.c_str(), threads, rows.back().speedup, floor);
        speedup_ok = false;
      }
    }
  }
  SetThreadCount(0);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a kernel's results depend on the thread count — the "
                 "determinism contract of common/parallel.h is broken\n");
  }
  const int status = all_identical && speedup_ok ? 0 : 1;

  // Known artifact, recorded so readers of the results files do not chase a
  // phantom regression: on a single-core host, packetsim threads=2 runs
  // SLOWER than threads=1 (window sort + barrier overhead with no parallel
  // hardware to pay for it). That row is gated only by the kernel's 0.5x
  // floor above, and the flag below marks affected runs in the JSON.
  const bool single_core_host = std::thread::hardware_concurrency() <= 1;

  if (json) {
    std::printf("[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::printf(
          "{\"kernel\": \"%s\", \"threads\": %d, \"time_ms\": %.1f, "
          "\"speedup\": %.2f, \"identical\": %s, \"single_core_host\": %s",
          row.kernel.c_str(), row.threads, row.ms, row.speedup,
          row.identical ? "true" : "false",
          single_core_host ? "true" : "false");
      if (row.msbfs_bu_levels + row.msbfs_td_levels > 0) {
        std::printf(", \"msbfs_bottom_up_fraction\": %.4f",
                    static_cast<double>(row.msbfs_bu_levels) /
                        static_cast<double>(row.msbfs_bu_levels +
                                            row.msbfs_td_levels));
      }
      std::printf("}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");
    return status;
  }

  Table table{{"kernel", "threads", "time-ms", "speedup", "identical"}};
  for (const Row& row : rows) {
    table.AddRow({row.kernel, Table::Cell(row.threads), Table::Cell(row.ms, 1),
                  Table::Cell(row.speedup, 2), row.identical ? "yes" : "NO"});
  }
  table.Print(std::cout, "M2: scaling at 1.." + std::to_string(threads_max) +
                             " threads");
  std::cout << "\nExpected shape: exact-paths' speedup is anchored to the "
               "retained serial one-BFS-per-source sweep, so it lands well "
               "above 1x even single-core (the bit-parallel kernel's "
               "algorithmic win) and grows with threads on multi-core hosts; "
               "the reference-free kernels scale near-linearly up to the "
               "physical core count and sit at ~1.00x on a single-core host; "
               "the `identical` column is always `yes` — the determinism "
               "contract of common/parallel.h.\n";
  if (single_core_host) {
    std::cout << "\nNote: this host exposes ONE hardware thread. Expect "
                 "packetsim (sharded event loop) at threads=2 to run slower "
                 "than threads=1 — the shard windows still pay their sort and "
                 "barrier costs with no parallel hardware to amortize them. "
                 "This is the documented single-core artifact, bounded by the "
                 "kernel's 0.5x floor, not a regression.\n";
  }
  return status;
}
