// perfbench: runs one benchmark workload, checks every result, and prints
// its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--golden FILE] [--write-golden FILE] [--trace-out FILE]
//
// Load model: one client in a closed loop. Set-up, then one untimed warm-up
// pass over the task list, then timed passes until --seconds have passed and
// enough tasks ran for a p90 with ten samples beyond it. Set-up runs again
// after every timed pass, at least kSetupReps times in all. A traced run
// alternates untraced and traced passes, so the gap between them is the
// tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "calibration.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "digest.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kCrossThreadTasks = 3;
constexpr std::size_t kMaxReportedFailures = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;        // golden digests to compare against (default seed)
  std::string write_golden;  // regenerate the golden file instead of measuring
  std::string trace_out;     // Chrome trace of the first traced pass
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--golden") {
      opt.golden = value;
    } else if (flag == "--write-golden") {
      opt.write_golden = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  return opt;
}

std::string GoldenKey(const Task& task, std::size_t pass) {
  return task.key + "#" + std::to_string(pass % task.variants);
}

std::map<std::string, std::uint64_t> LoadGolden(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::invalid_argument("cannot read golden digests " + path);
  std::map<std::string, std::uint64_t> golden;
  std::string key;
  std::string hex;
  while (in >> key >> hex) golden[key] = std::stoull(hex, nullptr, 16);
  return golden;
}

// Always-on obs counters read around every pass; per-pass deltas are the
// exact work counts of the per-layer metrics.
constexpr const char* kCounters[] = {
    "packetsim/events",        "packetsim/parallel/handoffs",
    "packetsim/parallel/windows", "monitor/windows",
    "monitor/alerts_fired",    "cuttree/solves",
    "dinic/solves",            "dinic/unit_solves",
    "dinic/reuse_hits",        "msbfs/batches",
    "msbfs/levels_bottom_up",  "msbfs/levels_top_down",
    "resilience/repair_cone_nodes", "resilience/repair_total_nodes",
    "parallel/regions",        "parallel/chunks",
};
using Counts = std::map<std::string, std::uint64_t>;

Counts ReadCounters() {
  Counts counts;
  for (const char* name : kCounters) counts[name] = dcn::obs::CounterValue(name);
  return counts;
}

// The library's span sites, mapped onto the benchmark's layer names:
// "packetsim/shard" becomes "sim.packetsim.shard".
std::string LibraryLayer(const std::string& site) {
  static const std::pair<std::string_view, std::string_view> kPrefixes[] = {
      {"packetsim/", "sim.packetsim."}, {"cuttree/", "graph.cuttree."},
      {"dinic/", "graph.dinic."},       {"msbfs/", "graph.msbfs."},
      {"flowsim/", "sim.flowsim."},     {"fluid/", "sim.fluid."},
      {"parallel/", "common.parallel."},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (site.starts_with(prefix)) {
      return std::string{layer} + site.substr(prefix.size());
    }
  }
  return "library." + site;
}

// One traced pass, broken down.
struct TracedPass {
  double wall_ms = 0.0;
  double unattributed_ms = 0.0;
  std::map<std::string, double> self_ms;    // by layer, main thread
  std::map<std::string, double> call_ms;    // benchmark call spans, inclusive
  std::map<std::string, double> library_ms; // span-site totals, all threads
  std::uint64_t packetsim_calls = 0;
};

int MainThreadId(const dcn::obs::Snapshot& snap) {
  for (const auto& [tid, name] : snap.threads) {
    if (name == "main") return tid;
  }
  return 0;
}

TracedPass AnalyseTracedPass(std::vector<Span> spans, const dcn::obs::Snapshot& snap,
                             std::uint64_t begin, std::uint64_t end) {
  TracedPass pass;
  pass.wall_ms = static_cast<double>(end - begin) * 1e-6;
  for (const Span& span : spans) {
    if (span.layer == "bench.task" || span.layer == "bench.check") continue;
    pass.call_ms[span.layer] += static_cast<double>(span.Duration()) * 1e-6;
    if (span.layer == "sim.packetsim") ++pass.packetsim_calls;
  }
  for (const dcn::obs::TimerRow& row : snap.timers) {
    pass.library_ms[row.name] += static_cast<double>(row.total_ns) * 1e-6;
  }
  const int main_tid = MainThreadId(snap);
  for (const dcn::obs::TraceEvent& e : snap.trace) {
    if (e.tid != main_tid) continue;
    const std::string& site = snap.span_names[e.site];
    spans.push_back({site, LibraryLayer(site), e.start_ns, e.start_ns + e.dur_ns});
  }
  NestByContainment(spans);
  // A pool chunk runs its caller's loop body, so its self time belongs to the
  // calling layer; the pool's own cost is what its region span keeps.
  for (Span& span : spans) {
    if (span.name != "parallel/chunk") continue;
    for (std::int64_t p = span.parent; p != kNone;
         p = spans[static_cast<std::size_t>(p)].parent) {
      const std::string& layer = spans[static_cast<std::size_t>(p)].layer;
      if (!layer.starts_with("common.parallel.")) {
        span.layer = layer;
        break;
      }
    }
  }
  for (const auto& [layer, ns] : SelfTimeByLayer(spans)) {
    pass.self_ms[layer] = static_cast<double>(ns) * 1e-6;
  }
  pass.unattributed_ms = static_cast<double>(UncoveredNs(spans, begin, end)) * 1e-6;
  return pass;
}

// Writes the library's captured events plus the benchmark's own spans (as
// "bench:<layer>" events on the main lane) with the obs/trace writer.
void ExportTrace(const std::string& path, dcn::obs::Snapshot snap,
                 const std::vector<Span>& spans) {
  const int main_tid = MainThreadId(snap);
  std::map<std::string, std::size_t> site_of;
  for (const Span& span : spans) {
    const std::string name = "bench:" + span.layer + ":" + span.name;
    auto [it, inserted] = site_of.emplace(name, snap.span_names.size());
    if (inserted) snap.span_names.push_back(name);
    snap.trace.push_back({it->second, main_tid, span.start_ns, span.Duration()});
  }
  std::stable_sort(snap.trace.begin(), snap.trace.end(),
                   [](const dcn::obs::TraceEvent& a, const dcn::obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.dur_ns > b.dur_ns;
                   });
  std::ofstream out{path};
  if (!out) throw std::invalid_argument("cannot write trace " + path);
  dcn::obs::WriteChromeTrace(out, snap);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double MedianOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Median(values);
}

int Run(const Options& opt) {
  const WorkloadInfo& info = FindWorkload(opt.workload);
  dcn::obs::SetCurrentThreadName("main");
  const int cpus = AvailableCpus();
  const int threads = info.all_cpus ? cpus : 1;
  dcn::SetThreadCount(threads);

  const Calibration calib_before = CalibrateHost(cpus);
  Tracer tracer;
  std::unique_ptr<Workload> workload = info.make();

  // --- set-up: once now, again after every timed pass (outside its timing)
  // and topped up to kSetupReps at the end; the median is setup_s. Spreading
  // the repetitions over the run samples the host the passes saw.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> routes_ms;
  const auto setup = [&] {
    tracer.SetRecording(opt.trace);
    const std::uint64_t start = NowNs();
    workload->Setup(opt.seed, tracer);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    tracer.SetRecording(false);
    double build = 0.0;
    double routes = 0.0;
    for (const Span& span : tracer.TakeSpans()) {
      const double ms = static_cast<double>(span.Duration()) * 1e-6;
      if (span.layer == "topology.build") build += ms;
      if (span.layer == "routing.routes") routes += ms;
    }
    build_ms.push_back(build);
    routes_ms.push_back(routes);
    tracer.TakeCallNs();
  };
  setup();
  const std::vector<Task>& tasks = workload->Tasks();

  if (!opt.write_golden.empty()) {
    std::size_t variants = 1;
    for (const Task& task : tasks) variants = std::max(variants, task.variants);
    std::ofstream out{opt.write_golden};
    if (!out) throw std::invalid_argument("cannot write " + opt.write_golden);
    std::set<std::string> written;
    for (std::size_t pass = 0; pass < variants; ++pass) {
      for (const Task& task : tasks) {
        const std::string key = GoldenKey(task, pass);
        if (!written.insert(key).second) continue;
        out << key << ' ' << Hex(task.run(pass % task.variants, tracer).digest) << '\n';
      }
    }
    std::cout << "wrote " << written.size() << " golden digests to "
              << opt.write_golden << "\n";
    return 0;
  }

  const bool use_golden = opt.seed == kDefaultSeed;
  std::map<std::string, std::uint64_t> golden;
  if (use_golden) golden = LoadGolden(opt.golden);

  // --- task execution with the correctness gate -----------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::uint64_t> seen;  // golden key -> first digest
  std::int64_t next_task_id = 0;
  const auto fail = [&](const std::string& what) {
    ++failed;
    if (failures.size() < kMaxReportedFailures) failures.push_back(what);
  };
  struct TaskRun {
    double ms = 0.0;  // time inside the task's library calls
    TaskOutcome outcome;
  };
  const auto run_task = [&](std::size_t index, std::size_t pass) {
    const Task& task = tasks[index];
    const std::string key = GoldenKey(task, pass);
    TaskRun run;
    ++attempted;
    bool ok = false;
    tracer.BeginTask(next_task_id++, key);
    try {
      run.outcome = task.run(pass % task.variants, tracer);
      ok = true;
    } catch (const std::exception& e) {
      fail(key + ": " + e.what());
    }
    tracer.EndTask();
    run.ms = static_cast<double>(tracer.TakeCallNs()) * 1e-6;
    if (!ok) return run;
    const auto [it, first] = seen.emplace(key, run.outcome.digest);
    if (!first && it->second != run.outcome.digest) {
      fail(key + ": digest changed between passes or thread counts");
    } else if (use_golden) {
      const auto g = golden.find(key);
      if (g == golden.end() || g->second != run.outcome.digest) {
        fail(key + ": digest " + Hex(run.outcome.digest) + " does not match golden");
      }
    }
    return run;
  };

  // --- warm-up pass, then timed passes ---------------------------------------
  for (std::size_t i = 0; i < tasks.size(); ++i) run_task(i, 0);
  dcn::obs::Reset();

  const std::size_t min_tasks = MinSamplesFor(0.9);
  std::vector<double> task_ms;
  std::vector<double> untraced_wall_ms;
  std::vector<TracedPass> traced;
  std::vector<Counts> traced_counts;
  std::uint64_t generated = 0;
  std::uint64_t measured = 0;
  std::uint64_t delivered = 0;
  double packet_task_ms = 0.0;
  bool exported = false;
  const std::uint64_t timed_start = NowNs();
  for (std::size_t pass = 1;; ++pass) {
    const double elapsed = static_cast<double>(NowNs() - timed_start) * 1e-9;
    const bool enough = elapsed >= opt.seconds && task_ms.size() >= min_tasks &&
                        (!opt.trace || !traced.empty());
    if (enough) break;
    const bool traced_pass = opt.trace && pass % 2 == 0;
    const Counts before = ReadCounters();
    if (traced_pass) dcn::obs::EnableTraceCapture(true);
    tracer.SetRecording(traced_pass);
    std::vector<double> pass_task_ms;
    const std::uint64_t begin = NowNs();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskRun run = run_task(i, pass);
      pass_task_ms.push_back(run.ms);
      if (!traced_pass) {
        generated += run.outcome.generated;
        measured += run.outcome.measured;
        delivered += run.outcome.delivered;
        if (run.outcome.generated > 0) packet_task_ms += run.ms;
      }
    }
    const std::uint64_t end = NowNs();
    tracer.SetRecording(false);
    dcn::obs::EnableSpans(false);
    Counts delta = ReadCounters();
    for (auto& [name, value] : delta) value -= before.at(name);
    if (traced_pass) {
      const dcn::obs::Snapshot snap = dcn::obs::TakeSnapshot();
      std::vector<Span> spans = tracer.TakeSpans();
      if (!exported && !opt.trace_out.empty()) {
        ExportTrace(opt.trace_out, snap, spans);
        exported = true;
      }
      traced.push_back(AnalyseTracedPass(std::move(spans), snap, begin, end));
      traced_counts.push_back(std::move(delta));
    } else {
      untraced_wall_ms.push_back(static_cast<double>(end - begin) * 1e-6);
      task_ms.insert(task_ms.end(), pass_task_ms.begin(), pass_task_ms.end());
    }
    // Bounds the registry's published runs and sketches; outside the timing.
    dcn::obs::Reset();
    setup();
  }
  const double peak_rss_mb = PeakRssMb();
  while (setup_s.size() < kSetupReps) setup();

  // --- byte-identity across thread counts on a sampled subset ---------------
  const int other_threads = info.all_cpus ? 1 : cpus;
  if (other_threads != threads) {
    dcn::SetThreadCount(other_threads);
    dcn::Rng pick{opt.seed ^ 0x7e57ull};
    const std::vector<std::size_t> order = dcn::RandomPermutation(tasks.size(), pick);
    for (std::size_t j = 0; j < std::min(kCrossThreadTasks, order.size()); ++j) {
      run_task(order[j], 1);
    }
    dcn::SetThreadCount(threads);
  }
  dcn::obs::Reset();
  const Calibration calib_after = CalibrateHost(cpus);

  // --- report ----------------------------------------------------------------
  std::cout << "perfbench workload=" << info.name << " seed=" << opt.seed
            << " threads=" << threads << " cpus=" << cpus
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";
  const auto calib_json = [](const Calibration& c) {
    return "{\"one_thread_ms\": " + Number(c.one_thread_ms) +
           ", \"all_threads_ms\": " + Number(c.all_threads_ms) +
           ", \"speedup\": " + Number(c.Speedup()) + "}";
  };
  std::cout << "calibration {\"threads\": " << cpus
            << ", \"before\": " << calib_json(calib_before)
            << ", \"after\": " << calib_json(calib_after) << "}\n";
  std::cout << "tasks: " << tasks.size() << " per pass; " << task_ms.size()
            << " timed over " << untraced_wall_ms.size() << " untraced and "
            << traced.size() << " traced passes; " << attempted
            << " attempted, " << failed << " failed (golden "
            << (use_golden ? "checked" : "not applicable: non-default seed")
            << ")\n";
  for (const std::string& f : failures) std::cerr << "FAILED " << f << "\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const auto p90 = TailPercentile(task_ms, 0.9);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"wall_s", MedianOf(untraced_wall_ms) * 1e-3, "s"},
        {"task_p50_ms", MedianOf(task_ms), "ms"},
        {"task_p90_ms", p90.value_or(0.0), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const double passes = static_cast<double>(traced.size());
    const auto median_pass = [&](const auto& get) {
      std::vector<double> values;
      for (std::size_t p = 0; p < traced.size(); ++p) values.push_back(get(p));
      return MedianOf(values);
    };
    const auto count = [&](const char* name) {
      return median_pass([&](std::size_t p) {
        return static_cast<double>(traced_counts[p].at(name));
      });
    };
    const auto total = [&](const char* name) {
      double sum = 0.0;
      for (const Counts& c : traced_counts) sum += static_cast<double>(c.at(name));
      return sum;
    };
    const auto call_ms = [&](const char* layer) {
      return median_pass([&](std::size_t p) {
        const auto it = traced[p].call_ms.find(layer);
        return it == traced[p].call_ms.end() ? 0.0 : it->second;
      });
    };
    const auto library_ms = [&](const char* site) {
      return median_pass([&](std::size_t p) {
        const auto it = traced[p].library_ms.find(site);
        return it == traced[p].library_ms.end() ? 0.0 : it->second;
      });
    };
    double packetsim_ms = 0.0;
    double packetsim_calls = 0.0;
    for (const TracedPass& p : traced) {
      const auto it = p.call_ms.find("sim.packetsim");
      if (it != p.call_ms.end()) packetsim_ms += it->second;
      packetsim_calls += static_cast<double>(p.packetsim_calls);
    }
    const double bottom_up = total("msbfs/levels_bottom_up");
    const double wall_traced = median_pass([&](std::size_t p) { return traced[p].wall_ms; });
    metrics = {
        {"topology.build_ms", Median(build_ms), "ms"},
        {"routing.routes_ms", Median(routes_ms), "ms"},
        {"routing.routes", static_cast<double>(workload->RouteCount()), "count"},
        {"sim.packetsim.run_ms", Ratio(packetsim_ms, packetsim_calls), "ms"},
        {"sim.packetsim.events", count("packetsim/events"), "count"},
        {"sim.packetsim.ns_per_event",
         Ratio(packetsim_ms * 1e6, total("packetsim/events")), "ns"},
        {"sim.packetsim.delivered_frac",
         Ratio(static_cast<double>(delivered), static_cast<double>(measured)), "frac"},
        {"sim.packetsim.handoff_frac",
         Ratio(total("packetsim/parallel/handoffs"), total("packetsim/events")), "frac"},
        {"sim.packetsim.windows", count("packetsim/parallel/windows"), "count"},
        {"sim.packetsim.schedule_ms", library_ms("packetsim/schedule"), "ms"},
        {"sim.packetsim.shard_ms", library_ms("packetsim/shard"), "ms"},
        {"sim.packetsim.coordinate_ms", library_ms("packetsim/coordinate"), "ms"},
        {"sim_pkts_per_s", Ratio(static_cast<double>(generated), packet_task_ms * 1e-3),
         "1/s"},
        {"obs.monitor.windows", count("monitor/windows"), "count"},
        {"obs.monitor.alerts_fired", count("monitor/alerts_fired"), "count"},
        {"sim.flowsim.maxmin_ms", call_ms("sim.flowsim"), "ms"},
        {"graph.cuttree.solves", count("cuttree/solves"), "count"},
        {"graph.cuttree.build_ms", library_ms("cuttree/build"), "ms"},
        {"graph.dinic.solves", count("dinic/solves"), "count"},
        {"graph.dinic.unit_solves", count("dinic/unit_solves"), "count"},
        {"graph.dinic.reuse_frac",
         Ratio(total("dinic/reuse_hits"), total("dinic/unit_solves")), "frac"},
        {"metrics.all_pairs_cuts_ms", call_ms("metrics.all_pairs_cuts"), "ms"},
        {"metrics.sampled_pair_cuts_ms", call_ms("metrics.sampled_pair_cuts"), "ms"},
        {"graph.msbfs.batches", count("msbfs/batches"), "count"},
        {"graph.msbfs.bottom_up_frac",
         Ratio(bottom_up, bottom_up + total("msbfs/levels_top_down")), "frac"},
        {"metrics.exact_paths_ms", call_ms("metrics.exact_paths"), "ms"},
        {"metrics.symmetry_paths_ms", call_ms("metrics.symmetry_paths"), "ms"},
        {"graph.components.repair_cone_frac",
         Ratio(total("resilience/repair_cone_nodes"),
               total("resilience/repair_total_nodes")),
         "frac"},
        {"metrics.blast_radius_ms", call_ms("metrics.blast_radius"), "ms"},
        {"metrics.bisection_ms", call_ms("metrics.bisection"), "ms"},
        {"common.parallel.regions", count("parallel/regions"), "count"},
        {"common.parallel.chunks", count("parallel/chunks"), "count"},
        {"bench.check_ms",
         median_pass([&](std::size_t p) {
           const auto it = traced[p].self_ms.find("bench.check");
           return it == traced[p].self_ms.end() ? 0.0 : it->second;
         }),
         "ms"},
        {"unattributed_ms",
         median_pass([&](std::size_t p) { return traced[p].unattributed_ms; }), "ms"},
        {"obs.trace_overhead_frac", Ratio(wall_traced, MedianOf(untraced_wall_ms)) - 1.0,
         "frac"},
        {"host.speedup_before", calib_before.Speedup(), "x"},
        {"host.speedup_after", calib_after.Speedup(), "x"},
    };

    // Self time per layer, averaged over the traced passes.
    std::map<std::string, double> self_ms;
    double unattributed = 0.0;
    double wall = 0.0;
    for (const TracedPass& p : traced) {
      for (const auto& [layer, ms] : p.self_ms) self_ms[layer] += ms / passes;
      unattributed += p.unattributed_ms / passes;
      wall += p.wall_ms / passes;
    }
    std::printf("\nself time per layer (%s, mean of %zu traced passes)\n",
                info.name.c_str(), traced.size());
    std::printf("  %-28s %12s %8s\n", "layer", "ms/pass", "share");
    for (const auto& [layer, ms] : self_ms) {
      std::printf("  %-28s %12.3f %7.2f%%\n", layer.c_str(), ms, 100.0 * Ratio(ms, wall));
    }
    std::printf("  %-28s %12.3f %7.2f%%\n", "(unattributed)", unattributed,
                100.0 * Ratio(unattributed, wall));
    std::printf("  %-28s %12.3f\n", "wall (traced pass)", wall);
  }

  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16s  %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
         << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseOptions(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
