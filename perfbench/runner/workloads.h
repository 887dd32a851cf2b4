// The benchmark's three workloads. Each is a fixed task list built from the
// seed; a task is one call that gives one user-visible result (one
// simulation run, or one query on one topology). The runner (main.cc) runs
// the list again and again, one task at a time, and checks every result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace perfbench {

// A broken invariant in a task's output. Counted as a failed task.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct TaskOutcome {
  // Digest of the deterministic outputs (never the Space-Saving top-K).
  std::uint64_t digest = 0;
  // Packet tasks only: packets generated, measured (born after warm-up),
  // and measured packets delivered.
  std::uint64_t generated = 0;
  std::uint64_t measured = 0;
  std::uint64_t delivered = 0;
};

struct Task {
  std::string key;  // stable name; golden digests are keyed on it
  // Pass p runs input variant p % variants (a fresh failure set per pass).
  std::size_t variants = 1;
  std::function<TaskOutcome(std::size_t variant, Tracer&)> run;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // (Re)builds every input from the seed: topology, traffic, routes, fault
  // schedule. The runner times this as set-up.
  virtual void Setup(std::uint64_t seed, Tracer& tracer) = 0;
  // Routes computed by the last Setup().
  virtual std::uint64_t RouteCount() const = 0;
  const std::vector<Task>& Tasks() const { return tasks_; }

 protected:
  std::vector<Task> tasks_;
};

struct WorkloadInfo {
  std::string name;
  bool all_cpus;  // DCN_THREADS = available CPUs, else 1
  std::function<std::unique_ptr<Workload>()> make;
};

const std::vector<WorkloadInfo>& Workloads();

// Throws std::invalid_argument for an unknown name.
const WorkloadInfo& FindWorkload(std::string_view name);

}  // namespace perfbench
