#include "calibration.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint64_t kLoopSteps = 1ull << 24;
// Best of a few rounds: a thread the scheduler has not placed yet is not
// what the host delivers.
constexpr int kRounds = 3;

// A dependent xorshift chain the compiler cannot shorten; the sink keeps it.
std::atomic<std::uint64_t> g_sink{0};

void SpinLoop(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < kLoopSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

double TimeMs(int threads) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(SpinLoop, static_cast<std::uint64_t>(t + 1));
  }
  for (std::thread& thread : pool) thread.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

double Calibration::Speedup() const {
  return all_threads_ms > 0.0 ? threads * one_thread_ms / all_threads_ms : 0.0;
}

Calibration CalibrateHost(int threads) {
  Calibration c;
  c.threads = threads;
  c.one_thread_ms = TimeMs(1);
  c.all_threads_ms = TimeMs(threads);
  for (int round = 1; round < kRounds; ++round) {
    c.one_thread_ms = std::min(c.one_thread_ms, TimeMs(1));
    c.all_threads_ms = std::min(c.all_threads_ms, TimeMs(threads));
  }
  return c;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace perfbench
