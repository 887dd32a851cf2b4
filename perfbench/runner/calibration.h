// Host calibration: how much parallelism the machine delivers right now.
//
// A fixed integer loop runs on one thread, then on each of `threads` threads
// at the same time; each is timed as the best of three rounds. A host that
// gives every thread its own core finishes the parallel round in the
// single-thread time (speedup == threads); a host that is busy or throttled
// shows less. Taken before and
// after each run so a reader can tell a host slump from a regression.
#pragma once

namespace perfbench {

struct Calibration {
  int threads = 1;
  double one_thread_ms = 0.0;  // one loop, one thread
  double all_threads_ms = 0.0; // `threads` loops on `threads` threads
  // threads * one_thread_ms / all_threads_ms.
  double Speedup() const;
};

Calibration CalibrateHost(int threads);

// CPUs this process may run on (what `nproc` prints).
int AvailableCpus();

}  // namespace perfbench
