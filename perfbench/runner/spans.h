// The benchmark's own spans: one around every task and every public library
// call it makes, kept in memory and analysed after each traced pass.
//
// Every span records its name, layer, start, end, parent and task id. Call
// spans are timed even with recording off, because their summed duration is
// the task time the end-to-end metrics report; recording only decides
// whether the span is kept for the per-layer breakdown.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNone = -1;

struct Span {
  std::string name;   // the public call, or a library span-site name
  std::string layer;  // e.g. "sim.packetsim", "metrics.all_pairs_cuts"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = kNone;  // index into the same span vector
  std::int64_t task = kNone;    // owning task; kNone during set-up
  std::uint64_t Duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view layer, std::string_view name,
          bool is_call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = kNone;
    std::uint64_t start_ns_ = 0;
    bool is_call_;
  };

  // Recording on: spans are kept (traced passes). Off: only call time is
  // accumulated.
  void SetRecording(bool on) { recording_ = on; }

  // A timed call into one library layer; its duration counts as task time.
  Scope Call(std::string_view layer, std::string_view name) {
    return Scope{*this, layer, name, true};
  }
  // Benchmark work (set-up steps, output checks): recorded, not task time.
  Scope Step(std::string_view layer, std::string_view name) {
    return Scope{*this, layer, name, false};
  }

  // Brackets one task: spans opened in between carry `task` as their id.
  void BeginTask(std::int64_t task, std::string_view name);
  void EndTask();

  // Summed duration of Call scopes since the previous TakeCallNs().
  std::uint64_t TakeCallNs();
  // Recorded spans since the previous TakeSpans(), in opening order.
  std::vector<Span> TakeSpans();

 private:
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // indices of open recorded spans
  std::int64_t task_ = kNone;
  std::int64_t task_span_ = kNone;
  std::uint64_t call_ns_ = 0;
};

// Nanoseconds on the same steady clock the library's obs spans use, so
// benchmark and library spans share one timeline.
std::uint64_t NowNs();

// Re-derives every span's parent as the innermost span that contains it,
// for spans of one thread (proper nesting). Spans are reordered by start
// (stable, longer first on ties, so a wrapper recorded before an equal-length
// library span stays its parent); a span without a task inherits its
// parent's.
void NestByContainment(std::vector<Span>& spans);

// Per span: its duration minus the part of [start, end) covered by the union
// of its children's intervals (children may overlap one another or spill
// past the parent; both are clipped, never double-subtracted).
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

// Self time summed per layer.
std::map<std::string, std::uint64_t> SelfTimeByLayer(
    const std::vector<Span>& spans);

// Nanoseconds of [begin, end) that no span covers.
std::uint64_t UncoveredNs(const std::vector<Span>& spans, std::uint64_t begin,
                          std::uint64_t end);

}  // namespace perfbench
