#include "spans.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace perfbench {

std::uint64_t NowNs() { return dcn::obs::detail::NowNs(); }

Tracer::Scope::Scope(Tracer& tracer, std::string_view layer,
                     std::string_view name, bool is_call)
    : tracer_(tracer), is_call_(is_call) {
  if (tracer_.recording_) {
    index_ = static_cast<std::int64_t>(tracer_.spans_.size());
    tracer_.spans_.push_back(
        {std::string{name}, std::string{layer}, 0, 0,
         tracer_.open_.empty() ? kNone : tracer_.open_.back(), tracer_.task_});
    tracer_.open_.push_back(index_);
  }
  if (is_call_ || index_ != kNone) start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (!is_call_ && index_ == kNone) return;
  const std::uint64_t end = NowNs();
  if (is_call_) tracer_.call_ns_ += end - start_ns_;
  if (index_ != kNone) {
    Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.start_ns = start_ns_;
    span.end_ns = end;
    tracer_.open_.pop_back();
  }
}

void Tracer::BeginTask(std::int64_t task, std::string_view name) {
  task_ = task;
  if (!recording_) return;
  task_span_ = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::string{name}, "bench.task", NowNs(), 0,
                    open_.empty() ? kNone : open_.back(), task});
  open_.push_back(task_span_);
}

void Tracer::EndTask() {
  if (task_span_ != kNone) {
    spans_[static_cast<std::size_t>(task_span_)].end_ns = NowNs();
    open_.pop_back();
    task_span_ = kNone;
  }
  task_ = kNone;
}

std::uint64_t Tracer::TakeCallNs() { return std::exchange(call_ns_, 0); }

std::vector<Span> Tracer::TakeSpans() { return std::exchange(spans_, {}); }

void NestByContainment(std::vector<Span>& spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.end_ns > b.end_ns;
                   });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns) {
      open.pop_back();
    }
    // Pop parents that end before this span does: with proper nesting this
    // never happens, and an improperly nested span must not adopt them.
    while (!open.empty() && spans[open.back()].end_ns < spans[i].end_ns) {
      open.pop_back();
    }
    spans[i].parent = open.empty() ? kNone : static_cast<std::int64_t>(open.back());
    if (spans[i].task == kNone && !open.empty()) {
      spans[i].task = spans[open.back()].task;
    }
    open.push_back(i);
  }
}

namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

// Length of the union of `intervals` clipped to [lo, hi).
std::uint64_t CoveredNs(std::vector<Interval> intervals, std::uint64_t lo,
                        std::uint64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::clamp(iv.first, lo, hi);
    iv.second = std::clamp(iv.second, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;
  for (const auto& [begin, end] : intervals) {
    const std::uint64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNone) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns,
                                                                  span.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].Duration() -
              CoveredNs(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

std::map<std::string, std::uint64_t> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  std::map<std::string, std::uint64_t> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) by_layer[spans[i].layer] += self[i];
  return by_layer;
}

std::uint64_t UncoveredNs(const std::vector<Span>& spans, std::uint64_t begin,
                          std::uint64_t end) {
  std::vector<Interval> all;
  all.reserve(spans.size());
  for (const Span& span : spans) all.emplace_back(span.start_ns, span.end_ns);
  return (end - begin) - CoveredNs(std::move(all), begin, end);
}

}  // namespace perfbench
