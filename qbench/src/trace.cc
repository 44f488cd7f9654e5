#include "trace.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace qbench {
namespace {

std::atomic<std::uint64_t> g_next_generation{1};

std::uint64_t Nanos(Clock::time_point start, Clock::time_point end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Length of the union of `intervals` clipped to [lo, hi].
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, reach);
    const double to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

}  // namespace

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1)), epoch_(Clock::now()) {}

SpanRecorder::Buffer* SpanRecorder::LocalBuffer() {
  // Generations are never reused, so an entry of a destroyed recorder
  // is never looked up again.
  thread_local std::unordered_map<std::uint64_t, Buffer*> local;
  Buffer*& buffer = local[generation_];
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

void SpanRecorder::Record(const char* name, std::uint64_t id,
                          std::uint64_t parent, std::int64_t query,
                          Clock::time_point start, Clock::time_point end) {
  LocalBuffer()->spans.push_back(
      Span{name, id, parent, query, Seconds(start), Seconds(end)});
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::int64_t query, std::uint64_t parent)
    : recorder_(recorder), name_(name), query_(query), parent_(parent) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->NewId();
  saved_span_ = recorder_->current_span();
  saved_query_ = recorder_->current_query();
  recorder_->SetCurrent(id_, query_);
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->Record(name_, id_, parent_, query_, start_, Clock::now());
  recorder_->SetCurrent(saved_span_, saved_query_);
}

bayescrowd::Result<std::vector<double>> TracedPosteriors::Posterior(
    const bayescrowd::CellRef& cell) {
  const std::uint64_t parent = recorder_.current_span();
  const std::int64_t query = recorder_.current_query();
  const Clock::time_point start = Clock::now();
  bayescrowd::Result<std::vector<double>> out = inner_->Posterior(cell);
  const Clock::time_point end = Clock::now();
  LayerCounters& counters = recorder_.counters();
  counters.posterior_calls.fetch_add(1, std::memory_order_relaxed);
  counters.posterior_ns.fetch_add(Nanos(start, end),
                                  std::memory_order_relaxed);
  recorder_.Record("bayesnet.posterior", recorder_.NewId(), parent, query,
                   start, end);
  return out;
}

bayescrowd::Result<std::vector<bayescrowd::TaskAnswer>>
TracedPlatform::PostBatch(const std::vector<bayescrowd::Task>& tasks) {
  const std::uint64_t parent = recorder_.current_span();
  const std::int64_t query = recorder_.current_query();
  const Clock::time_point start = Clock::now();
  auto out = inner_->PostBatch(tasks);
  const Clock::time_point end = Clock::now();
  LayerCounters& counters = recorder_.counters();
  counters.posts.fetch_add(1, std::memory_order_relaxed);
  counters.post_ns.fetch_add(Nanos(start, end), std::memory_order_relaxed);
  counters.tasks.fetch_add(tasks.size(), std::memory_order_relaxed);
  if (out.ok()) {
    std::uint64_t unanswered = 0;
    for (const bayescrowd::TaskAnswer& answer : out.value()) {
      unanswered += answer.answered ? 0 : 1;
    }
    counters.unanswered.fetch_add(unanswered, std::memory_order_relaxed);
  }
  recorder_.Record("crowd.post", recorder_.NewId(), parent, query, start,
                   end);
  return out;
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    double covered = 0.0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      covered = UnionLength(it->second, span.start, span.end);
    }
    self[span.name] += (span.end - span.start) - covered;
  }
  return self;
}

double Coverage(const std::vector<Span>& spans, double start, double end) {
  if (!(end > start)) return 1.0;
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(spans.size());
  for (const Span& span : spans) intervals.emplace_back(span.start, span.end);
  return UnionLength(std::move(intervals), start, end) / (end - start);
}

}  // namespace qbench
