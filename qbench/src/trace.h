// Span recording for the benchmark's traced run.
//
// The benchmark records one span around every call it makes into a
// layer (LoadTableCsv, HillClimbStructure, QueryRunner::Step,
// SessionManager::Advance, ...) and wraps the two callbacks the program
// makes back into caller-supplied objects, PosteriorProvider::Posterior
// and CrowdPlatform::PostBatch, in decorators that record spans too.
// Spans stay in memory until the run ends; self times and coverage are
// computed from them afterwards.
//
// Thread safety: Record() may be called from any thread at once. Each
// thread appends to its own buffer (registered once per recorder under
// a mutex), and the decorators' totals are relaxed atomics, so a
// program that fans Posterior calls across its worker pool stays
// measurable. Collect() must run after every recording thread has
// finished.

#ifndef QBENCH_TRACE_H_
#define QBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "crowd/platform.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // Static string.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent.
  std::int64_t query = -1;   // -1 = not part of a query.
  double start = 0.0;        // Seconds since the recorder's epoch.
  double end = 0.0;
};

/// Totals the decorators accumulate, read after a run.
struct LayerCounters {
  std::atomic<std::uint64_t> posterior_calls{0};
  std::atomic<std::uint64_t> posterior_ns{0};
  std::atomic<std::uint64_t> posts{0};
  std::atomic<std::uint64_t> post_ns{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> unanswered{0};
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  double Seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Appends a finished span to the calling thread's buffer.
  void Record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t query, Clock::time_point start,
              Clock::time_point end);

  /// The layer call the client thread is inside. Decorators, which may
  /// run on any thread, parent their spans to it.
  void SetCurrent(std::uint64_t span, std::int64_t query) {
    current_span_.store(span, std::memory_order_relaxed);
    current_query_.store(query, std::memory_order_relaxed);
  }
  std::uint64_t current_span() const {
    return current_span_.load(std::memory_order_relaxed);
  }
  std::int64_t current_query() const {
    return current_query_.load(std::memory_order_relaxed);
  }

  LayerCounters& counters() { return counters_; }

  /// Every span recorded so far, ordered by start time.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const std::uint64_t generation_;  // Keys the per-thread buffer cache.
  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> current_span_{0};
  std::atomic<std::int64_t> current_query_{-1};
  LayerCounters counters_;

  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by buffers_mu_.
};

/// A span around one layer call made by the client thread; it is the
/// current span while it lives. A null recorder makes it a no-op, which
/// is how the untraced run uses it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t query,
             std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::int64_t query_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::uint64_t saved_span_ = 0;
  std::int64_t saved_query_ = -1;
  Clock::time_point start_;
};

/// Records a "bayesnet.posterior" span per call and forwards.
class TracedPosteriors : public bayescrowd::PosteriorProvider {
 public:
  TracedPosteriors(std::shared_ptr<bayescrowd::PosteriorProvider> inner,
                   SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  bayescrowd::Result<std::vector<double>> Posterior(
      const bayescrowd::CellRef& cell) override;

 private:
  std::shared_ptr<bayescrowd::PosteriorProvider> inner_;
  SpanRecorder& recorder_;
};

/// Records a "crowd.post" span per PostBatch and forwards every call.
class TracedPlatform : public bayescrowd::CrowdPlatform {
 public:
  TracedPlatform(std::unique_ptr<bayescrowd::CrowdPlatform> inner,
                 SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  bayescrowd::Result<std::vector<bayescrowd::TaskAnswer>> PostBatch(
      const std::vector<bayescrowd::Task>& tasks) override;
  std::size_t total_tasks() const override { return inner_->total_tasks(); }
  std::size_t total_rounds() const override {
    return inner_->total_rounds();
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  bayescrowd::Status LoadState(bayescrowd::BinReader* reader) override {
    return inner_->LoadState(reader);
  }
  void SyncReplayed(const std::vector<bayescrowd::Task>& tasks,
                    bool delivered) override {
    inner_->SyncReplayed(tasks, delivered);
  }

 private:
  std::unique_ptr<bayescrowd::CrowdPlatform> inner_;
  SpanRecorder& recorder_;
};

/// Self time per span name: each span's duration minus the part of it
/// that the union of its children covers, summed by name.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans);

/// Share of [start, end] covered by the union of `spans` clipped to it.
double Coverage(const std::vector<Span>& spans, double start, double end);

}  // namespace qbench

#endif  // QBENCH_TRACE_H_
