// Self-tests of the benchmark: the trace decorators under concurrent
// callers, the span arithmetic, and a determinism check that runs each
// workload twice in short form and compares everything that must repeat
// exactly. A mismatch there is a nondeterminism bug, not timing noise.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace qbench {
namespace {

using bayescrowd::CellRef;
using bayescrowd::Result;
using bayescrowd::Task;
using bayescrowd::TaskAnswer;

class ConstantPosteriors : public bayescrowd::PosteriorProvider {
 public:
  Result<std::vector<double>> Posterior(const CellRef&) override {
    return std::vector<double>{0.25, 0.75};
  }
};

class EchoPlatform : public bayescrowd::CrowdPlatform {
 public:
  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    std::vector<TaskAnswer> answers(tasks.size());
    if (!answers.empty()) answers.front().answered = false;
    return answers;
  }
  std::size_t total_tasks() const override { return 0; }
  std::size_t total_rounds() const override { return 0; }
};

constexpr int kThreads = 4;
constexpr int kCallsPerThread = 2000;

TEST(TraceDecoratorTest, PosteriorsCountEveryConcurrentCall) {
  SpanRecorder recorder;
  recorder.SetCurrent(/*span=*/77, /*query=*/5);
  TracedPosteriors traced(std::make_shared<ConstantPosteriors>(), recorder);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto posterior = traced.Posterior(CellRef{0, 0});
        ASSERT_TRUE(posterior.ok());
        ASSERT_EQ(posterior.value().size(), 2u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t calls = kThreads * kCallsPerThread;
  EXPECT_EQ(recorder.counters().posterior_calls.load(), calls);
  const std::vector<Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), calls);
  std::set<std::uint64_t> ids;
  for (const Span& span : spans) {
    EXPECT_STREQ(span.name, "bayesnet.posterior");
    EXPECT_EQ(span.parent, 77u);
    EXPECT_EQ(span.query, 5);
    EXPECT_LE(span.start, span.end);
    ids.insert(span.id);
  }
  EXPECT_EQ(ids.size(), calls);
}

TEST(TraceDecoratorTest, PlatformCountsEveryConcurrentBatch) {
  SpanRecorder recorder;
  TracedPlatform traced(std::make_unique<EchoPlatform>(), recorder);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        ASSERT_TRUE(traced.PostBatch(std::vector<Task>(3)).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t calls = kThreads * kCallsPerThread;
  EXPECT_EQ(recorder.counters().posts.load(), calls);
  EXPECT_EQ(recorder.Collect().size(), calls);
}

TEST(TraceDecoratorTest, ScopedSpansNestAndRestoreTheCurrentSpan) {
  SpanRecorder recorder;
  std::uint64_t outer_id = 0;
  {
    ScopedSpan outer(&recorder, "outer", 1, 0);
    outer_id = outer.id();
    {
      ScopedSpan inner(&recorder, "inner", 1, outer.id());
      EXPECT_EQ(recorder.current_span(), inner.id());
    }
    EXPECT_EQ(recorder.current_span(), outer_id);
  }
  EXPECT_EQ(recorder.current_span(), 0u);
  const std::vector<Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, outer_id);

  ScopedSpan untraced(nullptr, "ignored", 0, 0);
  EXPECT_EQ(untraced.id(), 0u);
}

TEST(SpanMathTest, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"parent", 1, 0, 0, 0.0, 10.0},
      {"child", 2, 1, 0, 1.0, 4.0},
      {"child", 3, 1, 0, 3.0, 5.0},   // Overlaps the first child.
      {"child", 4, 1, 0, 9.0, 12.0},  // Runs past the parent.
  };
  const auto self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("parent"), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("child"), 3.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(Coverage(spans, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(Coverage({spans[1], spans[2]}, 0.0, 10.0), 0.4);
}

struct RunSummary {
  std::map<std::string, double> counts;
  std::vector<QueryAnswer> answers;
};

RunSummary ShortRun(const std::string& workload) {
  RunConfig config;
  config.workload = workload;
  config.seed = 3;
  config.seconds = 1.0;
  config.trace = true;
  config.short_form = true;
  config.data_dir = "qbench-test-data";
  auto report = RunWorkload(config);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  RunSummary summary;
  if (!report.ok()) return summary;
  EXPECT_EQ(report.value().failed, 0u);
  EXPECT_GE(report.value().metrics.at("trace.coverage").value, 0.95);
  for (const char* name :
       {"bayesnet.posterior_calls", "probability.cache_hits",
        "probability.cache_misses", "compile.builds", "crowd.votes",
        "crowd.tasks"}) {
    summary.counts[name] = report.value().metrics.at(name).value;
  }
  summary.answers = report.value().answers;
  return summary;
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, TwoShortRunsRepeatExactly) {
  const RunSummary first = ShortRun(GetParam());
  const RunSummary second = ShortRun(GetParam());
  ASSERT_FALSE(first.answers.empty());
  EXPECT_GT(first.counts.at("bayesnet.posterior_calls"), 0.0);
  EXPECT_EQ(first.counts, second.counts);
  ASSERT_EQ(first.answers.size(), second.answers.size());
  for (std::size_t i = 0; i < first.answers.size(); ++i) {
    EXPECT_EQ(first.answers[i].key, second.answers[i].key);
    EXPECT_EQ(first.answers[i].ids, second.answers[i].ids);
    EXPECT_EQ(first.answers[i].f1, second.answers[i].f1);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismTest,
                         ::testing::Values("nba10k", "synth10k", "serve-mix"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace qbench
