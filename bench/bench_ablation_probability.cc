// Ablation: the design choices inside the probability engine.
//
// On the undecided conditions of a real c-table (NBA, missing rate 0.1):
//  * ADPLL variants: star fast path on/off, component decomposition
//    on/off, branching-variable heuristic (most-frequent / first /
//    random);
//  * the generalized-ApproxCount Monte-Carlo estimator at several
//    sample counts, with its mean absolute error vs the exact answer as
//    a counter.
//
// Expected shape: star + decomposition + most-frequent is the fastest
// exact configuration (the paper's ADPLL conclusion); sampling trades
// error for time and is dominated by exact ADPLL at this condition size
// (Section 5's finding that ApproxCount "performs worse in both
// efficiency and accuracy").

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "common/random.h"
#include "ctable/builder.h"
#include "probability/adpll.h"
#include "probability/sampling.h"

namespace bayescrowd::bench {
namespace {

struct AblationCase {
  Table incomplete;
  CTable ctable;
  DistributionMap dists;
  std::vector<std::size_t> conditions;
  std::vector<double> exact;  // Reference probabilities (default ADPLL).
};

const AblationCase& Prepare() {
  static auto* cache = new AblationCase();
  static bool ready = false;
  if (ready) return *cache;

  cache->incomplete = WithMissingRate(NbaComplete(), 0.1);
  auto ctable = BuildCTable(cache->incomplete, {.alpha = 0.003});
  BAYESCROWD_CHECK_OK(ctable.status());
  cache->ctable = std::move(ctable).value();
  const auto& net = LearnedNetwork(cache->incomplete, "ablation");
  BnPosteriorProvider posteriors(net, cache->incomplete);
  for (const CellRef& var : cache->ctable.AllVariables()) {
    auto dist = posteriors.Posterior(var);
    BAYESCROWD_CHECK_OK(dist.status());
    BAYESCROWD_CHECK_OK(cache->dists.Set(var, std::move(dist).value()));
  }
  cache->conditions = cache->ctable.UndecidedObjects();
  for (std::size_t i : cache->conditions) {
    auto p = AdpllProbability(cache->ctable.condition(i), cache->dists);
    BAYESCROWD_CHECK_OK(p.status());
    cache->exact.push_back(p.value());
  }
  ready = true;
  return *cache;
}

void RunAdpllVariant(benchmark::State& state, bool star, bool components,
                     BranchHeuristic heuristic) {
  const AblationCase& c = Prepare();
  AdpllOptions options;
  options.star_fast_path = star;
  options.component_decomposition = components;
  options.heuristic = heuristic;
  AdpllStats stats;
  for (auto _ : state) {
    for (std::size_t i : c.conditions) {
      auto p = AdpllProbability(c.ctable.condition(i), c.dists, options,
                                &stats);
      BAYESCROWD_CHECK_OK(p.status());
      benchmark::DoNotOptimize(p);
    }
  }
  state.counters["conditions"] = static_cast<double>(c.conditions.size());
  state.counters["recursive_calls"] = static_cast<double>(stats.calls);
  state.counters["branches"] = static_cast<double>(stats.branches);
}

void BM_Ablation_Adpll_Full(benchmark::State& state) {
  RunAdpllVariant(state, true, true, BranchHeuristic::kMostFrequent);
}
void BM_Ablation_Adpll_NoStar(benchmark::State& state) {
  RunAdpllVariant(state, false, true, BranchHeuristic::kMostFrequent);
}
void BM_Ablation_Adpll_NoStarNoComponents(benchmark::State& state) {
  RunAdpllVariant(state, false, false, BranchHeuristic::kMostFrequent);
}
void BM_Ablation_Adpll_FirstVariable(benchmark::State& state) {
  RunAdpllVariant(state, false, true, BranchHeuristic::kFirst);
}
void BM_Ablation_Adpll_RandomVariable(benchmark::State& state) {
  RunAdpllVariant(state, false, true, BranchHeuristic::kRandom);
}

void BM_Ablation_MonteCarlo(benchmark::State& state) {
  const AblationCase& c = Prepare();
  SamplingOptions options;
  options.num_samples = static_cast<std::size_t>(state.range(0));
  Rng rng(2024);
  double abs_err = 0.0;
  for (auto _ : state) {
    abs_err = 0.0;
    for (std::size_t k = 0; k < c.conditions.size(); ++k) {
      const Condition& cond = c.ctable.condition(c.conditions[k]);
      auto p = SampledProbability(cond, c.dists, options, rng);
      BAYESCROWD_CHECK_OK(p.status());
      abs_err += std::abs(p.value() - c.exact[k]);
    }
  }
  state.counters["samples"] = static_cast<double>(options.num_samples);
  state.counters["mean_abs_error"] =
      abs_err / static_cast<double>(c.conditions.size());
}

void VariantArgs(benchmark::internal::Benchmark* bench) {
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}
void SampleArgs(benchmark::internal::Benchmark* bench) {
  for (std::int64_t samples : {100, 1000, 10000}) bench->Arg(samples);
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Ablation_Adpll_Full)->Apply(VariantArgs);
BENCHMARK(BM_Ablation_Adpll_NoStar)->Apply(VariantArgs);
BENCHMARK(BM_Ablation_Adpll_NoStarNoComponents)->Apply(VariantArgs);
BENCHMARK(BM_Ablation_Adpll_FirstVariable)->Apply(VariantArgs);
BENCHMARK(BM_Ablation_Adpll_RandomVariable)->Apply(VariantArgs);
BENCHMARK(BM_Ablation_MonteCarlo)->Apply(SampleArgs);

}  // namespace
}  // namespace bayescrowd::bench

BC_BENCH_MAIN("ablation_probability");
