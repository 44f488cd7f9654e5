// ProbabilityEvaluator: a method-dispatching facade over the exact and
// approximate Pr(φ) algorithms, holding the variable distributions.
//
// Beyond dispatch, the evaluator owns the two optimizations that carry
// the crowdsourcing loop (see DESIGN.md, "Concurrency & caching model"):
//
//  * a memo cache keyed by condition fingerprint, stamped with the
//    distribution epochs of the variables the condition mentions.
//    Folding a crowd answer only re-conditions the answered variable's
//    distribution, so SetDistribution() evicts exactly the cached
//    conditions that mention it (variable-indexed invalidation) and
//    every other entry keeps serving hits across rounds;
//  * a batch API (EvaluateAll / EvaluateBatch) that fans the independent
//    model-counting calls of one round across an optional ThreadPool,
//    with per-lane AdpllStats merged after the barrier. Results are
//    written into per-index slots and sampling draws use per-condition
//    seeds, so outputs are bit-identical for any thread count.

#ifndef BAYESCROWD_PROBABILITY_EVALUATOR_H_
#define BAYESCROWD_PROBABILITY_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "ctable/condition.h"
#include "ctable/ctable.h"
#include "obs/metrics.h"
#include "probability/adpll.h"
#include "probability/distributions.h"
#include "probability/governor.h"
#include "probability/interval.h"
#include "probability/naive.h"
#include "probability/sampling.h"

namespace bayescrowd {

enum class ProbabilityMethod : std::uint8_t {
  kAdpll,
  kNaive,
  kSampled,
};

const char* ProbabilityMethodToString(ProbabilityMethod method);

struct ProbabilityOptions {
  ProbabilityMethod method = ProbabilityMethod::kAdpll;
  AdpllOptions adpll;
  NaiveOptions naive;
  SamplingOptions sampling;
  /// Seeds the per-condition sampling streams (see ConditionRng).
  std::uint64_t sampling_seed = 1234;

  /// Memoize Pr(φ) per condition fingerprint (exact methods only;
  /// sampled estimates are never cached). Disable for ablations.
  bool memoize = true;

  /// Resource budgets + degradation ladder for every evaluation (see
  /// governor.h). Inert (no budgets) by default: exact solves then run
  /// with the method's own options, and only a solve that exhausts the
  /// method's own limits (AdpllOptions::max_calls) walks the ladder.
  GovernorOptions governor;

  /// Tenant-safe cache scope. Folded into every memo stamp (alongside
  /// BudgetTag), so two sessions over *different* datasets or tenants
  /// can exchange memo blobs through a shared cache without aliasing:
  /// DistStamp digests
  /// distribution *epochs*, not values, and two fresh sessions start
  /// at identical epochs — without a scope key, dataset A's cached
  /// Pr(φ) could validate against dataset B's equal-fingerprint
  /// condition. A serving layer derives this from the tenant id plus
  /// the dataset/options fingerprint (see serve/cache.h). 0 (the
  /// default) contributes nothing to the stamp.
  std::uint64_t cache_scope = 0;
};

/// Cumulative memo-cache counters (never reset by the evaluator; take
/// before/after snapshots for per-phase rates).
struct EvaluatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    // Lookups that had to compute.
  std::uint64_t evictions = 0; // Entries dropped by invalidation.
};

/// Owns the distributions and dispatches Pr(φ) to the selected method.
class ProbabilityEvaluator {
 public:
  explicit ProbabilityEvaluator(ProbabilityOptions options = {})
      : options_(std::move(options)) {
    BindMetrics(nullptr);
  }

  /// Mutable access for bulk setup. Mutating distributions through this
  /// handle bypasses variable-indexed invalidation, so it conservatively
  /// drops the whole memo cache; use SetDistribution() on hot paths.
  DistributionMap& distributions() {
    ClearCache();
    return dists_;
  }
  const DistributionMap& distributions() const { return dists_; }

  /// Registers or replaces one variable's distribution and evicts
  /// exactly the cached conditions that mention it.
  Status SetDistribution(const CellRef& var, std::vector<double> dist);

  const ProbabilityOptions& options() const { return options_; }
  ProbabilityOptions& options() { return options_; }

  /// Optional worker pool for the batch APIs (non-owning; nullptr means
  /// evaluate sequentially on the calling thread).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Pr(φ) by the configured method (memoized): the midpoint of
  /// ProbabilityInterval().
  Result<double> Probability(const Condition& condition);

  /// Governed Pr(φ): exact when the budget suffices (lo == hi), a
  /// graded interval otherwise.
  Result<ProbInterval> ProbabilityInterval(const Condition& condition);

  /// Pr(φ) for a batch of conditions, fanned across the thread pool.
  /// results[i] corresponds to conditions[i]; decided conditions cost
  /// nothing. Deterministic for any pool size.
  Result<std::vector<double>> EvaluateBatch(
      const std::vector<const Condition*>& conditions);

  /// Interval-valued batch evaluation (the governed primitive the
  /// double-valued APIs delegate to). Deterministic for any pool size:
  /// per-index result slots, per-lane stat tallies, per-condition
  /// sampling streams.
  Result<std::vector<ProbInterval>> EvaluateBatchIntervals(
      const std::vector<const Condition*>& conditions);

  /// Pr(φ(o)) for every object id in `ids` (batch over a c-table).
  Result<std::vector<double>> EvaluateAll(const CTable& ctable,
                                          const std::vector<std::size_t>& ids);

  /// Interval-valued EvaluateAll.
  Result<std::vector<ProbInterval>> EvaluateAllIntervals(
      const CTable& ctable, const std::vector<std::size_t>& ids);

  /// Pr(e) of one expression.
  Result<double> Probability(const Expression& expression) const {
    return ExpressionProbability(expression, dists_);
  }

  /// Evicts every cached condition mentioning `var` and bumps its
  /// distribution epoch (also done by SetDistribution).
  void InvalidateVariable(const CellRef& var);

  /// Drops the entire memo cache.
  void ClearCache();

  /// True when Pr(condition) would be served from the memo cache.
  bool IsCached(const Condition& condition) const;

  std::size_t CacheSize() const { return cache_.size(); }

  /// Cache and ADPLL counters, read back from the bound metrics
  /// registry (by value: the registry is the single source of truth).
  EvaluatorCacheStats cache_stats() const;
  AdpllStats adpll_stats() const;

  /// Governor counters ("solver.*"), read back the same way. Every
  /// uncached solve tallies one tier, so an inert governor counts its
  /// exact solves in tier_exact.
  GovernorTally solver_stats() const;

  /// Points the evaluator's instruments ("evaluator.cache.*",
  /// "adpll.*", "evaluator.batch.*") at `registry`. nullptr (the
  /// constructor default) binds a private registry, so fresh evaluators
  /// always start from zeroed counters; the framework rebinds to its
  /// per-run registry. Not thread-safe against concurrent evaluation.
  void BindMetrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Cost-attribution context. Every deterministic cost unit the
  /// evaluator produces (cost.adpll_nodes, cost.cache_hits /
  /// cost.cache_misses) is charged to a labeled series
  /// {session, phase, solver_tier}; the framework
  /// switches the phase at each round-loop boundary ("select",
  /// "update", "answer"). Handles re-resolve only when the context
  /// actually changes — a few mutexed map lookups per phase switch, and
  /// the per-evaluation charges stay lock-free relaxed adds. Charging
  /// happens at the deterministic fold points (sequential cache pass,
  /// post-barrier merge), so labeled totals are byte-identical at any
  /// thread count. Call after BindMetrics; not thread-safe against
  /// concurrent evaluation.
  void SetCostContext(const std::string& session, const std::string& phase);
  const std::string& cost_session() const { return cost_session_; }
  const std::string& cost_phase() const { return cost_phase_; }

  /// Replaces the solver governor for every subsequent evaluation — the
  /// serving layer's QoS hook (a heavy tenant's sessions get walked
  /// down to tighter budgets at round boundaries). BudgetTag() follows
  /// the new configuration, so memo entries written under the old
  /// budgets simply stop matching (sound, never wrong). Deterministic
  /// as long as callers tighten only at deterministic points; not
  /// thread-safe against concurrent evaluation.
  void SetGovernor(const GovernorOptions& governor) {
    options_.governor = governor;
  }
  const GovernorOptions& governor() const { return options_.governor; }

  /// Appends the memo state (cache entries with their stamps, variable
  /// index, distribution epochs) to `out` in a canonical binary form,
  /// so a resumed session replays the exact hit/miss sequence of the
  /// uninterrupted run. Distributions are NOT included — the caller
  /// re-derives them from checkpointed knowledge. The blob ("memo
  /// format 3") carries no version of its own: the enclosing checkpoint
  /// envelope's version fixes its layout (core/checkpoint.h).
  void SerializeMemoState(std::string* out) const;

  /// Restores state written by SerializeMemoState. Call after the
  /// post-resume SetDistribution pass: the imported epochs overwrite the
  /// setup-time ones, keeping the saved stamps valid. A blob that does
  /// not parse leaves the evaluator untouched.
  Status RestoreMemoState(BinReader* reader);

  /// Warm-start merge for a shared cross-session cache: imports the
  /// memo entries and variable index of a SerializeMemoState blob
  /// WITHOUT touching this evaluator's distribution epochs or
  /// existing entries (existing entries win on fingerprint
  /// collisions; RestoreMemoState, by contrast, clears everything and
  /// adopts the blob's epochs). An imported entry only ever serves a
  /// hit when its stamp validates against the *local* epochs and
  /// scope/budget tags — the standard lookup check — so merging a
  /// foreign blob is always sound; mismatched entries are dead weight,
  /// never wrong answers. Returns the number of memo entries imported.
  Result<std::size_t> MergeMemoState(BinReader* reader);

 private:
  struct CacheEntry {
    ProbInterval interval;    // Exact entries have lo == hi.
    std::uint64_t stamp = 0;  // Distribution-epoch stamp at insertion.
  };

  /// One parsed SerializeMemoState blob, section by section.
  struct MemoBlob {
    std::vector<std::pair<ConditionFingerprint, CacheEntry>> entries;
    std::vector<std::pair<PackedVar, std::vector<ConditionFingerprint>>>
        index;
    std::vector<std::pair<PackedVar, std::uint64_t>> epochs;
  };

  /// The one reader behind RestoreMemoState and MergeMemoState: parses
  /// a blob without touching any evaluator state.
  static Status ParseMemoBlob(BinReader* reader, MemoBlob* out);

  /// Order-insensitive digest of the distribution epochs of every
  /// variable occurrence in `condition`; changes whenever any mentioned
  /// variable's distribution is replaced.
  std::uint64_t DistStamp(const Condition& condition) const;

  /// Budget-tier component of cache stamps: entries computed under one
  /// governor configuration never satisfy lookups under another (a
  /// low-budget interval must not be served where a higher-budget
  /// exact value was asked for).
  std::uint64_t BudgetTag() const { return options_.governor.Fingerprint(); }

  /// Tenant-scope component of cache stamps (see
  /// ProbabilityOptions::cache_scope). 0 for the default scope.
  std::uint64_t ScopeTag() const;

  bool Memoizable() const {
    return options_.memoize &&
           (options_.method == ProbabilityMethod::kAdpll ||
            options_.method == ProbabilityMethod::kNaive);
  }

  /// The one uncached evaluation: runs the configured method under the
  /// SolverGovernor, walking the degradation ladder when a budget (or
  /// the method's own limit) runs out. Sampling draws come from the
  /// condition's own stream (ConditionRng), so evaluation order cannot
  /// leak into results; `stats` receives ADPLL counters, `tally` the
  /// governor counters; `scratch` holds the solver's reusable per-lane
  /// buffers (nullptr: per-call buffers).
  Result<ProbInterval> ComputeInterval(const Condition& condition,
                                       const ConditionFingerprint& fingerprint,
                                       AdpllStats* stats,
                                       GovernorTally* tally,
                                       AdpllScratch* scratch);

  /// Ensures the per-lane solver scratch covers `lanes` lanes.
  void ReserveScratch(std::size_t lanes);

  /// Deterministic per-condition sampling stream.
  Rng ConditionRng(const ConditionFingerprint& fingerprint) const;

  void Insert(const ConditionFingerprint& fingerprint,
              const Condition& condition, const ProbInterval& interval);

  /// Folds one (per-call or per-lane) ADPLL tally into the counters.
  void AddAdpllStats(const AdpllStats& stats);

  /// Same for the governor counters.
  void AddSolverTally(const GovernorTally& tally);

  ProbabilityOptions options_;
  DistributionMap dists_;

  ThreadPool* pool_ = nullptr;

  std::unordered_map<ConditionFingerprint, CacheEntry,
                     ConditionFingerprintHash>
      cache_;

  /// Per-lane solver scratch (element 0 serves the sequential paths);
  /// grown to the pool width before a parallel batch pass.
  std::vector<AdpllScratch> adpll_scratch_;
  /// Fingerprints of cached conditions per mentioned variable (may hold
  /// stale fingerprints; eviction tolerates them).
  std::unordered_map<PackedVar, std::vector<ConditionFingerprint>>
      var_index_;
  /// Times each variable's distribution has been replaced.
  std::unordered_map<PackedVar, std::uint64_t> var_epoch_;

  /// Metrics sink (never null after construction) and resolved
  /// instrument handles — lock-free increments on the hot paths.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* adpll_calls = nullptr;
    obs::Counter* adpll_branches = nullptr;
    obs::Counter* adpll_direct_evals = nullptr;
    obs::Counter* adpll_component_splits = nullptr;
    obs::Counter* adpll_star_evals = nullptr;
    obs::Counter* solver_budget_exhausted = nullptr;
    obs::Counter* solver_deadline_hits = nullptr;
    obs::Counter* solver_tier_exact = nullptr;
    obs::Counter* solver_tier_partial = nullptr;
    obs::Counter* solver_tier_sampled = nullptr;
    obs::Counter* solver_tier_unknown = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* batch_misses = nullptr;
  } ins_;

  /// Labeled cost-unit handles, one per solver tier (ProbQuality's four
  /// grades), re-resolved by SetCostContext / BindMetrics.
  static constexpr std::size_t kTierCount = 4;
  void ResolveCostInstruments();
  std::size_t TierIndex(ProbQuality quality) const {
    return static_cast<std::size_t>(quality) < kTierCount
               ? static_cast<std::size_t>(quality)
               : kTierCount - 1;
  }
  std::string cost_session_ = "s0";
  std::string cost_phase_ = "adhoc";
  struct CostInstruments {
    obs::Counter* adpll_nodes[kTierCount] = {};
    obs::Counter* cache_hits[kTierCount] = {};
    obs::Counter* cache_misses[kTierCount] = {};
  } cost_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_EVALUATOR_H_
