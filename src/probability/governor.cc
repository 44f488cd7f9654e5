#include "probability/governor.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/trace.h"

namespace bayescrowd {
namespace {

std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool AllowsPartialTier(LadderMode mode) {
  return mode == LadderMode::kFull || mode == LadderMode::kInterval;
}

bool AllowsSampleTier(LadderMode mode) {
  return mode == LadderMode::kFull || mode == LadderMode::kSample;
}

// Arms `control` with the wall-clock cap and returns it, or returns
// `fallback` (the caller's own control, usually null) without a
// deadline: an ungoverned solve then polls exactly what it polled
// before, so its exact tier costs and computes the same.
SolverControl* ArmDeadline(std::int64_t deadline_ms, SolverControl* control,
                           SolverControl* fallback) {
  if (deadline_ms <= 0) return fallback;
  control->SetDeadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms));
  return control;
}

}  // namespace

const char* ProbQualityToString(ProbQuality quality) {
  switch (quality) {
    case ProbQuality::kExact:
      return "exact";
    case ProbQuality::kPartialBound:
      return "partial";
    case ProbQuality::kSampledCI:
      return "sampled";
    case ProbQuality::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* LadderModeToString(LadderMode mode) {
  switch (mode) {
    case LadderMode::kFull:
      return "full";
    case LadderMode::kInterval:
      return "interval";
    case LadderMode::kSample:
      return "sample";
    case LadderMode::kStrict:
      return "strict";
  }
  return "?";
}

bool ParseLadderMode(const std::string& name, LadderMode* mode) {
  if (name == "full") {
    *mode = LadderMode::kFull;
  } else if (name == "interval") {
    *mode = LadderMode::kInterval;
  } else if (name == "sample") {
    *mode = LadderMode::kSample;
  } else if (name == "strict") {
    *mode = LadderMode::kStrict;
  } else {
    return false;
  }
  return true;
}

std::uint64_t GovernorOptions::Fingerprint() const {
  // Inert governors are hashed too: a solve that exhausts the solver's
  // own max_calls walks their ladder. The deadline *value* is excluded
  // (wall-clock degrades, never changes results), but enabled() is
  // not: a deadline-only governor may cache degraded intervals that
  // must not be served to a run without budgets.
  std::uint64_t h = SplitMix64(0xB0D6E7ULL ^ (enabled() ? 1 : 0));
  h = SplitMix64(h ^ max_nodes);
  h = SplitMix64(h ^ max_components);
  h = SplitMix64(h ^ static_cast<std::uint64_t>(ladder));
  h = SplitMix64(h ^ static_cast<std::uint64_t>(interval_samples));
  std::uint64_t z_bits = 0;
  static_assert(sizeof(z_bits) == sizeof(confidence_z));
  std::memcpy(&z_bits, &confidence_z, sizeof(z_bits));
  return SplitMix64(h ^ z_bits);
}

Result<ProbInterval> SolverGovernor::SampleTier(
    const Condition& condition, const DistributionMap& dists,
    const SamplingOptions& sampling, SolverControl* control, Rng& rng,
    GovernorTally* tally) const {
  BAYESCROWD_TRACE_SPAN("governor.tier.sampled");
  SamplingOptions tier = sampling;
  tier.num_samples = options_.interval_samples;
  tier.control = control;
  Result<ProbInterval> ci = SampledProbabilityInterval(
      condition, dists, tier, options_.confidence_z, rng);
  if (ci.ok() && tally != nullptr) ++tally->tier_sampled;
  return ci;
}

Result<ProbInterval> SolverGovernor::Evaluate(
    const Condition& condition, const DistributionMap& dists,
    const AdpllOptions& base, const SamplingOptions& sampling, Rng& rng,
    AdpllStats* stats, GovernorTally* tally, AdpllScratch* scratch) const {
  SolverControl control;
  AdpllOptions governed = base;
  if (options_.max_nodes > 0) {
    governed.max_calls = std::min(base.max_calls, options_.max_nodes);
    governed.max_conjunct_assignments =
        base.max_conjunct_assignments > 0
            ? std::min(base.max_conjunct_assignments, options_.max_nodes)
            : options_.max_nodes;
  }
  if (options_.max_components > 0) {
    governed.max_component_splits =
        base.max_component_splits > 0
            ? std::min(base.max_component_splits, options_.max_components)
            : options_.max_components;
  }
  governed.control = ArmDeadline(options_.deadline_ms, &control, base.control);

  // Tier 1: exact ADPLL within the budget. No span of its own: the
  // caller's adpll.solve span covers it, one span per solve.
  Result<double> exact =
      AdpllProbability(condition, dists, governed, stats, scratch);
  if (exact.ok()) {
    if (tally != nullptr) ++tally->tier_exact;
    return ProbInterval::Exact(exact.value());
  }
  if (exact.status().code() != StatusCode::kResourceExhausted) {
    return exact.status();
  }
  if (tally != nullptr) {
    ++tally->budget_exhausted;
    if (control.stopped()) ++tally->deadline_hits;
  }

  // Tier 2: partial ADPLL with the same deterministic budget; closed
  // subtrees widen the answer instead of aborting it.
  if (AllowsPartialTier(options_.ladder)) {
    BAYESCROWD_TRACE_SPAN("governor.tier.partial");
    BAYESCROWD_ASSIGN_OR_RETURN(
        const ProbInterval partial,
        AdpllPartialProbability(condition, dists, governed, stats, nullptr,
                                scratch));
    if (partial.width() < 1.0) {
      if (tally != nullptr) {
        if (partial.exact()) {
          ++tally->tier_exact;
        } else {
          ++tally->tier_partial;
        }
      }
      return partial;
    }
  }

  // Tier 3: sampled estimate with a confidence interval.
  if (AllowsSampleTier(options_.ladder)) {
    Result<ProbInterval> ci =
        SampleTier(condition, dists, sampling, governed.control, rng,
                   tally);
    if (ci.ok()) return ci;
    if (ci.status().code() != StatusCode::kResourceExhausted) {
      return ci.status();
    }
  }

  // Tier 4: nothing learned in budget.
  if (tally != nullptr) ++tally->tier_unknown;
  return ProbInterval::Unknown();
}

Result<ProbInterval> SolverGovernor::EvaluateNaive(
    const Condition& condition, const DistributionMap& dists,
    const NaiveOptions& base, const SamplingOptions& sampling, Rng& rng,
    GovernorTally* tally) const {
  SolverControl control;
  NaiveOptions governed = base;
  if (options_.max_nodes > 0) {
    governed.max_assignments =
        std::min(base.max_assignments, options_.max_nodes);
  }
  governed.control = ArmDeadline(options_.deadline_ms, &control, base.control);

  Result<double> exact = NaiveProbability(condition, dists, governed);
  if (exact.ok()) {
    if (tally != nullptr) ++tally->tier_exact;
    return ProbInterval::Exact(exact.value());
  }
  if (exact.status().code() != StatusCode::kResourceExhausted) {
    return exact.status();
  }
  if (tally != nullptr) {
    ++tally->budget_exhausted;
    if (control.stopped()) ++tally->deadline_hits;
  }

  if (AllowsPartialTier(options_.ladder)) {
    BAYESCROWD_TRACE_SPAN("governor.tier.partial");
    BAYESCROWD_ASSIGN_OR_RETURN(
        const ProbInterval partial,
        NaiveBoundedProbability(condition, dists, governed));
    if (partial.width() < 1.0) {
      if (tally != nullptr) {
        if (partial.exact()) {
          ++tally->tier_exact;
        } else {
          ++tally->tier_partial;
        }
      }
      return partial;
    }
  }

  if (AllowsSampleTier(options_.ladder)) {
    Result<ProbInterval> ci =
        SampleTier(condition, dists, sampling, governed.control, rng,
                   tally);
    if (ci.ok()) return ci;
    if (ci.status().code() != StatusCode::kResourceExhausted) {
      return ci.status();
    }
  }

  if (tally != nullptr) ++tally->tier_unknown;
  return ProbInterval::Unknown();
}

Result<ProbInterval> SolverGovernor::EvaluateSampled(
    const Condition& condition, const DistributionMap& dists,
    const SamplingOptions& base, Rng& rng, GovernorTally* tally) const {
  // No exact tier to budget: only the wall-clock cap applies, and a
  // cancelled estimate degrades straight to [0, 1].
  SolverControl control;
  SamplingOptions governed = base;
  governed.control = ArmDeadline(options_.deadline_ms, &control, base.control);
  Result<double> p = SampledProbability(condition, dists, governed, rng);
  if (p.ok()) {
    if (tally != nullptr) ++tally->tier_sampled;
    return ProbInterval{p.value(), p.value(), ProbQuality::kSampledCI};
  }
  if (p.status().code() != StatusCode::kResourceExhausted) {
    return p.status();
  }
  if (tally != nullptr) {
    ++tally->budget_exhausted;
    if (control.stopped()) ++tally->deadline_hits;
    ++tally->tier_unknown;
  }
  return ProbInterval::Unknown();
}

}  // namespace bayescrowd
