// Sampling-based approximate probability computation — the generalized
// ApproxCount comparison point of Section 5. Assignments are forward-
// sampled from the variable distributions and the satisfaction rate is
// the estimate.

#ifndef BAYESCROWD_PROBABILITY_SAMPLING_H_
#define BAYESCROWD_PROBABILITY_SAMPLING_H_

#include <cstdint>

#include "common/random.h"
#include "common/result.h"
#include "ctable/condition.h"
#include "probability/distributions.h"
#include "probability/interval.h"

namespace bayescrowd {

struct SamplingOptions {
  std::size_t num_samples = 10'000;

  /// Cooperative cancellation, polled between samples. Non-owning; may
  /// be null. Aborts with ResourceExhausted.
  SolverControl* control = nullptr;
};

/// Monte-Carlo estimate of Pr(φ): fraction of sampled assignments that
/// satisfy the condition.
Result<double> SampledProbability(const Condition& condition,
                                  const DistributionMap& dists,
                                  const SamplingOptions& options, Rng& rng);

/// Monte-Carlo estimate wrapped in a normal-approximation confidence
/// interval (± z·sqrt(p̂(1−p̂)/n) + ½/n continuity margin, clamped to
/// [0,1]), graded kSampledCI — the generalized-ApproxCount tier of the
/// degradation ladder. Unlike the sound partial-ADPLL bounds this is a
/// *statistical* interval; `confidence_z` picks its level (2.576 ≈
/// 99%). Decided conditions come back exact.
Result<ProbInterval> SampledProbabilityInterval(const Condition& condition,
                                                const DistributionMap& dists,
                                                const SamplingOptions& options,
                                                double confidence_z, Rng& rng);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_SAMPLING_H_
