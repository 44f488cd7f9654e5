#include "probability/sampling.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "probability/naive.h"

namespace bayescrowd {
namespace {

// Gathers the variables and their distributions; NotFound if any is
// unregistered.
Status CollectDistributions(
    const Condition& condition, const DistributionMap& dists,
    std::vector<CellRef>* vars,
    std::vector<const std::vector<double>*>* var_dists) {
  *vars = condition.Variables();
  var_dists->resize(vars->size());
  for (std::size_t i = 0; i < vars->size(); ++i) {
    (*var_dists)[i] = dists.Find((*vars)[i]);
    if ((*var_dists)[i] == nullptr) {
      return Status::NotFound(
          StrFormat("no distribution for Var(%zu,%zu)", (*vars)[i].object,
                    (*vars)[i].attribute));
    }
  }
  return Status::OK();
}

Level SampleFrom(const std::vector<double>& dist, Rng& rng) {
  double target = rng.NextDouble();
  for (std::size_t v = 0; v < dist.size(); ++v) {
    target -= dist[v];
    if (target < 0.0) return static_cast<Level>(v);
  }
  return static_cast<Level>(dist.size()) - 1;
}

}  // namespace

Result<double> SampledProbability(const Condition& condition,
                                  const DistributionMap& dists,
                                  const SamplingOptions& options, Rng& rng) {
  if (condition.IsTrue()) return 1.0;
  if (condition.IsFalse()) return 0.0;
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be > 0");
  }

  std::vector<CellRef> vars;
  std::vector<const std::vector<double>*> var_dists;
  BAYESCROWD_RETURN_NOT_OK(
      CollectDistributions(condition, dists, &vars, &var_dists));

  std::map<CellRef, std::size_t> index;
  for (std::size_t i = 0; i < vars.size(); ++i) index[vars[i]] = i;
  std::vector<Level> assignment(vars.size());
  const auto value_of = [&](const CellRef& var) {
    return assignment[index.at(var)];
  };

  std::size_t hits = 0;
  for (std::size_t s = 0; s < options.num_samples; ++s) {
    if (options.control != nullptr && options.control->ShouldStop()) {
      return Status::ResourceExhausted("sampling cancelled");
    }
    for (std::size_t i = 0; i < vars.size(); ++i) {
      assignment[i] = SampleFrom(*var_dists[i], rng);
    }
    if (EvaluateConditionComplete(condition, value_of)) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(options.num_samples);
}

Result<ProbInterval> SampledProbabilityInterval(const Condition& condition,
                                                const DistributionMap& dists,
                                                const SamplingOptions& options,
                                                double confidence_z,
                                                Rng& rng) {
  if (condition.IsTrue()) return ProbInterval::Exact(1.0);
  if (condition.IsFalse()) return ProbInterval::Exact(0.0);
  BAYESCROWD_ASSIGN_OR_RETURN(
      const double estimate,
      SampledProbability(condition, dists, options, rng));
  const double n = static_cast<double>(options.num_samples);
  const double half =
      confidence_z * std::sqrt(estimate * (1.0 - estimate) / n) + 0.5 / n;
  ProbInterval out;
  out.lo = std::max(0.0, estimate - half);
  out.hi = std::min(1.0, estimate + half);
  out.quality = ProbQuality::kSampledCI;
  return out;
}

}  // namespace bayescrowd
