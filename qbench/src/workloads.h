// The benchmark's workloads and the closed-loop client that drives them.
//
// Every workload is a fixed pool of distinct queries, (tenant, table)
// pairs over tables generated from fixed per-table seeds, so that each
// answer has a committed reference. A run submits the pool several
// times over; the run seed fixes the submission order. All work goes
// through the layers' public APIs: data (LoadTableCsv) → bayesnet
// (HillClimbStructure, BayesianNetwork::FitParameters, posteriors) →
// core::QueryRunner or serve::SessionManager → the crowd platform.

#ifndef QBENCH_WORKLOADS_H_
#define QBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "reference.h"

namespace qbench {

/// Worker lanes of the query pool, driver thread included.
inline constexpr std::size_t kPoolLanes = 2;

struct RunConfig {
  std::string workload;  // nba10k | synth10k | serve-mix
  std::uint64_t seed = 1;
  double seconds = 20.0;  // Sizes the run (see WorkloadQueries).
  bool trace = false;     // Per-layer metrics instead of end-to-end.
  bool short_form = false;  // Small tables and few queries, for tests.
  std::string data_dir;     // Generated CSV tables go here.
  /// Committed answers; every query is checked against it. Null skips
  /// the check (short form, reference generation).
  const ReferenceSet* reference = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct QueryAnswer {
  std::string key;  // workload/tenant/table
  std::vector<std::size_t> ids;  // Sorted.
  double f1 = 0.0;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<QueryAnswer> answers;  // Measured queries, in order.
  std::vector<std::string> notes;    // Failures, one line each.
};

std::vector<std::string> WorkloadNames();

/// Number of queries one measured loop submits for `seconds`.
bayescrowd::Result<std::size_t> WorkloadQueries(const std::string& workload,
                                                double seconds);

bayescrowd::Result<RunReport> RunWorkload(const RunConfig& config);

/// Runs every distinct query of `workload` once, cold and one at a
/// time, and returns the answers keyed for the reference file.
bayescrowd::Result<ReferenceSet> ComputeReference(
    const std::string& workload, const std::string& data_dir);

}  // namespace qbench

#endif  // QBENCH_WORKLOADS_H_
