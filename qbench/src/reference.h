// Committed reference answers: for every distinct query of a workload
// (workload, tenant, table), the sorted answer set, its digest and F1.

#ifndef QBENCH_REFERENCE_H_
#define QBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace qbench {

struct ReferenceAnswer {
  std::vector<std::size_t> ids;  // Sorted answer set.
  double f1 = 0.0;
};

using ReferenceSet = std::map<std::string, ReferenceAnswer>;

/// FNV-1a over the sorted ids, as 16 hex digits.
std::string AnswerDigest(const std::vector<std::size_t>& sorted_ids);

bayescrowd::Result<ReferenceSet> LoadReference(const std::string& path);
bayescrowd::Status SaveReference(const ReferenceSet& reference,
                                 const std::string& path);

/// Empty when `ids` (sorted) and `f1` match `expected`; otherwise a
/// one-line description naming the first object id that differs.
std::string DescribeMismatch(const ReferenceAnswer& expected,
                             const std::vector<std::size_t>& ids,
                             double f1);

}  // namespace qbench

#endif  // QBENCH_REFERENCE_H_
