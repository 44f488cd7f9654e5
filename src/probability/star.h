// Star fast path, split into a reusable *plan* (structure) and an
// *evaluation* (arithmetic under the current distributions).
//
// Let H be the variables occurring more than once in a condition. When
// H's joint domain is small,
//   Pr(φ) = Σ_h p(h) Π_conjuncts Pr(conjunct | H = h),
// and given h every conjunct's surviving expressions touch distinct
// single-occurrence variables, so the disjunctive rule applies with
// per-expression probabilities that are either constants or lookups in
// tables indexed by one hub value.
//
// The split lets AdpllScratch reuse the plan and table buffers across
// solves instead of allocating them on every call; EvalStarPlan fills
// constants/tables from the current posteriors.

#ifndef BAYESCROWD_PROBABILITY_STAR_H_
#define BAYESCROWD_PROBABILITY_STAR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ctable/condition.h"
#include "probability/distributions.h"

namespace bayescrowd {

// One expression, classified for hub enumeration.
struct StarExpr {
  enum class Kind : std::uint8_t {
    kConstant,    // No hub variable: probability refilled per eval.
    kDecided,     // Both operands hub/const: truth decided per h.
    kTablePrime,  // One hub variable: probability = table[hub value].
  } kind = Kind::kConstant;

  // kDecided: comparison of hub slots/constant.
  int lhs_slot = -1;          // Hub slot of lhs (kTablePrime: table slot).
  int rhs_slot = -1;          // Hub slot of rhs var (-1: const/private).
  CmpOp op = CmpOp::kGreater;
  Level rhs_const = 0;
  bool rhs_is_var = false;

  // kConstant / kTablePrime: the original expression, re-integrated
  // against the distributions at every evaluation.
  Expression expr;
  bool hub_is_lhs = false;           // kTablePrime: which side is the hub.
  std::uint32_t table_offset = 0;    // kTablePrime: into scratch tables.
  std::uint32_t table_size = 0;      // kTablePrime: hub domain size.
};

/// Value-independent star decomposition of one condition: hub variables
/// in first-occurrence order, classified expressions flattened
/// conjunct-major. Immutable once built — safe to share across lanes.
struct StarPlan {
  std::vector<CellRef> hub;
  std::vector<std::uint32_t> hub_sizes;         // Domain size per hub var.
  std::vector<StarExpr> exprs;
  std::vector<std::uint32_t> conjunct_offsets;  // exprs range per conjunct.
  std::size_t space = 0;                        // Joint hub domain size.
  std::size_t table_slots = 0;                  // Σ kTablePrime table sizes.
};

/// Reusable buffers for building and evaluating star plans. One scratch
/// per concurrent caller; contents are meaningless between calls.
struct StarScratch {
  // Build-time hub discovery.
  std::unordered_map<PackedVar, int> occurrences;
  std::vector<CellRef> order;
  std::unordered_map<PackedVar, int> hub_slot;
  // Eval-time state (tables are refilled from the current posteriors).
  std::vector<const std::vector<double>*> hub_dists;
  std::vector<double> const_probs;  // Per-expr, kConstant entries only.
  std::vector<double> tables;       // Flat kTablePrime table arena.
  std::vector<Level> h;             // Odometer.
};

/// Builds the star decomposition of `condition`. Returns false when the
/// decomposition does not apply (no hub, more than 16 hub variables, or
/// joint domain above `max_hub_space`) — the caller then branches
/// normally, which shrinks the hub by one. Returns true when it applies;
/// `*status` reports any error discovered while sizing the hub (missing
/// hub distribution), mirroring ADPLL's "applicable but errored" case.
bool BuildStarPlan(const Condition& condition, const DistributionMap& dists,
                   std::size_t max_hub_space, StarPlan* plan,
                   StarScratch* scratch, Status* status);

/// Fills the plan's per-expression constants and tables from `dists`,
/// then enumerates the hub joint domain. The arithmetic (fill loops,
/// odometer order, short-circuits) is the ADPLL star fast path verbatim,
/// so evaluating a stored plan under any posterior matches what ADPLL
/// would compute on the same condition.
Result<double> EvalStarPlan(const StarPlan& plan, const DistributionMap& dists,
                            StarScratch* scratch);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_STAR_H_
