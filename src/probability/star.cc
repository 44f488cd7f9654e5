#include "probability/star.h"

#include "common/string_util.h"

namespace bayescrowd {

bool BuildStarPlan(const Condition& condition, const DistributionMap& dists,
                   std::size_t max_hub_space, StarPlan* plan,
                   StarScratch* scratch, Status* status) {
  *status = Status::OK();

  // Hub discovery.
  auto& occurrences = scratch->occurrences;
  auto& order = scratch->order;
  auto& hub_slot = scratch->hub_slot;
  occurrences.clear();
  order.clear();
  hub_slot.clear();
  occurrences.reserve(condition.conjuncts().size() * 2);
  for (const Conjunct& conj : condition.conjuncts()) {
    for (const Expression& e : conj) {
      if (++occurrences[PackVar(e.lhs)] == 1) order.push_back(e.lhs);
      if (e.rhs_is_var && ++occurrences[PackVar(e.rhs_var)] == 1) {
        order.push_back(e.rhs_var);
      }
    }
  }
  plan->hub.clear();
  for (const CellRef& var : order) {
    if (occurrences[PackVar(var)] >= 2) {
      hub_slot[PackVar(var)] = static_cast<int>(plan->hub.size());
      plan->hub.push_back(var);
    }
  }
  if (plan->hub.empty() || plan->hub.size() > 16) return false;

  // Joint-domain bound.
  plan->hub_sizes.clear();
  std::size_t space = 1;
  for (const CellRef& var : plan->hub) {
    const std::vector<double>* dist = dists.Find(var);
    if (dist == nullptr) {
      *status = Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                           var.object, var.attribute));
      return true;  // Applicable, but errored.
    }
    if (space > max_hub_space / dist->size()) return false;
    space *= dist->size();
    plan->hub_sizes.push_back(static_cast<std::uint32_t>(dist->size()));
  }
  plan->space = space;

  // Classify expressions. Values (constants, tables) are EvalStarPlan's
  // job; only slots, offsets and the original expressions live here.
  plan->exprs.clear();
  plan->conjunct_offsets.clear();
  plan->table_slots = 0;
  for (const Conjunct& conj : condition.conjuncts()) {
    plan->conjunct_offsets.push_back(
        static_cast<std::uint32_t>(plan->exprs.size()));
    for (const Expression& e : conj) {
      StarExpr ce;
      const auto lhs_it = hub_slot.find(PackVar(e.lhs));
      const int lslot = lhs_it == hub_slot.end() ? -1 : lhs_it->second;
      int rslot = -1;
      if (e.rhs_is_var) {
        const auto rhs_it = hub_slot.find(PackVar(e.rhs_var));
        rslot = rhs_it == hub_slot.end() ? -1 : rhs_it->second;
      }
      if (lslot < 0 && rslot < 0) {
        // Private-only: constant probability, refilled per eval.
        ce.kind = StarExpr::Kind::kConstant;
        ce.expr = e;
      } else if (lslot >= 0 && (!e.rhs_is_var || rslot >= 0)) {
        // Fully decided per hub assignment.
        ce.kind = StarExpr::Kind::kDecided;
        ce.lhs_slot = lslot;
        ce.rhs_slot = rslot;
        ce.op = e.op;
        ce.rhs_is_var = e.rhs_is_var;
        ce.rhs_const = e.rhs_const;
      } else {
        // Exactly one hub variable: tabulated over its values per eval.
        ce.kind = StarExpr::Kind::kTablePrime;
        ce.hub_is_lhs = lslot >= 0;
        ce.lhs_slot = ce.hub_is_lhs ? lslot : rslot;  // Table slot.
        ce.expr = e;
        ce.table_size =
            plan->hub_sizes[static_cast<std::size_t>(ce.lhs_slot)];
        ce.table_offset = static_cast<std::uint32_t>(plan->table_slots);
        plan->table_slots += ce.table_size;
      }
      plan->exprs.push_back(ce);
    }
  }
  plan->conjunct_offsets.push_back(
      static_cast<std::uint32_t>(plan->exprs.size()));
  return true;
}

Result<double> EvalStarPlan(const StarPlan& plan, const DistributionMap& dists,
                            StarScratch* scratch) {
  // Hub distributions, re-resolved and arity-checked against the plan.
  scratch->hub_dists.resize(plan.hub.size());
  for (std::size_t i = 0; i < plan.hub.size(); ++i) {
    scratch->hub_dists[i] = dists.Find(plan.hub[i]);
    if (scratch->hub_dists[i] == nullptr) {
      return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                        plan.hub[i].object,
                                        plan.hub[i].attribute));
    }
    if (scratch->hub_dists[i]->size() != plan.hub_sizes[i]) {
      return Status::FailedPrecondition(
          "hub distribution arity changed since the plan was built");
    }
  }

  // Fill constants and tables from the current distributions, in plan
  // expression order.
  scratch->const_probs.resize(plan.exprs.size());
  scratch->tables.resize(plan.table_slots);
  for (std::size_t idx = 0; idx < plan.exprs.size(); ++idx) {
    const StarExpr& ce = plan.exprs[idx];
    switch (ce.kind) {
      case StarExpr::Kind::kConstant: {
        const auto p = ExpressionProbability(ce.expr, dists);
        if (!p.ok()) return p.status();
        scratch->const_probs[idx] = p.value();
        break;
      }
      case StarExpr::Kind::kDecided:
        break;
      case StarExpr::Kind::kTablePrime: {
        const CellRef hub_var = ce.hub_is_lhs ? ce.expr.lhs : ce.expr.rhs_var;
        const CellRef private_var =
            ce.hub_is_lhs ? ce.expr.rhs_var : ce.expr.lhs;
        const std::vector<double>* hub_dist = dists.Find(hub_var);
        const std::vector<double>* priv_dist = dists.Find(private_var);
        if (hub_dist == nullptr || priv_dist == nullptr) {
          return Status::NotFound("no distribution for variable");
        }
        if (hub_dist->size() != ce.table_size) {
          return Status::FailedPrecondition(
              "hub distribution arity changed since the plan was built");
        }
        for (std::size_t v = 0; v < hub_dist->size(); ++v) {
          // Truth probability of the expression given hub value v.
          double p = 0.0;
          for (std::size_t w = 0; w < priv_dist->size(); ++w) {
            const Level lhs_val = ce.hub_is_lhs ? static_cast<Level>(v)
                                                : static_cast<Level>(w);
            const Level rhs_val = ce.hub_is_lhs ? static_cast<Level>(w)
                                                : static_cast<Level>(v);
            const bool truth = (ce.expr.op == CmpOp::kGreater)
                                   ? lhs_val > rhs_val
                                   : lhs_val < rhs_val;
            if (truth) p += (*priv_dist)[w];
          }
          scratch->tables[ce.table_offset + v] = p;
        }
        break;
      }
    }
  }

  // Enumerate hub assignments.
  scratch->h.assign(plan.hub.size(), 0);
  std::vector<Level>& h = scratch->h;
  double total = 0.0;
  for (std::size_t step = 0; step < plan.space; ++step) {
    double weight = 1.0;
    for (std::size_t i = 0; i < plan.hub.size(); ++i) {
      weight *= (*scratch->hub_dists[i])[static_cast<std::size_t>(h[i])];
    }
    if (weight > 0.0) {
      double product = 1.0;
      for (std::size_t c = 0; c + 1 < plan.conjunct_offsets.size(); ++c) {
        bool satisfied = false;
        double miss = 1.0;
        for (std::uint32_t e = plan.conjunct_offsets[c];
             e < plan.conjunct_offsets[c + 1]; ++e) {
          const StarExpr& ce = plan.exprs[e];
          switch (ce.kind) {
            case StarExpr::Kind::kConstant:
              miss *= 1.0 - scratch->const_probs[e];
              break;
            case StarExpr::Kind::kDecided: {
              const Level lhs = h[static_cast<std::size_t>(ce.lhs_slot)];
              const Level rhs =
                  ce.rhs_slot >= 0
                      ? h[static_cast<std::size_t>(ce.rhs_slot)]
                      : ce.rhs_const;
              const bool truth = (ce.op == CmpOp::kGreater) ? lhs > rhs
                                                            : lhs < rhs;
              if (truth) satisfied = true;
              break;
            }
            case StarExpr::Kind::kTablePrime:
              miss *= 1.0 -
                      scratch->tables[ce.table_offset +
                                      static_cast<std::size_t>(h[
                                          static_cast<std::size_t>(
                                              ce.lhs_slot)])];
              break;
          }
          if (satisfied) break;
        }
        product *= satisfied ? 1.0 : 1.0 - miss;
        if (product == 0.0) break;
      }
      total += weight * product;
    }
    // Advance the odometer.
    for (std::size_t i = 0; i < plan.hub.size(); ++i) {
      if (++h[i] < static_cast<Level>(scratch->hub_dists[i]->size())) break;
      h[i] = 0;
    }
  }
  return total;
}

}  // namespace bayescrowd
