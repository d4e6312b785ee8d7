// Search-strategy interface.
//
// Avis (SABRE), Random, BFI, and Stratified BFI all drive the same checker
// loop: propose a fault plan, observe the experiment result. Strategies may
// charge the budget themselves (BFI's model labels cost 10 s each); the
// checker charges experiment durations.
#pragma once

#include <optional>
#include <vector>

#include "core/budget.h"
#include "core/experiment.h"
#include "core/fault_plan.h"

namespace avis::core {

class InjectionStrategy {
 public:
  virtual ~InjectionStrategy() = default;

  // Propose the next fault plan. May consume budget (model labeling); must
  // return nullopt when out of candidates or when the budget is exhausted.
  virtual std::optional<FaultPlan> next(BudgetClock& budget) = 0;

  // Propose up to `max_plans` plans that may be simulated concurrently:
  // the batch must equal what repeated next() would propose if each plan's
  // feedback arrived before the next one was generated, so no plan in it
  // may depend on the feedback of an earlier one. The checker applies the
  // results in order and discards the tail once the budget runs out; the
  // plan sequence must not depend on `max_plans`. The default falls back to
  // repeated next(), which is exact for strategies that neither learn from
  // feedback nor charge the budget while proposing (Random). SABRE
  // overrides it to cross into a later expansion wave only when in-flight
  // feedback cannot change that wave (core/sabre.h); the BFI variants cap
  // batches at one plan because labeling charges the budget inside next().
  virtual std::vector<FaultPlan> next_batch(BudgetClock& budget, int max_plans) {
    std::vector<FaultPlan> plans;
    plans.reserve(max_plans > 0 ? static_cast<std::size_t>(max_plans) : 0);
    for (int i = 0; i < max_plans; ++i) {
      auto plan = next(budget);
      if (!plan) break;
      plans.push_back(std::move(*plan));
    }
    return plans;
  }

  // Result of simulating the proposed plan.
  virtual void feedback(const FaultPlan& plan, const ExperimentResult& result) = 0;

  // Plan-aware scheduling contract (checkpoint trees, core/checkpoint.h):
  // the checker records directed runs whose plans this strategy may later
  // extend into longer chains, so descendants fork from the recorded faulty
  // prefix instead of re-simulating it. A strategy that extends chains
  // must return the maximum number of events a recorded plan can grow by
  // (the checker records plans with size in [1, limit]); 0 = this strategy
  // never extends a submitted plan, record nothing. Implied ordering
  // contract on next()/next_batch(): a chain's parent is proposed in an
  // earlier wave than its children (feedback-driven strategies get this for
  // free), and plans sharing a signature prefix should be grouped into the
  // same wave so their shared parent recording is still resident when they
  // resolve.
  virtual int chain_extension_limit() const { return 0; }

  virtual const char* name() const = 0;
};

}  // namespace avis::core
