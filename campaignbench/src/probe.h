// The benchmark's only hook into a running campaign: a forwarding
// InjectionStrategy decorator, installed through
// CampaignCellSpec::make_strategy, that timestamps the strategy calls the
// checker loop makes. Every call is forwarded unchanged, so a decorated cell
// reports exactly what an undecorated one does (tests/decorator_identity.cc).
//
// Untraced, a probe keeps only what setup_s and find_s need: when the
// strategy was built (profiling done), when it was first asked for a plan
// (prefix recorded), when it was last called (the cell is finishing), and
// when each bug first manifested. Traced, it also keeps every call span and
// the applied plans, for the per-layer metrics and the step replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/invariant_monitor.h"
#include "core/scenario.h"
#include "core/strategy.h"

namespace avis::campaignbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct StrategyCall {
  enum class Kind { kRequest, kFeedback };
  Kind kind = Kind::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int plans = 0;  // plans returned by a request; 0 for feedback
};

struct CellProbe {
  bool traced = false;

  std::int64_t built_ns = 0;          // strategy factory ran: profiling is over
  std::int64_t first_request_ns = 0;  // first next/next_batch: prefix recorded
  std::int64_t last_call_ns = 0;      // end of the latest strategy call
  std::map<fw::BugId, std::int64_t> first_found_ns;  // result applied

  // Traced only.
  std::thread::id thread;
  std::vector<StrategyCall> calls;
  std::vector<core::FaultPlan> applied_plans;
  std::vector<sim::SimTimeMs> applied_duration_ms;
  sim::SimTimeMs stepped_ms = 0;  // sum of duration_ms - resumed_from_ms
  std::optional<core::MonitorModel> model;
};

class TappedStrategy final : public core::InjectionStrategy {
 public:
  TappedStrategy(std::unique_ptr<core::InjectionStrategy> inner, CellProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    const std::int64_t start = p_enter();
    std::optional<core::FaultPlan> plan = inner_->next(budget);
    p_leave(StrategyCall::Kind::kRequest, start, plan ? 1 : 0);
    return plan;
  }

  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    const std::int64_t start = p_enter();
    std::vector<core::FaultPlan> plans = inner_->next_batch(budget, max_plans);
    p_leave(StrategyCall::Kind::kRequest, start, static_cast<int>(plans.size()));
    return plans;
  }

  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    const std::int64_t start = now_ns();
    inner_->feedback(plan, result);
    // The checker records a first-found index for every bug an unsafe
    // result fired; this is the moment that result is applied.
    if (result.unsafe()) {
      for (fw::BugId id : result.fired_bugs) probe_->first_found_ns.try_emplace(id, start);
    }
    if (probe_->traced) {
      probe_->applied_plans.push_back(plan);
      probe_->applied_duration_ms.push_back(result.duration_ms);
      probe_->stepped_ms += result.duration_ms - result.resumed_from_ms;
    }
    p_leave(StrategyCall::Kind::kFeedback, start, 0);
  }

  int chain_extension_limit() const override { return inner_->chain_extension_limit(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::int64_t p_enter() {
    const std::int64_t start = now_ns();
    if (probe_->first_request_ns == 0) probe_->first_request_ns = start;
    return start;
  }

  void p_leave(StrategyCall::Kind kind, std::int64_t start, int plans) {
    const std::int64_t end = now_ns();
    probe_->last_call_ns = end;
    if (probe_->traced) probe_->calls.push_back({kind, start, end, plans});
  }

  std::unique_ptr<core::InjectionStrategy> inner_;
  CellProbe* probe_;
};

// Installs a probe on a cell: the cell's registry strategy, wrapped. The
// probe must outlive the campaign run.
inline void install_probe(core::CampaignCellSpec& cell, CellProbe& probe) {
  cell.make_strategy = [&probe, scenario = cell.scenario](const core::MonitorModel& model,
                                                          std::uint64_t) {
    probe.built_ns = now_ns();
    if (probe.traced) {
      probe.thread = std::this_thread::get_id();
      probe.model = model;
    }
    return std::make_unique<TappedStrategy>(core::make_scenario_strategy(scenario, model),
                                            probe);
  };
}

}  // namespace avis::campaignbench
