// Checker parity: run() and run_parallel must produce reports bit-identical
// to one-plan-at-a-time execution for the same (strategy, budget, seed),
// because results are applied on the caller thread in submission order and
// a strategy only hands out plans that earlier in-flight feedback cannot
// change. Every plan is its own pool task, so worker counts that do not
// divide a wave (3) or exceed it (8) must change nothing either.
#include <gtest/gtest.h>

#include <string>

#include "baselines/bfi.h"
#include "baselines/random_injection.h"
#include "baselines/stratified_bfi.h"
#include "core/checker.h"
#include "core/sabre.h"
#include "test_helpers.h"

namespace {

using namespace avis;

// A modest simulated budget: enough for a multi-request campaign (several
// expansion waves, at least one unsafe result) while keeping the test quick.
constexpr sim::SimTimeMs kBudgetMs = 600 * 1000;
// A budget that runs out in the middle of a request, so the tail of the
// in-flight request is discarded (asserted below).
constexpr sim::SimTimeMs kMidWaveBudgetMs = 250 * 1000;

using avis::testing::expect_reports_equal;

// The strict reference: one plan per request, so every plan is proposed
// after the feedback of all earlier ones — the execution Algorithm 1
// describes. run() and run_parallel() both hand out several plans per
// request, so neither is a reference for the other.
class OneAtATime final : public core::InjectionStrategy {
 public:
  explicit OneAtATime(core::InjectionStrategy& inner) : inner_(inner) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    return inner_.next(budget);
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    std::vector<core::FaultPlan> plans;
    if (max_plans > 0) {
      if (auto plan = inner_.next(budget)) plans.push_back(std::move(*plan));
    }
    return plans;
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    inner_.feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_.chain_extension_limit(); }
  const char* name() const override { return inner_.name(); }

 private:
  core::InjectionStrategy& inner_;
};

// Forwards to SABRE and counts the plans it hands out: more plans proposed
// than applied means a request was cut short by the budget.
class CountingSabre final : public core::InjectionStrategy {
 public:
  explicit CountingSabre(const core::MonitorModel& model)
      : inner_(core::SimulationHarness::iris_suite(), model.golden_transitions()) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    auto plan = inner_.next(budget);
    if (plan) ++proposed_;
    return plan;
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    auto plans = inner_.next_batch(budget, max_plans);
    proposed_ += static_cast<int>(plans.size());
    return plans;
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    inner_.feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_.chain_extension_limit(); }
  const char* name() const override { return inner_.name(); }

  int proposed() const { return proposed_; }

 private:
  core::SabreScheduler inner_;
  int proposed_ = 0;
};

// The ArduPilot/auto scenario with checkpoint trees off (root store only).
core::Checker& root_only_checker() {
  static core::Checker root_only = [] {
    core::ExperimentSpec prototype;
    prototype.personality = fw::Personality::kArduPilotLike;
    prototype.workload = workload::WorkloadId::kAuto;
    prototype.bugs = fw::BugRegistry::current_code_base();
    prototype.seed = 100;
    core::CheckpointConfig config;
    config.trees = false;
    return core::Checker(prototype, config);
  }();
  return root_only;
}

// The identity matrix: SABRE on ArduPilot and PX4 over two workloads with
// checkpoint trees, under a roomy budget and one that exhausts mid-request,
// at 1 (the serial path), 3, 4 and 8 workers — every report identical to the
// one-plan-at-a-time reference. A root-only store runs at 4 workers.
TEST(CheckerParallel, SabreMatchesOneAtATimeAcrossScenariosWorkersAndBudgets) {
  struct Scenario {
    const char* label;
    core::Checker* checker;
    std::vector<int> workers;
  };
  std::vector<Scenario> scenarios = {{"root only", &root_only_checker(), {4}}};
  for (const fw::Personality personality :
       {fw::Personality::kArduPilotLike, fw::Personality::kPx4Like}) {
    for (const workload::WorkloadId workload :
         {workload::WorkloadId::kAuto, workload::WorkloadId::kBoxManual}) {
      scenarios.push_back({workload::to_string(workload),
                           &avis::testing::cached_checker(personality, workload), {1, 3, 4, 8}});
    }
  }
  bool tree_restores = false;
  for (const Scenario& scenario : scenarios) {
    core::Checker& checker = *scenario.checker;
    const core::MonitorModel& model = checker.model();
    for (const sim::SimTimeMs budget_ms : {kBudgetMs, kMidWaveBudgetMs}) {
      SCOPED_TRACE(std::string(scenario.label) + " personality=" +
                   std::to_string(static_cast<int>(checker.personality())) +
                   " budget_ms=" + std::to_string(budget_ms));
      core::SabreScheduler reference_sabre(core::SimulationHarness::iris_suite(),
                                           model.golden_transitions());
      OneAtATime reference_strategy(reference_sabre);
      core::BudgetClock reference_budget(budget_ms);
      const core::CheckerReport reference = checker.run(reference_strategy, reference_budget);
      ASSERT_GE(reference.experiments, 3) << "budget too small to exercise parallel requests";
      tree_restores |= reference.checkpoint_hits_by_level.size() > 1;

      for (const int workers : scenario.workers) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        CountingSabre strategy(model);
        core::BudgetClock budget(budget_ms);
        const core::CheckerReport report = checker.run_parallel(strategy, budget, workers);
        expect_reports_equal(reference, report);
        if (budget_ms == kMidWaveBudgetMs && workers > 1) {
          EXPECT_GT(strategy.proposed(), report.experiments)
              << "the budget did not exhaust mid-request";
        }
      }
    }
  }
  EXPECT_TRUE(tree_restores);
}

void expect_samples_equal(const core::StateSample& a, const core::StateSample& b) {
  EXPECT_EQ(a.time_ms, b.time_ms);
  EXPECT_EQ(a.position, b.position) << "t=" << a.time_ms;
  EXPECT_EQ(a.acceleration, b.acceleration) << "t=" << a.time_ms;
  EXPECT_EQ(a.mode_id, b.mode_id) << "t=" << a.time_ms;
  EXPECT_EQ(a.on_ground, b.on_ground) << "t=" << a.time_ms;
  EXPECT_EQ(a.armed, b.armed) << "t=" << a.time_ms;
}

// Checker::model() runs its profiling runs on the experiment pool; they are
// independent and calibrate in seed order, so the model must equal serial
// SimulationHarness::profile's field for field.
TEST(CheckerParallel, PoolProfilingMatchesSerialProfile) {
  core::ExperimentSpec prototype;
  prototype.personality = fw::Personality::kPx4Like;
  prototype.workload = workload::WorkloadId::kBoxManual;
  prototype.bugs = fw::BugRegistry::current_code_base();
  prototype.seed = 100;
  const core::MonitorModel serial =
      core::SimulationHarness().profile(prototype, core::Checker::kProfilingRuns, prototype.seed);
  core::Checker checker(prototype);
  checker.set_workers(4);
  const core::MonitorModel& pooled = checker.model();

  EXPECT_EQ(serial.tau(), pooled.tau());
  EXPECT_EQ(serial.max_position_spread(), pooled.max_position_spread());
  EXPECT_EQ(serial.max_accel_spread(), pooled.max_accel_spread());
  EXPECT_EQ(serial.profiling_duration_ms(), pooled.profiling_duration_ms());
  EXPECT_EQ(serial.max_home_distance(), pooled.max_home_distance());
  ASSERT_EQ(serial.golden_transitions().size(), pooled.golden_transitions().size());
  for (std::size_t i = 0; i < serial.golden_transitions().size(); ++i) {
    EXPECT_EQ(serial.golden_transitions()[i].time_ms, pooled.golden_transitions()[i].time_ms);
    EXPECT_EQ(serial.golden_transitions()[i].mode_id, pooled.golden_transitions()[i].mode_id);
  }
  ASSERT_EQ(serial.golden_run().trace.size(), pooled.golden_run().trace.size());
  for (std::size_t i = 0; i < serial.golden_run().trace.size(); ++i) {
    expect_samples_equal(serial.golden_run().trace[i], pooled.golden_run().trace[i]);
  }
  ASSERT_EQ(serial.profiling_run_count(), pooled.profiling_run_count());
  for (std::size_t run = 0; run < serial.profiling_run_count(); ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    for (sim::SimTimeMs t = 0; t <= serial.profiling_duration_ms(); t += core::kSamplePeriodMs) {
      expect_samples_equal(serial.profiling_state(run, t), pooled.profiling_state(run, t));
    }
  }
}

TEST(CheckerParallel, RandomParityAtFourWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  baselines::RandomInjection serial_strategy(suite, model.profiling_duration_ms(), 42);
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
  ASSERT_GE(serial.experiments, 3);

  baselines::RandomInjection parallel_strategy(suite, model.profiling_duration_ms(), 42);
  core::BudgetClock parallel_budget(kBudgetMs);
  const core::CheckerReport parallel =
      checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

  expect_reports_equal(serial, parallel);
}

// BFI and Stratified BFI charge the budget *while proposing* (10 s per
// model label), the case where parity is most fragile: the exhausting
// charge can be a label on a plan that still gets simulated serially. A
// spread of budgets makes the campaign end at different points in the
// label/experiment interleaving.
TEST(CheckerParallel, BfiParityAtFourWorkersAcrossBudgets) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  static baselines::NaiveBayesModel bayes(baselines::default_training_corpus());

  for (const sim::SimTimeMs budget_ms : {215000, 300000, 605000}) {
    baselines::BfiChecker serial_strategy(suite, bayes,
                                          baselines::ModeTimeline(model.golden_transitions()),
                                          /*seed=*/7);
    core::BudgetClock serial_budget(budget_ms);
    const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

    baselines::BfiChecker parallel_strategy(suite, bayes,
                                            baselines::ModeTimeline(model.golden_transitions()),
                                            /*seed=*/7);
    core::BudgetClock parallel_budget(budget_ms);
    const core::CheckerReport parallel =
        checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

    SCOPED_TRACE("budget_ms=" + std::to_string(budget_ms));
    expect_reports_equal(serial, parallel);
    EXPECT_GT(serial.labels, 0);
  }
}

TEST(CheckerParallel, StratifiedBfiParityAtFourWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  static baselines::NaiveBayesModel bayes(baselines::default_training_corpus());

  baselines::StratifiedBfi serial_strategy(suite, model.golden_transitions(), bayes);
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
  EXPECT_GT(serial.labels, 0);

  baselines::StratifiedBfi parallel_strategy(suite, model.golden_transitions(), bayes);
  core::BudgetClock parallel_budget(kBudgetMs);
  const core::CheckerReport parallel =
      checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

  expect_reports_equal(serial, parallel);
}

}  // namespace
