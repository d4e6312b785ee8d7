// Serial-vs-parallel checker parity: run_parallel must produce a report
// bit-identical to run() for the same (strategy, budget, seed), because
// results are applied on the caller thread in submission order and the
// strategy's request boundaries preserve the serial plan sequence. Every
// plan is its own pool task, so worker counts that do not divide a wave
// (3) or exceed it (8) must change nothing either.
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
// A budget that runs out in the middle of a SABRE wave, so the tail of the
// in-flight request is discarded (asserted below).
constexpr sim::SimTimeMs kMidWaveBudgetMs = 250 * 1000;

using avis::testing::expect_reports_equal;

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

core::Checker& checker_with_trees(bool trees) {
  if (trees) {
    return avis::testing::cached_checker(fw::Personality::kArduPilotLike,
                                         workload::WorkloadId::kAuto);
  }
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

// The identity matrix: SABRE at 2, 3, 4 and 8 workers, checkpoint trees on
// and off, under a roomy budget and one that exhausts mid-wave — every
// report identical to the serial run's.
TEST(CheckerParallel, SabreMatchesSerialAcrossWorkersTreesAndBudgets) {
  for (const bool trees : {true, false}) {
    core::Checker& checker = checker_with_trees(trees);
    const core::MonitorModel& model = checker.model();
    for (const sim::SimTimeMs budget_ms : {kBudgetMs, kMidWaveBudgetMs}) {
      SCOPED_TRACE(std::string(trees ? "trees" : "root only") +
                   " budget_ms=" + std::to_string(budget_ms));
      CountingSabre serial_strategy(model);
      core::BudgetClock serial_budget(budget_ms);
      const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
      ASSERT_GE(serial.experiments, 3) << "budget too small to exercise parallel requests";
      if (trees && budget_ms == kBudgetMs) {
        EXPECT_GT(serial.checkpoint_hits_by_level.size(), 1u) << "no tree restores";
      }

      for (const int workers : {2, 3, 4, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        CountingSabre parallel_strategy(model);
        core::BudgetClock parallel_budget(budget_ms);
        const core::CheckerReport parallel =
            checker.run_parallel(parallel_strategy, parallel_budget, workers);
        expect_reports_equal(serial, parallel);
        if (budget_ms == kMidWaveBudgetMs) {
          EXPECT_GT(parallel_strategy.proposed(), parallel.experiments)
              << "the budget did not exhaust mid-request";
        }
      }
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

TEST(CheckerParallel, OneWorkerTakesTheSerialPath) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  core::SabreScheduler serial_strategy(suite, model.golden_transitions());
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

  core::SabreScheduler one_worker_strategy(suite, model.golden_transitions());
  core::BudgetClock one_worker_budget(kBudgetMs);
  const core::CheckerReport one_worker =
      checker.run_parallel(one_worker_strategy, one_worker_budget, /*workers=*/1);

  expect_reports_equal(serial, one_worker);
}

TEST(CheckerParallel, SabreBatchStopsAtWaveBoundary) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  // next_batch must hand out the same plan sequence as repeated next().
  core::SabreScheduler by_next(suite, model.golden_transitions());
  core::SabreScheduler by_batch(suite, model.golden_transitions());
  core::BudgetClock budget_a(kBudgetMs);
  core::BudgetClock budget_b(kBudgetMs);

  std::vector<std::string> next_sigs;
  for (int i = 0; i < 12; ++i) {
    auto plan = by_next.next(budget_a);
    if (!plan) break;
    next_sigs.push_back(plan->signature());
  }
  std::vector<std::string> batch_sigs;
  while (batch_sigs.size() < next_sigs.size()) {
    const auto plans = by_batch.next_batch(budget_b, 5);
    if (plans.empty()) break;
    for (const auto& plan : plans) batch_sigs.push_back(plan.signature());
  }
  batch_sigs.resize(std::min(batch_sigs.size(), next_sigs.size()));
  next_sigs.resize(batch_sigs.size());
  EXPECT_EQ(batch_sigs, next_sigs);
  EXPECT_FALSE(batch_sigs.empty());
}

TEST(CheckerParallel, SabreSerializesConfigsWithIntraWavePruning) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  core::BudgetClock budget(kBudgetMs);

  // Full-powerset waves can contain a set and its same-timestamp superset,
  // and disabled symmetry folding can put role-identical sets in one wave;
  // serial execution prunes those at proposal time after a mid-wave bug, so
  // batching must fall back to one plan at a time to preserve parity.
  core::SabreConfig powerset;
  powerset.full_powerset_batches = true;
  core::SabreScheduler powerset_sabre(suite, model.golden_transitions(), powerset);
  EXPECT_LE(powerset_sabre.next_batch(budget, 8).size(), 1u);

  core::SabreConfig no_symmetry;
  no_symmetry.symmetry_pruning = false;
  core::SabreScheduler no_symmetry_sabre(suite, model.golden_transitions(), no_symmetry);
  EXPECT_LE(no_symmetry_sabre.next_batch(budget, 8).size(), 1u);

  // With found-bug pruning off there is nothing to prune mid-wave, so the
  // full-powerset wave may batch freely again.
  core::SabreConfig no_pruning;
  no_pruning.full_powerset_batches = true;
  no_pruning.found_bug_pruning = false;
  core::SabreScheduler no_pruning_sabre(suite, model.golden_transitions(), no_pruning);
  EXPECT_GT(no_pruning_sabre.next_batch(budget, 8).size(), 1u);
}

}  // namespace
