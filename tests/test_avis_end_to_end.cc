// End-to-end checks of the full Avis loop: profiling, SABRE, the invariant
// monitor, and bug discovery, mirroring the paper's headline workflow.
#include <gtest/gtest.h>

#include "baselines/stratified_bfi.h"
#include "core/checker.h"
#include "core/sabre.h"
#include "test_helpers.h"

namespace avis {
namespace {

TEST(AvisEndToEnd, FindsSeededBugsOnArduPilotFence) {
  core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                        fw::BugRegistry::current_code_base());
  core::SabreScheduler sabre(core::SimulationHarness::iris_suite(),
                             checker.model().golden_transitions());
  core::BudgetClock budget = core::BudgetClock::two_hours();
  const auto report = checker.run(sabre, budget);

  EXPECT_GT(report.unsafe_count(), 5);
  // The fence workload exposes at least these four ArduPilot bugs.
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm16020));
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm16021));
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm16027));
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm16967));
  // Every unsafe condition traces to a seeded bug — no false positives —
  // except scenarios that kill an entire IMU family, which no firmware can
  // survive (docs/CONFORMANCE.md, "Modelling substitutions").
  auto kills_imu_family = [](const core::FaultPlan& plan) {
    int gyros = 0;
    int accels = 0;
    for (const auto& e : plan.events) {
      if (e.sensor.type == sensors::SensorType::kGyroscope) ++gyros;
      if (e.sensor.type == sensors::SensorType::kAccelerometer) ++accels;
    }
    return gyros >= 2 || accels >= 2;
  };
  for (const auto& record : report.unsafe) {
    if (kills_imu_family(record.plan)) continue;
    EXPECT_FALSE(record.fired_bugs.empty())
        << "unattributed violation for " << record.plan.to_string() << ": "
        << record.violation.details;
  }
}

TEST(AvisEndToEnd, FindsSeededBugsOnPx4Fence) {
  core::Checker checker(fw::Personality::kPx4Like, workload::WorkloadId::kFenceMission,
                        fw::BugRegistry::current_code_base());
  core::SabreScheduler sabre(core::SimulationHarness::iris_suite(),
                             checker.model().golden_transitions());
  core::BudgetClock budget = core::BudgetClock::two_hours();
  const auto report = checker.run(sabre, budget);

  EXPECT_TRUE(report.found_bug(fw::BugId::kPx417057));
  EXPECT_TRUE(report.found_bug(fw::BugId::kPx417181));
  EXPECT_TRUE(report.found_bug(fw::BugId::kPx417192));
  EXPECT_TRUE(report.found_bug(fw::BugId::kPx417046));
}

TEST(AvisEndToEnd, StratifiedBfiMissesGatedWindows) {
  core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                        fw::BugRegistry::current_code_base());
  static baselines::NaiveBayesModel bayes(baselines::default_training_corpus());
  baselines::StratifiedBfi sbfi(core::SimulationHarness::iris_suite(),
                                checker.model().golden_transitions(), bayes);
  core::BudgetClock budget = core::BudgetClock::two_hours();
  const auto report = checker.run(sbfi, budget);

  // Table II: Stratified BFI finds the waypoint-window bugs...
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm16967));
  // ...but not the GPS, barometer, or landing-phase ones.
  EXPECT_FALSE(report.found_bug(fw::BugId::kApm16020));
  EXPECT_FALSE(report.found_bug(fw::BugId::kApm16027));
  EXPECT_FALSE(report.found_bug(fw::BugId::kApm16682));
  EXPECT_FALSE(report.found_bug(fw::BugId::kApm16953));
}

TEST(AvisEndToEnd, TableVKnownBugReinsertedAndFound) {
  // Re-insert APM-4679 (the land-flap bug) and check Avis triggers it.
  fw::BugRegistry bugs = fw::BugRegistry::current_code_base();
  bugs.enable(fw::BugId::kApm4679);
  core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                        bugs);
  core::SabreScheduler sabre(core::SimulationHarness::iris_suite(),
                             checker.model().golden_transitions());
  core::BudgetClock budget = core::BudgetClock::two_hours();
  const auto report = checker.run(sabre, budget);
  EXPECT_TRUE(report.found_bug(fw::BugId::kApm4679));
}

TEST(AvisEndToEnd, UnsafeRecordsCarryReplayableContext) {
  core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                        fw::BugRegistry::current_code_base());
  core::SabreScheduler sabre(core::SimulationHarness::iris_suite(),
                             checker.model().golden_transitions());
  core::BudgetClock budget(30 * 60 * 1000);
  const auto report = checker.run(sabre, budget);
  ASSERT_GT(report.unsafe_count(), 0);
  for (const auto& record : report.unsafe) {
    EXPECT_FALSE(record.plan.empty());
    EXPECT_FALSE(record.transitions.empty());
    EXPECT_GT(record.seed, 0u);
    EXPECT_GT(record.experiment_index, 0);
  }
}

}  // namespace
}  // namespace avis
