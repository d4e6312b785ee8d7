#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "core/harness.h"
#include "core/sabre.h"

namespace avis::core {
namespace {

std::vector<ModeTransition> toy_transitions() {
  return {{3540, 0x0400, "takeoff"}, {13000, 0x0501, "auto-wp1"}, {34000, 0x0900, "land"}};
}

ExperimentResult ok_result() {
  ExperimentResult r;
  r.workload_passed = true;
  return r;
}

ExperimentResult unsafe_result() {
  ExperimentResult r;
  r.violation = Violation{ViolationType::kCrash, 5000, 0x0400, "boom"};
  return r;
}

class SabreTest : public ::testing::Test {
 protected:
  sensors::SuiteConfig suite_ = SimulationHarness::iris_suite();
  BudgetClock budget_{3600 * 1000 * 4LL};
};

TEST_F(SabreTest, FirstBatchIsSingletonsAtFirstTransition) {
  SabreScheduler sabre(suite_, toy_transitions());
  // Canonical singletons for the Iris suite: gyro P/B, accel P/B, baro,
  // gps, compass P/B, battery = 9.
  std::set<std::string> sigs;
  for (int i = 0; i < 9; ++i) {
    auto plan = sabre.next(budget_);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->size(), 1u);
    EXPECT_EQ(plan->events[0].time_ms, 3540);
    sigs.insert(plan->signature());
    sabre.feedback(*plan, ok_result());
  }
  EXPECT_EQ(sigs.size(), 9u);
}

TEST_F(SabreTest, CoversAllTransitionsBeforeDeepOffsets) {
  SabreScheduler sabre(suite_, toy_transitions());
  std::set<sim::SimTimeMs> times_in_first_cycle;
  for (int i = 0; i < 27; ++i) {  // 3 transitions x 9 singletons
    auto plan = sabre.next(budget_);
    ASSERT_TRUE(plan.has_value());
    times_in_first_cycle.insert(plan->events[0].time_ms);
    sabre.feedback(*plan, ExperimentResult{});  // no transitions: no frontier
  }
  EXPECT_TRUE(times_in_first_cycle.contains(3540));
  EXPECT_TRUE(times_in_first_cycle.contains(13000));
  EXPECT_TRUE(times_in_first_cycle.contains(34000));
}

TEST_F(SabreTest, CrawlsBothDirections) {
  SabreConfig config;
  config.offset_step_ms = 200;
  SabreScheduler sabre(suite_, {{13000, 0x0501, "auto-wp1"}}, config);
  std::set<sim::SimTimeMs> times;
  for (int i = 0; i < 120; ++i) {
    auto plan = sabre.next(budget_);
    if (!plan) break;
    times.insert(plan->events.back().time_ms);
    sabre.feedback(*plan, ExperimentResult{});
  }
  EXPECT_TRUE(times.contains(13200));
  EXPECT_TRUE(times.contains(12800));
}

TEST_F(SabreTest, InstanceSymmetryPrunesBackupTwins) {
  SabreScheduler sabre(suite_, toy_transitions());
  // Collect every singleton proposed at the first transition; compass
  // backups #1 and #2 must collapse to one scenario.
  int compass_backups = 0;
  for (int i = 0; i < 9; ++i) {
    auto plan = sabre.next(budget_);
    ASSERT_TRUE(plan.has_value());
    const auto& e = plan->events[0];
    if (e.sensor.type == sensors::SensorType::kCompass && e.sensor.instance > 0) {
      ++compass_backups;
    }
    sabre.feedback(*plan, ExperimentResult{});
  }
  EXPECT_EQ(compass_backups, 1);
}

TEST_F(SabreTest, NoSymmetryExploresEveryInstance) {
  SabreConfig config;
  config.symmetry_pruning = false;
  SabreScheduler sabre(suite_, {{3540, 0x0400, "takeoff"}}, config);
  int first_batch_singletons = 0;
  for (int i = 0; i < 10; ++i) {
    auto plan = sabre.next(budget_);
    if (!plan || plan->events[0].time_ms != 3540 || plan->size() != 1) break;
    ++first_batch_singletons;
    sabre.feedback(*plan, ExperimentResult{});
  }
  EXPECT_EQ(first_batch_singletons, 10);  // all 10 concrete instances
}

TEST_F(SabreTest, FoundBugPruningBlocksSupersetsAtSameTimestamp) {
  SabreConfig config;
  config.full_powerset_batches = true;  // pairs come right after singletons
  config.max_offsets = 0;
  SabreScheduler sabre(suite_, {{5000, 0x0400, "takeoff"}}, config);
  // Fail every GPS-containing plan; afterwards no superset of {GPS}@5000
  // may be proposed.
  std::vector<FaultPlan> proposed;
  while (auto plan = sabre.next(budget_)) {
    proposed.push_back(*plan);
    const bool has_gps =
        std::any_of(plan->events.begin(), plan->events.end(), [](const FaultEvent& e) {
          return e.sensor.type == sensors::SensorType::kGps;
        });
    const bool gps_alone = has_gps && plan->size() == 1;
    sabre.feedback(*plan, gps_alone ? unsafe_result() : ok_result());
  }
  int gps_supersets = 0;
  for (const auto& plan : proposed) {
    const bool has_gps =
        std::any_of(plan.events.begin(), plan.events.end(), [](const FaultEvent& e) {
          return e.sensor.type == sensors::SensorType::kGps;
        });
    if (has_gps && plan.size() > 1) ++gps_supersets;
  }
  EXPECT_EQ(gps_supersets, 0);
  EXPECT_GT(sabre.pruned_by_found_bug(), 0);
}

TEST_F(SabreTest, FoundBugPruningDisabledExploresSupersets) {
  SabreConfig config;
  config.full_powerset_batches = true;
  config.found_bug_pruning = false;
  config.max_offsets = 0;
  SabreScheduler sabre(suite_, {{5000, 0x0400, "takeoff"}}, config);
  int gps_supersets = 0;
  while (auto plan = sabre.next(budget_)) {
    const bool has_gps =
        std::any_of(plan->events.begin(), plan->events.end(), [](const FaultEvent& e) {
          return e.sensor.type == sensors::SensorType::kGps;
        });
    if (has_gps && plan->size() > 1) ++gps_supersets;
    const bool gps_alone = has_gps && plan->size() == 1;
    sabre.feedback(*plan, gps_alone ? unsafe_result() : ok_result());
  }
  EXPECT_GT(gps_supersets, 0);
}

TEST_F(SabreTest, OkRunsSpawnAugmentedPlans) {
  SabreScheduler sabre(suite_, {{3540, 0x0400, "takeoff"}});
  auto first = sabre.next(budget_);
  ASSERT_TRUE(first.has_value());
  // The run was clean and discovered a later transition at t=20000.
  ExperimentResult result;
  result.workload_passed = true;
  result.transitions = {{0, 0, "preflight"}, {20000, 0x0900, "land"}};
  sabre.feedback(*first, result);
  // Eventually a plan with the original fault plus a new one at 20000 must
  // be proposed (the PX4-13291 discovery pattern).
  bool found_augmented = false;
  for (int i = 0; i < 600 && !found_augmented; ++i) {
    auto plan = sabre.next(budget_);
    if (!plan) break;
    if (plan->size() == 2 && plan->events[0].time_ms == first->events[0].time_ms &&
        plan->events[1].time_ms == 20000) {
      found_augmented = true;
    }
    sabre.feedback(*plan, ExperimentResult{});
  }
  EXPECT_TRUE(found_augmented);
}

TEST_F(SabreTest, AugmentedFrontierOutranksInitialFrontier) {
  // Regression for the buried augmented frontier: entries contributed by a
  // bug-free run's post-injection transitions must be serviced with queue-
  // front priority (rate-limited by augmented_interleave), not appended
  // behind the seeded transitions and their crawl refinements. The paper's
  // multi-fault chains (PX4-13291's GPS-then-battery) hinge on this.
  SabreScheduler sabre(suite_, toy_transitions());
  auto first = sabre.next(budget_);
  ASSERT_TRUE(first.has_value());
  // The first run is clean and observed transitions at 20000 and 25000,
  // both after the injection.
  ExperimentResult clean;
  clean.workload_passed = true;
  clean.transitions = {{0, 0, "preflight"}, {20000, 0x0900, "land"}, {25000, 0, "preflight"}};
  sabre.feedback(*first, clean);

  int chain_index = -1;        // first two-fault chain through t=20000
  int second_chain_index = -1; // companion entry at t=25000 (order preserved)
  int last_transition_index = -1;  // first singleton at the last seed (34000)
  for (int i = 1; i < 100; ++i) {
    auto plan = sabre.next(budget_);
    ASSERT_TRUE(plan.has_value());
    if (plan->size() == 2 && plan->events[0] == first->events[0]) {
      if (chain_index < 0 && plan->events[1].time_ms == 20000) chain_index = i;
      if (second_chain_index < 0 && plan->events[1].time_ms == 25000) second_chain_index = i;
    }
    if (last_transition_index < 0 && plan->size() == 1 && plan->events[0].time_ms == 34000) {
      last_transition_index = i;
    }
    sabre.feedback(*plan, ExperimentResult{});
  }
  // The chain surfaces within the first expansion waves — tens of
  // simulations — rather than after the initial frontier (seeds + crawls)
  // drains. Before the fix it appeared only behind the crawl refinements.
  ASSERT_GT(chain_index, 0);
  EXPECT_LE(chain_index, 30);
  ASSERT_GT(second_chain_index, 0);
  // The <=2 enqueued transitions keep their relative order.
  EXPECT_LT(chain_index, second_chain_index);
  // ...and the chain outranks the last seeded transition's own wave.
  ASSERT_GT(last_transition_index, 0);
  EXPECT_LT(chain_index, last_transition_index);
}

// Settled-wave batching. next_batch may expand later waves into one
// request only where the feedback of the plans already in it cannot change
// the expansion, so a batched schedule equals one-plan-at-a-time.

std::set<sim::SimTimeMs> injection_times(const std::vector<FaultPlan>& plans) {
  std::set<sim::SimTimeMs> times;
  for (const auto& plan : plans) times.insert(plan.events.back().time_ms);
  return times;
}

TEST_F(SabreTest, BatchCrossesSettledWaves) {
  SabreScheduler sabre(suite_, toy_transitions());
  const std::vector<FaultPlan> batch = sabre.next_batch(budget_, 100);
  // The 9-singleton wave at the first transition, then the second
  // transition's wave: nothing in flight can change that expansion.
  EXPECT_GT(batch.size(), 9u);
  EXPECT_EQ(injection_times(batch), (std::set<sim::SimTimeMs>{3540, 13000}));
}

TEST_F(SabreTest, BatchNeverCrossesIntoADueEmptyAugmentedLane) {
  SabreScheduler sabre(suite_, toy_transitions());
  // After two primary waves the augmented lane's turn is due. It is empty,
  // but the in-flight plans' feedback could refill it, so the batch stops
  // short of the third transition however much room it has.
  const std::vector<FaultPlan> batch = sabre.next_batch(budget_, 100);
  EXPECT_FALSE(injection_times(batch).contains(34000));
  ExperimentResult clean = ok_result();
  clean.transitions = {{20000, 0x0900, "land"}};
  for (const auto& plan : batch) sabre.feedback(plan, clean);
  // The feedback did refill it: the next wave extends a finished plan.
  auto next = sabre.next(budget_);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->size(), 2u);
  EXPECT_EQ(next->events.back().time_ms, 20000);
}

TEST_F(SabreTest, BatchNeverCrossesWhileBothPrimaryLanesAreEmpty) {
  SabreConfig config;
  config.max_offsets = 0;        // the seed's two crawl steps, then nothing
  config.pair_interleave = 100;  // pairs only once the primary lanes drain
  SabreScheduler sabre(suite_, {{5000, 0x0400, "takeoff"}}, config);
  // Waves at 5000 and 5200, then the empty augmented lane is due.
  const std::vector<FaultPlan> first = sabre.next_batch(budget_, 100);
  EXPECT_EQ(injection_times(first), (std::set<sim::SimTimeMs>{5000, 5200}));
  for (const auto& plan : first) sabre.feedback(plan, ok_result());
  // The 4800 wave drains the primary queue. Pairs at 5000 would be next
  // with both primary lanes empty, but the 4800 feedback may refill the
  // augmented lane, which would outrank them.
  const std::vector<FaultPlan> second = sabre.next_batch(budget_, 100);
  EXPECT_EQ(injection_times(second), (std::set<sim::SimTimeMs>{4800}));
  ExperimentResult clean = ok_result();
  clean.transitions = {{20000, 0x0900, "land"}};
  for (const auto& plan : second) sabre.feedback(plan, clean);
  auto next = sabre.next(budget_);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->events.back().time_ms, 20000);
}

TEST_F(SabreTest, BatchNeverExpandsAtAnInFlightTimestamp) {
  SabreConfig config;
  config.pair_interleave = 1;         // the pair wave at 3540 is due next
  config.augmented_interleave = 100;  // and the augmented lane is not
  SabreScheduler sabre(suite_, toy_transitions(), config);
  const std::vector<FaultPlan> batch = sabre.next_batch(budget_, 100);
  // The singletons at 3540 are in flight; a bug among them prunes pairs at
  // 3540, so the pair wave must wait for their feedback.
  ASSERT_EQ(batch.size(), 9u);
  for (const auto& plan : batch) {
    EXPECT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan.events[0].time_ms, 3540);
  }
  const std::string buggy = role_signature_of_set({batch[0].events[0].sensor});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sabre.feedback(batch[i], i == 0 ? unsafe_result() : ok_result());
  }
  const std::vector<FaultPlan> pairs = sabre.next_batch(budget_, 100);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].size(), 2u);
  EXPECT_EQ(pairs[0].events[0].time_ms, 3540);
  EXPECT_GT(sabre.pruned_by_found_bug(), 0);
  for (const auto& plan : pairs) {
    if (plan.size() != 2 || plan.events[0].time_ms != 3540) continue;
    std::vector<sensors::SensorId> set;
    for (const auto& e : plan.events) set.push_back(e.sensor);
    EXPECT_FALSE(role_signature_subset(buggy, role_signature_of_set(set)))
        << plan.to_string();
  }
}

TEST_F(SabreTest, IntraWavePruningConfigsStillSerialize) {
  // Full-powerset waves can contain a set and its same-timestamp superset,
  // and disabled symmetry folding can put role-identical sets in one wave;
  // serial execution prunes those at proposal time after a mid-wave bug, so
  // batching falls back to one plan at a time.
  SabreConfig powerset;
  powerset.full_powerset_batches = true;
  SabreConfig no_symmetry;
  no_symmetry.symmetry_pruning = false;
  for (const SabreConfig& config : {powerset, no_symmetry}) {
    SabreScheduler sabre(suite_, toy_transitions(), config);
    for (int i = 0; i < 20; ++i) {
      const std::vector<FaultPlan> batch = sabre.next_batch(budget_, 100);
      ASSERT_EQ(batch.size(), 1u);
      sabre.feedback(batch[0], ok_result());
    }
  }
  // With found-bug pruning off there is nothing to prune mid-wave, so the
  // full-powerset wave batches freely again.
  SabreConfig no_pruning = powerset;
  no_pruning.found_bug_pruning = false;
  SabreScheduler sabre(suite_, toy_transitions(), no_pruning);
  EXPECT_GT(sabre.next_batch(budget_, 100).size(), 1u);
}

// A deterministic stand-in for simulation: some plans trigger a bug, the
// rest finish and report transitions after their newest injection, so the
// schedule exercises found-bug pruning and the augmented lane.
ExperimentResult synthetic_result(const FaultPlan& plan) {
  const std::size_t h = std::hash<std::string>{}(plan.signature());
  if (h % 5 == 0) return unsafe_result();
  ExperimentResult r = ok_result();
  const sim::SimTimeMs newest = plan.events.back().time_ms;
  r.transitions = {{newest + 400 + static_cast<sim::SimTimeMs>(h % 3) * 200, 0x0501, "wp"},
                   {newest + 6000, 0x0900, "land"}};
  return r;
}

TEST_F(SabreTest, BatchedScheduleEqualsOneAtATimeUnderFeedback) {
  // The default search (cut at kPlans) and a short one that runs until
  // every lane drains.
  constexpr std::size_t kPlans = 1500;
  SabreConfig short_search;
  short_search.max_offsets = 2;
  for (const SabreConfig& config : {SabreConfig{}, short_search}) {
    SabreScheduler reference(suite_, toy_transitions(), config);
    std::vector<std::string> expected;
    while (expected.size() < kPlans) {
      auto plan = reference.next(budget_);
      if (!plan) break;
      expected.push_back(plan->signature());
      reference.feedback(*plan, synthetic_result(*plan));
    }
    for (const int width : {2, 5, 17, 64}) {
      SCOPED_TRACE("max_offsets " + std::to_string(config.max_offsets) + " width " +
                   std::to_string(width));
      SabreScheduler sabre(suite_, toy_transitions(), config);
      std::vector<std::string> actual;
      std::size_t widest = 0;
      while (actual.size() < kPlans) {
        const std::vector<FaultPlan> batch = sabre.next_batch(budget_, width);
        if (batch.empty()) break;
        widest = std::max(widest, batch.size());
        for (const auto& plan : batch) {
          actual.push_back(plan.signature());
          sabre.feedback(plan, synthetic_result(plan));
        }
      }
      actual.resize(std::min(actual.size(), kPlans));
      EXPECT_EQ(actual, expected);
      if (width == 64) {
        EXPECT_GT(widest, 9u) << "batches never crossed a wave";
      }
    }
  }
}

TEST(SabreSignatures, SubsetComparisonIsTokenExact) {
  // "1:P2" is a raw substring of "11:P2" — the old substring scan counted
  // that as a subset and pruned scenarios that share no failure set.
  EXPECT_FALSE(role_signature_subset("1:P2;", "11:P2;"));
  EXPECT_FALSE(role_signature_subset("1:P1;", "21:P1;"));
  // Real subsets and equal sets still match.
  EXPECT_TRUE(role_signature_subset("1:P2;", "0:-1;1:P2;"));
  EXPECT_TRUE(role_signature_subset("1:P2;", "1:P2;"));
  EXPECT_TRUE(role_signature_subset("", "1:P2;"));
  // Supersets are not subsets.
  EXPECT_FALSE(role_signature_subset("0:-1;1:P2;", "1:P2;"));
  // Tokenization drops empty segments and is delimiter-aware.
  const auto tokens = signature_tokens("0:-1;1:P2;");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "0:-1");
  EXPECT_EQ(tokens[1], "1:P2");
}

TEST_F(SabreTest, NeverProposesDuplicateScenario) {
  SabreScheduler sabre(suite_, toy_transitions());
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    auto plan = sabre.next(budget_);
    if (!plan) break;
    EXPECT_TRUE(seen.insert(plan->signature()).second)
        << "duplicate scenario: " << plan->to_string();
    sabre.feedback(*plan, ExperimentResult{});
  }
}

TEST_F(SabreTest, RespectsBudgetExhaustion) {
  SabreScheduler sabre(suite_, toy_transitions());
  BudgetClock tiny(1);
  tiny.charge_experiment(2);
  EXPECT_FALSE(sabre.next(tiny).has_value());
}

TEST_F(SabreTest, Fig5WalkthroughOrder) {
  // Two sensors, transitions at t1, t2, t4: the paper's Algorithm 1 example.
  sensors::SuiteConfig two;
  two.gyroscopes = 0;
  two.accelerometers = 0;
  two.barometers = 1;
  two.gpses = 1;
  two.compasses = 0;
  two.batteries = 0;
  SabreConfig config;
  config.full_powerset_batches = true;
  config.offset_step_ms = 1;
  config.max_offsets = 1;
  SabreScheduler sabre(two, {{1, 1, "takeoff"}, {2, 2, "auto"}, {4, 3, "land"}}, config);
  // First three plans: the full power set at t1 (GPS, Baro, GPS+Baro).
  std::vector<FaultPlan> plans;
  for (int i = 0; i < 9; ++i) {
    auto plan = sabre.next(budget_);
    ASSERT_TRUE(plan.has_value());
    plans.push_back(*plan);
    sabre.feedback(*plan, ExperimentResult{});
  }
  EXPECT_EQ(plans[0].events[0].time_ms, 1);
  EXPECT_EQ(plans[1].events[0].time_ms, 1);
  EXPECT_EQ(plans[2].events[0].time_ms, 1);
  EXPECT_EQ(plans[2].size(), 2u);  // {GPS, Baro} at t1
  // Then t2, then t4 — before any timestamp+1 refinement.
  EXPECT_EQ(plans[3].events[0].time_ms, 2);
  EXPECT_EQ(plans[6].events[0].time_ms, 4);
}

}  // namespace
}  // namespace avis::core
