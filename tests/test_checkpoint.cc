// Checkpointed prefix forking: a restored-and-resumed run must be
// bit-identical (trace, transitions, outcome, unsafe records) to the same
// spec simulated from scratch — the snapshot/restore analogue of the arena
// reset contract. The matrix below sweeps the full registry surface (both
// personalities x all five workloads) under the RNG-heaviest environment
// preset (gusty exercises the simulator's wind stream every step, so a
// mid-stream util::Rng snapshot — including the cached Marsaglia spare
// gaussian — is load-bearing), interleaved through one ExperimentContext
// like tests/test_harness.cc does for arenas.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/checker.h"
#include "core/harness.h"
#include "core/sabre.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;

// Full-field equality of two experiment results. Unlike the spot checks in
// test_harness.cc this compares every sample of the trace and every
// transition — "bit-identical" is the contract.
void expect_results_identical(const ExperimentResult& fresh, const ExperimentResult& restored,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fresh.workload_passed, restored.workload_passed);
  EXPECT_EQ(fresh.duration_ms, restored.duration_ms);
  EXPECT_EQ(fresh.fired_bugs, restored.fired_bugs);
  EXPECT_EQ(fresh.crash_cause, restored.crash_cause);
  ASSERT_EQ(fresh.violation.has_value(), restored.violation.has_value());
  if (fresh.violation) {
    EXPECT_EQ(fresh.violation->type, restored.violation->type);
    EXPECT_EQ(fresh.violation->time_ms, restored.violation->time_ms);
    EXPECT_EQ(fresh.violation->mode_id, restored.violation->mode_id);
    EXPECT_EQ(fresh.violation->details, restored.violation->details);
  }
  ASSERT_EQ(fresh.transitions.size(), restored.transitions.size());
  for (std::size_t i = 0; i < fresh.transitions.size(); ++i) {
    EXPECT_EQ(fresh.transitions[i].time_ms, restored.transitions[i].time_ms) << "t " << i;
    EXPECT_EQ(fresh.transitions[i].mode_id, restored.transitions[i].mode_id) << "t " << i;
    EXPECT_EQ(fresh.transitions[i].mode_name, restored.transitions[i].mode_name) << "t " << i;
  }
  ASSERT_EQ(fresh.trace.size(), restored.trace.size());
  for (std::size_t i = 0; i < fresh.trace.size(); ++i) {
    EXPECT_EQ(fresh.trace[i].time_ms, restored.trace[i].time_ms) << "i=" << i;
    EXPECT_EQ(fresh.trace[i].position, restored.trace[i].position) << "i=" << i;
    EXPECT_EQ(fresh.trace[i].acceleration, restored.trace[i].acceleration) << "i=" << i;
    EXPECT_EQ(fresh.trace[i].mode_id, restored.trace[i].mode_id) << "i=" << i;
    EXPECT_EQ(fresh.trace[i].on_ground, restored.trace[i].on_ground) << "i=" << i;
    EXPECT_EQ(fresh.trace[i].armed, restored.trace[i].armed) << "i=" << i;
  }
}

TEST(RngSnapshot, MidStreamSaveLoadPreservesTheMarsagliaSpare) {
  util::Rng original(12345);
  // An odd number of gaussian draws leaves a cached spare: the next
  // next_gaussian() must come from the cache, not a fresh polar round.
  for (int i = 0; i < 7; ++i) original.next_gaussian();
  util::Rng copy(0);
  copy.load(original.save());
  for (int i = 0; i < 64; ++i) {
    ASSERT_DOUBLE_EQ(original.next_gaussian(), copy.next_gaussian()) << "draw " << i;
    ASSERT_EQ(original.next_u64(), copy.next_u64()) << "draw " << i;
  }
}

// best_for is a binary search (std::upper_bound) over the time-sorted
// snapshot list; the boundary cases pin the off-by-one surface: exact-time
// hits on the first / a middle / the last snapshot, an injection strictly
// before the first snapshot, and one after the last.
TEST(Checkpoint, FirstInjectionPicksTheLatestUsableSnapshot) {
  CheckpointConfig config;
  config.interval_ms = 5000;
  CheckpointStore store(config);
  std::vector<ExperimentSnapshot> snapshots;
  for (sim::SimTimeMs t : {5000, 10000, 15000}) {
    snapshots.emplace_back();
    snapshots.back().time_ms = t;
  }
  store.install_root(ExperimentSpec{}, nullptr, std::move(snapshots), ExperimentResult{}, {});
  EXPECT_EQ(store.best_for(0), nullptr);     // injects at t=0: nothing usable
  EXPECT_EQ(store.best_for(4999), nullptr);  // injects before the first snapshot
  EXPECT_EQ(store.best_for(5000)->time_ms, 5000);    // exact hit, first
  EXPECT_EQ(store.best_for(5001)->time_ms, 5000);    // just past the first
  EXPECT_EQ(store.best_for(10000)->time_ms, 10000);  // exact hit, middle
  EXPECT_EQ(store.best_for(12000)->time_ms, 10000);
  EXPECT_EQ(store.best_for(15000)->time_ms, 15000);  // exact hit, last
  EXPECT_EQ(store.best_for(99999)->time_ms, 15000);  // after the last
  EXPECT_EQ(store.best_for(FaultPlan::kNever)->time_ms, 15000);  // empty plan
}

TEST(Checkpoint, BestForHandlesASingleSnapshotStore) {
  CheckpointStore store{CheckpointConfig{}};
  std::vector<ExperimentSnapshot> snapshots(1);
  snapshots[0].time_ms = 7000;
  store.install_root(ExperimentSpec{}, nullptr, std::move(snapshots), ExperimentResult{}, {});
  EXPECT_EQ(store.best_for(6999), nullptr);
  EXPECT_EQ(store.best_for(7000)->time_ms, 7000);
  EXPECT_EQ(store.best_for(7001)->time_ms, 7000);
}

// The headline contract: restore-vs-fresh parity across the full registry
// surface — both personalities x all five workloads x gusty — with early
// (miss), mid-mission, multi-event and empty (golden re-run) plans, all
// interleaved through one context so stale state from any earlier
// combination would surface in a later one.
TEST(Checkpoint, RestoredRunsAreBitIdenticalAcrossTheRegistrySurface) {
  SimulationHarness harness;
  ExperimentContext context;
  CheckpointConfig config;  // default cadence (5000 ms), default budget

  const std::vector<std::string> personalities = {"ardupilot", "px4"};
  const std::vector<std::string> workloads = {"auto", "box-manual", "fence-mission",
                                              "wind-gust-box", "survey"};
  int monitored_combos = 0;
  for (const std::string& personality : personalities) {
    for (const std::string& workload : workloads) {
      const std::string label = personality + "/" + workload + "/gusty";
      SCOPED_TRACE(label);
      ScenarioSpec scenario;
      scenario.personality = personality;
      scenario.workload = workload;
      scenario.environment = "gusty";
      ExperimentSpec prototype = scenario_prototype(scenario);

      // Profile only when the golden run completes under gusts (the
      // monitored precondition); otherwise exercise the unmonitored path —
      // parity must hold either way.
      ExperimentSpec golden_spec = prototype;
      golden_spec.plan = FaultPlan{};
      const ExperimentResult golden = harness.run(golden_spec, nullptr, &context);
      std::optional<MonitorModel> model;
      if (golden.workload_passed) {
        model = harness.profile(prototype, 3, prototype.seed, &context);
        ++monitored_combos;
      }
      const MonitorModel* monitor = model ? &*model : nullptr;

      ExperimentSpec spec = prototype;
      if (monitor != nullptr) spec.max_duration_ms = model->profiling_duration_ms() + 45000;
      const CheckpointStore store = harness.record_prefix(spec, monitor, config, &context);
      ASSERT_GT(store.size(), 0u);
      EXPECT_EQ(store.evicted(), 0);

      struct PlanCase {
        const char* name;
        FaultPlan plan;
        bool expect_hit;
      };
      std::vector<PlanCase> cases;
      cases.push_back({"early-miss", {}, false});
      cases.back().plan.add(500, {SensorType::kCompass, 0});
      cases.push_back({"mid-single", {}, true});
      cases.back().plan.add(12000, {SensorType::kCompass, 0});
      cases.push_back({"late-multi", {}, true});
      cases.back().plan.add(18000, {SensorType::kGps, 0});
      cases.back().plan.add(26000, {SensorType::kBarometer, 0});
      cases.push_back({"empty-golden", {}, true});

      for (PlanCase& plan_case : cases) {
        spec.plan = plan_case.plan;
        const ExperimentResult fresh = harness.run(spec, monitor, &context);
        const ExperimentResult restored = harness.run(spec, monitor, &context, &store);
        EXPECT_EQ(fresh.resumed_from_ms, 0);
        if (plan_case.expect_hit) {
          EXPECT_GT(restored.resumed_from_ms, 0) << plan_case.name;
          EXPECT_LE(restored.resumed_from_ms, spec.plan.first_injection_ms());
        } else {
          EXPECT_EQ(restored.resumed_from_ms, 0) << plan_case.name;
        }
        expect_results_identical(fresh, restored, label + "/" + plan_case.name);
      }
    }
  }
  // The monitored restore path (session history, violation timing,
  // stop-on-violation truncation) must have real coverage in this matrix.
  EXPECT_GE(monitored_combos, 4);
}

// Violation-bearing restores: the compass fault in the APM-16967 window
// produces a monitored violation; a restored run must report it at the
// same millisecond with the same truncated duration.
TEST(Checkpoint, RestoredViolationTimingMatchesFresh) {
  auto& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike,
                                    workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  SimulationHarness harness;
  ExperimentContext context;

  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.max_duration_ms = model.profiling_duration_ms() + 45000;
  const CheckpointStore store = harness.record_prefix(spec, &model, {}, &context);

  spec.plan.add(avis::testing::transition_time(model, "auto-wp2"),
                {SensorType::kCompass, 0});
  const ExperimentResult fresh = harness.run(spec, &model, &context);
  ASSERT_TRUE(fresh.violation.has_value());
  const ExperimentResult restored = harness.run(spec, &model, &context, &store);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "fence-mission violation");
}

// The byte budget degrades the store to a coarser cadence instead of
// disappearing: eviction keeps restores exact, just from earlier snapshots.
TEST(Checkpoint, ByteBudgetEvictsToCoarserCadenceWithoutBreakingParity) {
  auto& checker = avis::testing::cached_checker(fw::Personality::kArduPilotLike,
                                                workload::WorkloadId::kAuto);
  const MonitorModel& model = checker.model();
  SimulationHarness harness;
  ExperimentContext context;

  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kAuto;
  spec.seed = 100;
  spec.max_duration_ms = model.profiling_duration_ms() + 45000;

  CheckpointConfig roomy;
  const CheckpointStore full = harness.record_prefix(spec, &model, roomy, &context);
  ASSERT_GT(full.size(), 2u);

  CheckpointConfig tight;
  tight.byte_budget = full.total_bytes() / 3;
  const CheckpointStore thinned = harness.record_prefix(spec, &model, tight, &context);
  EXPECT_GT(thinned.evicted(), 0);
  EXPECT_LT(thinned.size(), full.size());
  EXPECT_LE(thinned.total_bytes(), tight.byte_budget);

  spec.plan.add(12000, {SensorType::kCompass, 0});
  const ExperimentResult fresh = harness.run(spec, &model, &context);
  const ExperimentResult restored = harness.run(spec, &model, &context, &thinned);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "thinned store");
}

// Checker-level: a checkpointed campaign reports the same experiments,
// budget charges, unsafe records and stalled-run count as one with trees
// disabled or checkpointing off entirely — the checkpoint counters are the
// only fields allowed to differ across the three modes.
TEST(Checkpoint, CheckerCampaignIsReportIdenticalAcrossCheckpointModes) {
  constexpr sim::SimTimeMs kBudgetMs = 600 * 1000;
  const auto suite = SimulationHarness::iris_suite();

  ExperimentSpec prototype;
  prototype.personality = fw::Personality::kArduPilotLike;
  prototype.workload = workload::WorkloadId::kAuto;
  prototype.seed = 100;

  // Blanks a report's checkpoint accounting; everything else must then
  // match the cold run bit for bit. stalled_runs is deliberately NOT
  // blanked — it is derived from results, not from checkpoint state.
  const auto normalized = [](CheckerReport report) {
    report.checkpoint_hits = 0;
    report.checkpoint_misses = 0;
    report.checkpoint_hits_by_level.clear();
    report.checkpoint_evicted = 0;
    report.checkpoint_tree_evicted = 0;
    report.checkpoint_skipped_ms = 0;
    return report;
  };

  CheckpointConfig off;
  off.enabled = false;
  Checker cold_checker(prototype, off);
  SabreScheduler cold_strategy(suite, cold_checker.model().golden_transitions());
  BudgetClock cold_budget(kBudgetMs);
  const CheckerReport cold = cold_checker.run(cold_strategy, cold_budget);
  EXPECT_EQ(cold.checkpoint_hits + cold.checkpoint_misses, 0);
  EXPECT_TRUE(cold.checkpoint_hits_by_level.empty());

  CheckpointConfig root_only;
  root_only.trees = false;
  Checker root_checker(prototype, root_only);
  SabreScheduler root_strategy(suite, root_checker.model().golden_transitions());
  BudgetClock root_budget(kBudgetMs);
  const CheckerReport root = root_checker.run(root_strategy, root_budget);
  EXPECT_GT(root.checkpoint_hits, 0);
  // Trees off: every hit restores the fault-free root (level 0).
  for (std::size_t level = 1; level < root.checkpoint_hits_by_level.size(); ++level) {
    EXPECT_EQ(root.checkpoint_hits_by_level[level], 0) << "level " << level;
  }
  EXPECT_EQ(root.checkpoint_tree_evicted, 0);

  Checker warm_checker(prototype);  // checkpointing + trees on by default
  SabreScheduler warm_strategy(suite, warm_checker.model().golden_transitions());
  BudgetClock warm_budget(kBudgetMs);
  const CheckerReport warm = warm_checker.run(warm_strategy, warm_budget);
  EXPECT_GT(warm.checkpoint_hits, 0);
  EXPECT_GT(warm.checkpoint_skipped_ms, 0);
  EXPECT_EQ(warm.checkpoint_hits + warm.checkpoint_misses, warm.experiments);
  // The per-level split sums to the headline hit counter.
  int by_level_total = 0;
  for (int hits : warm.checkpoint_hits_by_level) by_level_total += hits;
  EXPECT_EQ(by_level_total, warm.checkpoint_hits);
  // The chain-heavy SABRE grid must actually exercise the tree: at least
  // one hit restored a faulty-prefix snapshot (level >= 1).
  ASSERT_GE(warm.checkpoint_hits_by_level.size(), 2u);
  int tree_hits = 0;
  for (std::size_t level = 1; level < warm.checkpoint_hits_by_level.size(); ++level) {
    tree_hits += warm.checkpoint_hits_by_level[level];
  }
  EXPECT_GT(tree_hits, 0);

  avis::testing::expect_reports_equal(normalized(cold), normalized(root));
  avis::testing::expect_reports_equal(normalized(cold), normalized(warm));
}

// --- The root from the golden profiling run ---------------------------------
// The checker builds its root from golden profiling run 0's captures instead
// of simulating a monitored fault-free prefix run. The store must be exactly
// what that monitored run would have recorded: checked below against cold
// monitored runs of the same spec, which is what the old recorder was.

void expect_capsules_equal(const MonitorSession::Snapshot& expected,
                           const MonitorSession::Snapshot& actual) {
  EXPECT_EQ(expected.history_len, actual.history_len);
  EXPECT_EQ(expected.consecutive_eq1, actual.consecutive_eq1);
  EXPECT_EQ(expected.eq1_started_ms, actual.eq1_started_ms);
  EXPECT_EQ(expected.eq1_mode, actual.eq1_mode);
  ASSERT_EQ(expected.violation.has_value(), actual.violation.has_value());
  if (expected.violation) {
    EXPECT_EQ(expected.violation->type, actual.violation->type);
    EXPECT_EQ(expected.violation->time_ms, actual.violation->time_ms);
  }
}

// Both personalities, a mission and a manual workload, calm and gusty air
// (gusty puts the wind RNG stream into the simulator capsule). A coarse
// cadence leaves most golden transitions off the grid, so the root's
// re-simulated snapshots get real coverage.
struct RootScenario {
  const char* personality;
  const char* workload;
  const char* environment;
};
constexpr RootScenario kRootScenarios[] = {
    {"ardupilot", "fence-mission", "calm"},
    {"px4", "box-manual", "gusty"},
    {"ardupilot", "box-manual", "gusty"},
    {"px4", "fence-mission", "calm"},
};
constexpr sim::SimTimeMs kRootIntervalMs = 4000;

std::string root_label(const RootScenario& scenario) {
  return std::string(scenario.personality) + "/" + scenario.workload + "/" +
         scenario.environment;
}

// One calibrated checker per scenario, cached across the tests below.
Checker& root_checker(const RootScenario& root) {
  static std::map<std::string, std::unique_ptr<Checker>> cache;
  auto& checker = cache[root_label(root)];
  if (!checker) {
    ScenarioSpec scenario;
    scenario.personality = root.personality;
    scenario.workload = root.workload;
    scenario.environment = root.environment;
    CheckpointConfig config;
    config.interval_ms = kRootIntervalMs;
    checker = std::make_unique<Checker>(scenario_prototype(scenario), config);
  }
  return *checker;
}

// The spec every experiment of the checker runs (Checker::p_make_spec).
ExperimentSpec experiment_spec(Checker& checker) {
  ExperimentSpec spec = checker.prototype();
  spec.max_duration_ms = checker.model().profiling_duration_ms() + Checker::kSettleMs;
  return spec;
}

TEST(CheckpointRoot, GoldenRunRootMatchesTheMonitoredPrefixRun) {
  SimulationHarness harness;
  ExperimentContext context;
  for (const RootScenario& root : kRootScenarios) {
    SCOPED_TRACE(root_label(root));
    Checker& checker = root_checker(root);
    const MonitorModel& model = checker.model();
    const CheckpointStore* store = checker.checkpoint_store();
    ASSERT_NE(store, nullptr);
    const ExperimentSpec spec = experiment_spec(checker);

    // The shared prefix is the monitored fault-free run's trace and mode
    // trace.
    const ExperimentResult prefix = harness.run(spec, &model, &context);
    ExperimentResult shared;
    shared.trace = store->prefix_trace();
    shared.transitions = store->prefix_transitions();
    shared.workload_passed = prefix.workload_passed;
    shared.duration_ms = prefix.duration_ms;
    shared.fired_bugs = prefix.fired_bugs;
    shared.crash_cause = prefix.crash_cause;
    shared.violation = prefix.violation;
    expect_results_identical(prefix, shared, "shared prefix");

    // A snapshot at every cadence point and every golden transition the
    // run reaches, nothing else.
    std::vector<sim::SimTimeMs> expected_times;
    for (sim::SimTimeMs t = kRootIntervalMs; t < prefix.duration_ms; t += kRootIntervalMs) {
      expected_times.push_back(t);
    }
    int off_grid = 0;
    for (const ModeTransition& t : model.golden_transitions()) {
      if (t.time_ms <= 0 || t.time_ms >= prefix.duration_ms) continue;
      expected_times.push_back(t.time_ms);
      if (t.time_ms % kRootIntervalMs != 0) ++off_grid;
    }
    std::sort(expected_times.begin(), expected_times.end());
    expected_times.erase(std::unique(expected_times.begin(), expected_times.end()),
                         expected_times.end());
    EXPECT_GT(off_grid, 0);
    ASSERT_EQ(store->size(), expected_times.size());

    // Each snapshot is the monitored run frozen at the top of its
    // iteration: a cold monitored run cut at max_duration_ms = t ends there.
    for (std::size_t i = 0; i < expected_times.size(); ++i) {
      const sim::SimTimeMs t = expected_times[i];
      const ExperimentSnapshot* snap = store->best_for(t);
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->time_ms, t);
      SCOPED_TRACE("t=" + std::to_string(t));
      ExperimentSpec cut = spec;
      cut.max_duration_ms = t;
      const ExperimentResult cold = harness.run(cut, &model, &context);
      expect_capsules_equal(context.monitor->save(), snap->monitor);
      EXPECT_EQ(snap->trace_len, cold.trace.size());
      EXPECT_EQ(snap->transitions_len, cold.transitions.size());
      EXPECT_FALSE(snap->violation.has_value());
    }
  }
}

TEST(CheckpointRoot, InjectionsAtGoldenTransitionsResumeExactlyThere) {
  SimulationHarness harness;
  ExperimentContext context;
  for (const RootScenario& root : kRootScenarios) {
    SCOPED_TRACE(root_label(root));
    Checker& checker = root_checker(root);
    const MonitorModel& model = checker.model();
    const CheckpointStore* store = checker.checkpoint_store();
    ASSERT_NE(store, nullptr);
    const ExperimentSpec base = experiment_spec(checker);
    int checked = 0;
    for (const ModeTransition& t : model.golden_transitions()) {
      if (t.time_ms <= 0 || t.time_ms >= model.golden_run().duration_ms) continue;
      SCOPED_TRACE(t.mode_name + "@" + std::to_string(t.time_ms));
      ExperimentSpec spec = base;
      spec.plan.add(t.time_ms, {SensorType::kCompass, 0});
      const ExperimentResult restored = harness.run(spec, &model, &context, store);
      EXPECT_EQ(restored.resumed_from_ms, t.time_ms);
      const ExperimentResult cold = harness.run(spec, &model, &context);
      expect_results_identical(cold, restored, "transition restore");
      ++checked;
    }
    EXPECT_GE(checked, 3);
  }
}

// A model calibrated on a different mission makes the replayed golden trace
// violate Eq. 1 partway through. The root must then hold what the monitored
// prefix run records before it stops: the trace through the violating
// sample, the transitions recorded by then, and snapshots up to that
// iteration only; with stop_on_violation off, the later snapshots carry the
// latched violation instead.
TEST(CheckpointRoot, ReplayViolationTruncatesTheRoot) {
  SimulationHarness harness;
  ExperimentContext context;
  const MonitorModel& wrong_model = root_checker(kRootScenarios[2]).model();  // box-manual
  ExperimentSpec spec = root_checker(kRootScenarios[0]).prototype();          // fence-mission
  CheckpointConfig config;
  config.interval_ms = kRootIntervalMs;

  const ExperimentResult monitored = harness.run(spec, &wrong_model, &context);
  ASSERT_TRUE(monitored.violation.has_value());
  const ExperimentResult unmonitored = harness.run(spec, nullptr, &context);
  ASSERT_LT(monitored.duration_ms, unmonitored.duration_ms);

  const CheckpointStore store = harness.record_prefix(spec, &wrong_model, config, &context);
  ExperimentResult shared = monitored;
  shared.trace = store.prefix_trace();
  shared.transitions = store.prefix_transitions();
  expect_results_identical(monitored, shared, "truncated prefix");
  const sim::SimTimeMs stop_ms = monitored.duration_ms - 1;  // the violating iteration
  ASSERT_GT(store.size(), 0u);
  EXPECT_EQ(store.best_for(FaultPlan::kNever)->time_ms,
            stop_ms / kRootIntervalMs * kRootIntervalMs);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(stop_ms / kRootIntervalMs));

  // A plan past the stop restores the last snapshot and still matches cold.
  ExperimentSpec late = spec;
  late.plan.add(stop_ms + 1, {SensorType::kGps, 0});
  const ExperimentResult restored = harness.run(late, &wrong_model, &context, &store);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(harness.run(late, &wrong_model, &context), restored, "late plan");

  // Without stop_on_violation the monitored run goes on, and so does the
  // root; its snapshots past the violation carry it.
  spec.stop_on_violation = false;
  const CheckpointStore latched = harness.record_prefix(spec, &wrong_model, config, &context);
  EXPECT_EQ(latched.prefix_trace().size(), unmonitored.trace.size());
  int after_violation = 0;
  for (sim::SimTimeMs t = kRootIntervalMs; t < unmonitored.duration_ms; t += kRootIntervalMs) {
    SCOPED_TRACE("t=" + std::to_string(t));
    const ExperimentSnapshot* snap = latched.best_for(t);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->time_ms, t);
    ExperimentSpec cut = spec;
    cut.max_duration_ms = t;
    const ExperimentResult cold = harness.run(cut, &wrong_model, &context);
    expect_capsules_equal(context.monitor->save(), snap->monitor);
    ASSERT_EQ(cold.violation.has_value(), snap->violation.has_value());
    if (cold.violation) {
      EXPECT_EQ(cold.violation->time_ms, snap->violation->time_ms);
      ++after_violation;
    }
  }
  EXPECT_GT(after_violation, 0);
}

// The context pool's free list is capped at its high-water concurrent-
// checkout mark: contexts released beyond the peak are freed, not pinned.
TEST(ExperimentContextPool, FreeListCapsAtHighWaterMark) {
  ExperimentContextPool pool;
  std::vector<std::unique_ptr<ExperimentContext>> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.high_water_mark(), 3u);
  for (auto& ctx : held) pool.release(std::move(ctx));
  held.clear();
  EXPECT_EQ(pool.idle_count(), 3u);
  // Releasing contexts the pool never saw concurrently must not grow the
  // idle list beyond the peak.
  pool.release(std::make_unique<ExperimentContext>());
  pool.release(std::make_unique<ExperimentContext>());
  EXPECT_EQ(pool.idle_count(), 3u);
  // Reuse drains the free list before allocating.
  auto a = pool.acquire();
  EXPECT_EQ(pool.idle_count(), 2u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle_count(), 3u);
}

}  // namespace
}  // namespace avis::core
