// Checkpointed prefix forking: a restored-and-resumed run must be
// bit-identical (trace, transitions, outcome, unsafe records) to the same
// spec simulated from scratch. The matrix below sweeps the full registry
// surface (both personalities x all five workloads) under the RNG-heaviest
// environment preset (gusty exercises the simulator's wind stream every
// step, so a mid-stream util::Rng snapshot — including the cached Marsaglia
// spare gaussian — is load-bearing), interleaved on one thread so that
// per-thread state leaking from an earlier combination would surface in a
// later one.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/checker.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;
using avis::testing::expect_results_identical;

TEST(RngSnapshot, MidStreamSaveLoadPreservesTheMarsagliaSpare) {
  util::Rng original(12345);
  // An odd number of gaussian draws leaves a cached spare: the next
  // next_gaussian() must come from the cache, not a fresh polar round.
  for (int i = 0; i < 7; ++i) original.next_gaussian();
  // A snapshot holds the Rng by value: restoring is a copy-assignment.
  util::Rng copy(0);
  copy = original;
  for (int i = 0; i < 64; ++i) {
    ASSERT_DOUBLE_EQ(original.next_gaussian(), copy.next_gaussian()) << "draw " << i;
    ASSERT_EQ(original.next_u64(), copy.next_u64()) << "draw " << i;
  }
}

FaultPlan plan_of(std::initializer_list<std::pair<sim::SimTimeMs, SensorId>> events) {
  FaultPlan plan;
  for (const auto& [t, id] : events) plan.add(t, id);
  return plan;
}

// Where `store` resumes `plan`: the snapshot's time, -1 for a cold start.
sim::SimTimeMs resumed_at(const CheckpointStore& store, const FaultPlan& plan) {
  const CheckpointResume resume = store.resolve(plan);
  return resume ? resume.snapshot->time_ms : -1;
}

// resolve walks a plan's levels deepest first down to the root's "" bucket,
// each level a binary search (std::upper_bound) over a time-sorted bucket.
// The table pins the off-by-one surface of level 0 — an empty plan, and an
// injection before, exactly at, between and past the root snapshots — and
// the tree levels above it: depth 1 and depth 2 hits, and chains whose
// recorded ancestor is too late to use and fall back a level.
TEST(Checkpoint, ResolvePicksTheDeepestLatestUsableSnapshot) {
  CheckpointStore store(CheckpointConfig{});
  std::vector<ExperimentSnapshot> root(3);
  root[0].time_ms = 5000;
  root[1].time_ms = 10000;
  root[2].time_ms = 15000;
  store.install_root(ExperimentSpec{}, nullptr, std::move(root), ExperimentResult{}, {});

  // A recorded chain {compass@6s, gps@12s}. Its snapshot at 5 s has nothing
  // activated yet (root coverage, dropped); 8 s files at depth 1, 14 s at 2.
  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};
  const SensorId baro{SensorType::kBarometer, 0};
  std::vector<ExperimentSnapshot> tree(3);
  tree[0].time_ms = 5000;
  tree[1].time_ms = 8000;
  tree[2].time_ms = 14000;
  store.merge_run(plan_of({{6000, compass}, {12000, gps}}), std::move(tree), {}, {});
  EXPECT_EQ(store.root_size(), 3u);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.recordings(), 2u);

  struct Case {
    const char* name;
    FaultPlan plan;
    sim::SimTimeMs resumed_at;  // -1 = cold start
    int depth;
  };
  const std::vector<Case> cases = {
      {"empty plan", FaultPlan{}, 15000, 0},
      {"injects at t=0", plan_of({{0, baro}}), -1, 0},
      {"before the first", plan_of({{4999, baro}}), -1, 0},
      {"at the first", plan_of({{5000, baro}}), 5000, 0},
      {"just past the first", plan_of({{5001, baro}}), 5000, 0},
      {"at a middle one", plan_of({{10000, baro}}), 10000, 0},
      {"between", plan_of({{12000, baro}}), 10000, 0},
      {"at the last", plan_of({{15000, baro}}), 15000, 0},
      {"past the last", plan_of({{99999, baro}}), 15000, 0},
      {"depth 1", plan_of({{6000, compass}, {9000, baro}}), 8000, 1},
      {"depth 1 too late", plan_of({{6000, compass}, {7000, baro}}), 5000, 0},
      {"depth 2", plan_of({{6000, compass}, {12000, gps}, {20000, baro}}), 14000, 2},
      {"depth 2 too late", plan_of({{6000, compass}, {12000, gps}, {13000, baro}}), 8000, 1},
      {"no recorded ancestor", plan_of({{6000, gps}, {9000, baro}}), 5000, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const CheckpointResume resume = store.resolve(c.plan);
    if (c.resumed_at < 0) {
      EXPECT_FALSE(resume);
      continue;
    }
    ASSERT_TRUE(resume);
    EXPECT_EQ(resume.snapshot->time_ms, c.resumed_at);
    EXPECT_EQ(resume.depth, c.depth);
    EXPECT_EQ(resume.keepalive->depth, c.depth);
  }
}

TEST(Checkpoint, ResolveHandlesASingleSnapshotRoot) {
  CheckpointStore store{CheckpointConfig{}};
  std::vector<ExperimentSnapshot> snapshots(1);
  snapshots[0].time_ms = 7000;
  store.install_root(ExperimentSpec{}, nullptr, std::move(snapshots), ExperimentResult{}, {});
  const SensorId gps{SensorType::kGps, 0};
  EXPECT_EQ(resumed_at(store, plan_of({{6999, gps}})), -1);
  EXPECT_EQ(resumed_at(store, plan_of({{7000, gps}})), 7000);
  EXPECT_EQ(resumed_at(store, plan_of({{7001, gps}})), 7000);
}

// One eviction rule over hand-built snapshots (each costs exactly
// `unit` bytes): whole recordings oldest first, the root last. clear_tree
// keeps the root and resets the counter to the root's own install-time
// evictions — what a freshly built store would report.
TEST(Checkpoint, EvictionTakesTheRootLastAndClearTreeKeepsIt) {
  const std::size_t unit = ExperimentSnapshot{}.approx_bytes();
  const auto snapshots = [](std::initializer_list<sim::SimTimeMs> times) {
    std::vector<ExperimentSnapshot> out;
    for (sim::SimTimeMs t : times) out.emplace_back().time_ms = t;
    return out;
  };
  const SensorId gps{SensorType::kGps, 0};

  // Room for the root and one more snapshot: a two-snapshot recording is
  // evicted whole, the older root stays.
  CheckpointConfig roomy;
  roomy.byte_budget = 4 * unit;
  CheckpointStore store(roomy);
  store.install_root(ExperimentSpec{}, nullptr, snapshots({1000, 2000, 3000}),
                     ExperimentResult{}, {});
  EXPECT_EQ(store.evicted(), 0);
  store.merge_run(plan_of({{1500, gps}}), snapshots({2000, 2500}), {}, {});
  EXPECT_EQ(store.evicted(), 2);
  EXPECT_EQ(store.recordings(), 1u);
  EXPECT_EQ(store.root_size(), 3u);
  EXPECT_EQ(store.bytes(), 3 * unit);
  store.clear_tree();
  EXPECT_EQ(store.evicted(), 0);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(resumed_at(store, plan_of({{2500, gps}})), 2000);

  // A root over the budget goes at install; tree recordings then evict
  // each other, and clear_tree goes back to the root's three evictions.
  CheckpointConfig tight;
  tight.byte_budget = 2 * unit;
  CheckpointStore rootless(tight);
  rootless.install_root(ExperimentSpec{}, nullptr, snapshots({1000, 2000, 3000}),
                        ExperimentResult{}, {});
  EXPECT_EQ(rootless.evicted(), 3);
  EXPECT_FALSE(rootless.has_restore_points());
  rootless.merge_run(plan_of({{1500, gps}}), snapshots({2000}), {}, {});
  rootless.merge_run(plan_of({{1600, gps}}), snapshots({2000, 3000}), {}, {});
  EXPECT_EQ(rootless.evicted(), 4);
  EXPECT_EQ(rootless.recordings(), 1u);
  rootless.clear_tree();
  EXPECT_EQ(rootless.evicted(), 3);
  EXPECT_EQ(rootless.size(), 0u);
  EXPECT_EQ(rootless.bytes(), 0u);
}

// The headline contract: restore-vs-fresh parity across the full registry
// surface — both personalities x all five workloads x gusty — with early
// (miss), mid-mission, multi-event and empty (golden re-run) plans, all
// interleaved on one thread.
TEST(Checkpoint, RestoredRunsAreBitIdenticalAcrossTheRegistrySurface) {
  SimulationHarness harness;

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
      const ExperimentResult golden = harness.run(golden_spec, nullptr);
      std::optional<MonitorModel> model;
      if (golden.workload_passed) {
        model = harness.profile(prototype, 3, prototype.seed);
        ++monitored_combos;
      }
      const MonitorModel* monitor = model ? &*model : nullptr;

      ExperimentSpec spec = prototype;
      if (monitor != nullptr) spec.max_duration_ms = model->profiling_duration_ms() + 45000;
      const CheckpointStore store = harness.record_prefix(spec, monitor, {});
      ASSERT_GT(store.root_size(), 0u);
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
        const ExperimentResult fresh = harness.run(spec, monitor);
        const ExperimentResult restored = harness.run(spec, monitor, nullptr, &store);
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

  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.max_duration_ms = model.profiling_duration_ms() + 45000;
  const CheckpointStore store = harness.record_prefix(spec, &model, {});

  spec.plan.add(avis::testing::transition_time(model, "auto-wp2"),
                {SensorType::kCompass, 0});
  const ExperimentResult fresh = harness.run(spec, &model);
  ASSERT_TRUE(fresh.violation.has_value());
  const ExperimentResult restored = harness.run(spec, &model, nullptr, &store);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "fence-mission violation");
}

// A root over the byte budget is evicted whole — there is no coarser
// cadence to fall back to — so every run starts cold and stays
// bit-identical to a cold run. A root that fits exactly stays.
TEST(Checkpoint, RootOverBudgetIsEvictedWholeAndRunsGoCold) {
  auto& checker = avis::testing::cached_checker(fw::Personality::kArduPilotLike,
                                                workload::WorkloadId::kAuto);
  const MonitorModel& model = checker.model();
  SimulationHarness harness;

  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kAuto;
  spec.seed = 100;
  spec.max_duration_ms = model.profiling_duration_ms() + 45000;

  const CheckpointStore full = harness.record_prefix(spec, &model, {});
  ASSERT_GT(full.root_size(), 2u);

  CheckpointConfig exact;
  exact.byte_budget = full.bytes();
  const CheckpointStore fits = harness.record_prefix(spec, &model, exact);
  EXPECT_EQ(fits.evicted(), 0);
  EXPECT_EQ(fits.root_size(), full.root_size());

  CheckpointConfig tight;
  tight.byte_budget = full.bytes() - 1;
  const CheckpointStore evicted = harness.record_prefix(spec, &model, tight);
  EXPECT_EQ(evicted.evicted(), static_cast<int>(full.root_size()));
  EXPECT_FALSE(evicted.has_restore_points());
  EXPECT_EQ(evicted.recordings(), 0u);
  EXPECT_EQ(evicted.bytes(), 0u);

  spec.plan.add(12000, {SensorType::kCompass, 0});
  const ExperimentResult fresh = harness.run(spec, &model);
  const ExperimentResult restored = harness.run(spec, &model, nullptr, &evicted);
  EXPECT_EQ(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "evicted root");
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

std::string root_label(const RootScenario& scenario) {
  return std::string(scenario.personality) + "/" + scenario.workload + "/" +
         scenario.environment;
}

// The root snapshot a plan injecting only at `t` restores.
const ExperimentSnapshot* root_snapshot_for(const CheckpointStore& store, sim::SimTimeMs t) {
  return store.resolve(plan_of({{t, {SensorType::kGps, 0}}})).snapshot;
}

// The root's shared trace and transitions, as an empty plan splices them.
ExperimentResult root_recording(const CheckpointStore& store, ExperimentResult shared) {
  const CheckpointResume root = store.resolve(FaultPlan{});
  EXPECT_TRUE(root);
  EXPECT_EQ(root.depth, 0);
  if (root) {
    shared.trace = *root.trace;
    shared.transitions = *root.transitions;
  }
  return shared;
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
    checker = std::make_unique<Checker>(scenario_prototype(scenario), CheckpointConfig{});
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
  for (const RootScenario& root : kRootScenarios) {
    SCOPED_TRACE(root_label(root));
    Checker& checker = root_checker(root);
    const MonitorModel& model = checker.model();
    const CheckpointStore* store = checker.checkpoint_store();
    ASSERT_NE(store, nullptr);
    const ExperimentSpec spec = experiment_spec(checker);

    // The shared prefix is the monitored fault-free run's trace and mode
    // trace.
    const ExperimentResult prefix = harness.run(spec, &model);
    expect_results_identical(prefix, root_recording(*store, prefix), "shared prefix");

    // A snapshot at every cadence point and every golden transition the
    // run reaches, nothing else.
    std::vector<sim::SimTimeMs> expected_times;
    for (sim::SimTimeMs t = kCheckpointIntervalMs; t < prefix.duration_ms;
         t += kCheckpointIntervalMs) {
      expected_times.push_back(t);
    }
    int off_grid = 0;
    for (const ModeTransition& t : model.golden_transitions()) {
      if (t.time_ms <= 0 || t.time_ms >= prefix.duration_ms) continue;
      expected_times.push_back(t.time_ms);
      if (t.time_ms % kCheckpointIntervalMs != 0) ++off_grid;
    }
    std::sort(expected_times.begin(), expected_times.end());
    expected_times.erase(std::unique(expected_times.begin(), expected_times.end()),
                         expected_times.end());
    EXPECT_GT(off_grid, 0);
    ASSERT_EQ(store->root_size(), expected_times.size());
    ASSERT_EQ(store->size(), expected_times.size());

    // Each snapshot is the monitored run frozen at the top of its
    // iteration: a cold monitored run cut at max_duration_ms = t ends there.
    for (std::size_t i = 0; i < expected_times.size(); ++i) {
      const sim::SimTimeMs t = expected_times[i];
      const ExperimentSnapshot* snap = root_snapshot_for(*store, t);
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->time_ms, t);
      SCOPED_TRACE("t=" + std::to_string(t));
      ExperimentSpec cut = spec;
      cut.max_duration_ms = t;
      ExperimentContext world;
      const ExperimentResult cold = harness.run(cut, &model, &world);
      expect_capsules_equal(world.monitor->save(), snap->monitor);
      EXPECT_EQ(snap->trace_len, cold.trace.size());
      EXPECT_EQ(snap->transitions_len, cold.transitions.size());
      EXPECT_FALSE(snap->violation.has_value());
    }
  }
}

TEST(CheckpointRoot, InjectionsAtGoldenTransitionsResumeExactlyThere) {
  SimulationHarness harness;
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
      const ExperimentResult restored = harness.run(spec, &model, nullptr, store);
      EXPECT_EQ(restored.resumed_from_ms, t.time_ms);
      const ExperimentResult cold = harness.run(spec, &model);
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
  const MonitorModel& wrong_model = root_checker(kRootScenarios[2]).model();  // box-manual
  ExperimentSpec spec = root_checker(kRootScenarios[0]).prototype();          // fence-mission
  const ExperimentResult monitored = harness.run(spec, &wrong_model);
  ASSERT_TRUE(monitored.violation.has_value());
  const ExperimentResult unmonitored = harness.run(spec, nullptr);
  ASSERT_LT(monitored.duration_ms, unmonitored.duration_ms);

  const CheckpointStore store = harness.record_prefix(spec, &wrong_model, {});
  expect_results_identical(monitored, root_recording(store, monitored), "truncated prefix");
  const sim::SimTimeMs stop_ms = monitored.duration_ms - 1;  // the violating iteration
  // The root's capture times (cadence grid plus the model's golden
  // transitions) up to the violating iteration, and none past it.
  std::vector<sim::SimTimeMs> kept;
  for (sim::SimTimeMs t = kCheckpointIntervalMs; t <= stop_ms; t += kCheckpointIntervalMs) {
    kept.push_back(t);
  }
  for (const ModeTransition& t : wrong_model.golden_transitions()) {
    if (t.time_ms > 0 && t.time_ms <= stop_ms) kept.push_back(t.time_ms);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(resumed_at(store, FaultPlan{}), kept.back());
  EXPECT_EQ(store.root_size(), kept.size());

  // A plan past the stop restores the last snapshot and still matches cold.
  ExperimentSpec late = spec;
  late.plan.add(stop_ms + 1, {SensorType::kGps, 0});
  const ExperimentResult restored = harness.run(late, &wrong_model, nullptr, &store);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(harness.run(late, &wrong_model), restored, "late plan");

  // Without stop_on_violation the monitored run goes on, and so does the
  // root; its snapshots past the violation carry it.
  spec.stop_on_violation = false;
  const CheckpointStore latched = harness.record_prefix(spec, &wrong_model, {});
  EXPECT_EQ(root_recording(latched, {}).trace.size(), unmonitored.trace.size());
  int after_violation = 0;
  for (sim::SimTimeMs t = kCheckpointIntervalMs; t < unmonitored.duration_ms;
       t += kCheckpointIntervalMs) {
    SCOPED_TRACE("t=" + std::to_string(t));
    const ExperimentSnapshot* snap = root_snapshot_for(latched, t);
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->time_ms, t);
    ExperimentSpec cut = spec;
    cut.max_duration_ms = t;
    ExperimentContext world;
    const ExperimentResult cold = harness.run(cut, &wrong_model, &world);
    expect_capsules_equal(world.monitor->save(), snap->monitor);
    ASSERT_EQ(cold.violation.has_value(), snap->violation.has_value());
    if (cold.violation) {
      EXPECT_EQ(cold.violation->time_ms, snap->violation->time_ms);
      ++after_violation;
    }
  }
  EXPECT_GT(after_violation, 0);
}

}  // namespace
}  // namespace avis::core
