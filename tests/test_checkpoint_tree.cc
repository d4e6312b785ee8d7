// Checkpoint trees: snapshots of *faulty* runs keyed by activated-injection
// signature, so a plan extending a previously-run chain restores the shared
// faulty prefix instead of re-simulating it. The contract under test is the
// same as the fault-free root's (tests/test_checkpoint.cc): a tree-restored
// run is bit-identical — every trace sample, transition, violation and
// duration — to the same spec simulated cold, across personalities x
// workloads and through the checker's capturing entry point with a mix of
// cold, root-restored and tree-restored runs. Eviction ordering rides along: byte-budget pressure
// evicts tree recordings whole (oldest first) and never touches the
// fault-free root to make room for the tree.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checker.h"
#include "core/checkpoint.h"
#include "core/harness.h"
#include "core/sabre.h"
#include "core/scenario.h"
#include "test_helpers.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;

// Full-field equality, same discipline as tests/test_checkpoint.cc:
// "bit-identical" means every sample, not spot checks.
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

FaultPlan chain(std::initializer_list<std::pair<sim::SimTimeMs, SensorId>> events) {
  FaultPlan plan;
  for (const auto& [t, id] : events) plan.add(t, id);
  return plan;
}

// The headline contract: a chain that extends a recorded parent restores a
// *faulty-prefix* snapshot (resume point strictly past its first injection,
// depth >= 1) and is bit-identical to the cold run — swept over both
// personalities x two workloads, parent -> child -> grandchild, all sharing
// one context so stale state from any earlier combination would surface.
TEST(CheckpointTree, TreeRestoredChainsAreBitIdenticalAcrossTheRegistrySurface) {
  SimulationHarness harness;
  ExperimentContext context;
  CheckpointConfig config;  // trees on by default, 1000 ms cadence

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};
  const SensorId baro{SensorType::kBarometer, 0};

  int deep_restores = 0;
  for (const std::string& personality : {"ardupilot", "px4"}) {
    for (const std::string& workload : {"auto", "fence-mission"}) {
      const std::string label = personality + "/" + workload;
      SCOPED_TRACE(label);
      ScenarioSpec scenario;
      scenario.personality = personality;
      scenario.workload = workload;
      ExperimentSpec spec = scenario_prototype(scenario);

      CheckpointStore store = harness.record_prefix(spec, nullptr, config, &context);
      ASSERT_GT(store.size(), 0u);

      // Grow the tree: parent {compass@12s}, then child {.., gps@18s} (the
      // child's own recording files depth-2 snapshots past 18 s).
      spec.plan = chain({{12000, compass}});
      harness.run_recording(spec, nullptr, &context, store);
      ASSERT_GT(store.tree_size(), 0u) << "parent recording merged nothing";
      spec.plan = chain({{12000, compass}, {18000, gps}});
      harness.run_recording(spec, nullptr, &context, store);

      // min_depth, not exact: the transition horizon legitimately stops a
      // child's recording before its second injection on workloads whose
      // first fault triggers transitions quickly, so the grandchild may
      // only find depth-1 ancestors there. The matrix as a whole must
      // still produce depth-2 restores (asserted after the sweep).
      struct ChainCase {
        const char* name;
        FaultPlan plan;
        int min_depth;
      };
      const std::vector<ChainCase> cases = {
          {"child", chain({{12000, compass}, {18000, gps}}), 1},
          {"grandchild", chain({{12000, compass}, {18000, gps}, {24000, baro}}), 1},
          // Extends the parent at a different second fault: still forks from
          // the parent's {compass@12s} snapshots.
          {"sibling", chain({{12000, compass}, {20000, baro}}), 1},
          // No recorded ancestor: falls back to the fault-free root.
          {"root-fallback", chain({{12000, gps}, {18000, compass}}), 0},
      };
      for (const ChainCase& c : cases) {
        spec.plan = c.plan;
        const ExperimentResult fresh = harness.run(spec, nullptr, &context);
        const ExperimentResult restored = harness.run(spec, nullptr, &context, &store);
        EXPECT_GE(restored.resumed_depth, c.min_depth) << c.name;
        if (c.min_depth >= 1) {
          // A tree restore resumes strictly past the first injection — the
          // whole point: the shared faulty prefix is not re-simulated.
          EXPECT_GT(restored.resumed_from_ms, spec.plan.first_injection_ms()) << c.name;
        } else {
          EXPECT_EQ(restored.resumed_depth, 0) << c.name;
          EXPECT_LE(restored.resumed_from_ms, spec.plan.first_injection_ms()) << c.name;
        }
        if (restored.resumed_depth >= 2) ++deep_restores;
        expect_results_identical(fresh, restored, label + "/" + c.name);
      }
    }
  }
  // The two-level walk (grandchild forking from the child's recording) must
  // have real coverage somewhere in the matrix.
  EXPECT_GT(deep_restores, 0);
}

// The checker's entry point (SimulationHarness::run with a capture limit):
// cold (t=0), root-restored, tree-restored and fault-free specs are each
// bit-identical to their cold run; plans within the capture limit come back
// with their tree snapshots, and the store is only read — nothing merges
// until the caller says so.
TEST(CheckpointTree, CapturingRunsMatchColdRunsAndLeaveTheStoreUntouched) {
  SimulationHarness harness;
  ExperimentContext context;
  CheckpointConfig config;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  CheckpointStore store = harness.record_prefix(prototype, nullptr, config, &context);
  ExperimentSpec parent = prototype;
  parent.plan = chain({{12000, compass}});
  harness.run_recording(parent, nullptr, &context, store);
  ASSERT_GT(store.tree_size(), 0u);
  const std::size_t tree_size = store.tree_size();

  constexpr int kCaptureLimit = 1;  // record single-event plans only
  struct Case {
    const char* name;
    FaultPlan plan;
    bool captures;
  };
  const std::vector<Case> cases = {
      {"cold", chain({{0, gps}}), true},
      {"tree", chain({{12000, compass}, {18000, gps}}), false},
      {"root", chain({{9000, gps}}), true},
      {"golden", FaultPlan{}, false},
      {"tree-late", chain({{12000, compass}, {21000, gps}}), false},
      {"root-early", chain({{3000, compass}}), true},
  };
  for (const Case& c : cases) {
    ExperimentSpec spec = prototype;
    spec.plan = c.plan;
    const ExperimentResult cold = harness.run(spec, nullptr, &context);
    std::vector<ExperimentSnapshot> captures;
    const ExperimentResult restored =
        harness.run(spec, nullptr, &context, &store, kCaptureLimit, &captures);
    expect_results_identical(cold, restored, c.name);
    EXPECT_EQ(!captures.empty(), c.captures) << c.name;
    EXPECT_EQ(store.tree_size(), tree_size) << c.name;
  }
}

// Eviction ordering: when root + tree exceed the byte budget, tree
// recordings are evicted whole (oldest first) and the fault-free root is
// never touched to make room — and an evicted-down store still restores
// bit-identically, just shallower.
TEST(CheckpointTree, BudgetPressureEvictsTreeRecordingsNeverTheRoot) {
  SimulationHarness harness;
  ExperimentContext context;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  // Measure the root's footprint with a roomy budget first.
  CheckpointConfig roomy;
  const CheckpointStore full = harness.record_prefix(prototype, nullptr, roomy, &context);
  ASSERT_GT(full.size(), 0u);

  // Room for the root plus a sliver: the first merged tree recording pushes
  // past the budget and must be evicted; the root must survive intact.
  CheckpointConfig tight;
  tight.byte_budget = full.total_bytes() + 4096;
  CheckpointStore store = harness.record_prefix(prototype, nullptr, tight, &context);
  ASSERT_EQ(store.evicted(), 0);
  const std::size_t root_snapshots = store.size();

  ExperimentSpec parent = prototype;
  parent.plan = chain({{12000, compass}});
  harness.run_recording(parent, nullptr, &context, store);
  EXPECT_GT(store.tree_evicted(), 0);
  EXPECT_EQ(store.tree_recordings(), 0u);
  EXPECT_EQ(store.tree_bytes(), 0u);
  // The root is never evicted to make room for the tree.
  EXPECT_EQ(store.evicted(), 0);
  EXPECT_EQ(store.size(), root_snapshots);

  // Restores from the evicted-down store fall back to the root and stay
  // bit-identical.
  ExperimentSpec child = prototype;
  child.plan = chain({{12000, compass}, {18000, gps}});
  const ExperimentResult fresh = harness.run(child, nullptr, &context);
  const ExperimentResult restored = harness.run(child, nullptr, &context, &store);
  EXPECT_EQ(restored.resumed_depth, 0);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "post-eviction child");
}

// FIFO whole-recording eviction under steady pressure: older recordings go
// first, the newest survives, and every eviction is counted.
TEST(CheckpointTree, EvictionIsOldestRecordingFirst) {
  SimulationHarness harness;
  ExperimentContext context;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};
  const SensorId baro{SensorType::kBarometer, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  CheckpointConfig roomy;
  const CheckpointStore sized = harness.record_prefix(prototype, nullptr, roomy, &context);

  ExperimentSpec parent = prototype;
  parent.plan = chain({{12000, compass}});

  // Budget with room for the root and roughly one recording: merging a
  // second recording evicts the first (FIFO), not the newcomer.
  CheckpointStore probe = harness.record_prefix(prototype, nullptr, roomy, &context);
  harness.run_recording(parent, nullptr, &context, probe);
  ASSERT_GT(probe.tree_bytes(), 0u);

  CheckpointConfig capped;
  capped.byte_budget = sized.total_bytes() + probe.tree_bytes() + probe.tree_bytes() / 2;
  CheckpointStore store = harness.record_prefix(prototype, nullptr, capped, &context);
  harness.run_recording(parent, nullptr, &context, store);
  ASSERT_EQ(store.tree_evicted(), 0);
  ASSERT_GT(store.tree_size(), 0u);

  ExperimentSpec second = prototype;
  second.plan = chain({{14000, gps}});
  harness.run_recording(second, nullptr, &context, store);
  EXPECT_GT(store.tree_evicted(), 0);

  // The survivor is the newest recording: its {gps@14s} snapshots resolve,
  // the evicted {compass@12s} parent's no longer do.
  ExperimentSpec gps_child = prototype;
  gps_child.plan = chain({{14000, gps}, {19000, baro}});
  EXPECT_EQ(store.resolve(gps_child.plan).depth, 1);
  ExperimentSpec compass_child = prototype;
  compass_child.plan = chain({{12000, compass}, {19000, baro}});
  EXPECT_EQ(store.resolve(compass_child.plan).depth, 0);
}

// Checker-level eviction parity: a campaign squeezed into a tiny byte
// budget (root thinned, tree recordings churning) reports identically to a
// roomy one modulo the checkpoint counters themselves.
TEST(CheckpointTree, CheckerReportSurvivesBudgetPressure) {
  constexpr sim::SimTimeMs kBudgetMs = 300 * 1000;
  const auto suite = SimulationHarness::iris_suite();

  ExperimentSpec prototype;
  prototype.personality = fw::Personality::kArduPilotLike;
  prototype.workload = workload::WorkloadId::kAuto;
  prototype.seed = 100;

  const auto normalized = [](CheckerReport report) {
    report.checkpoint_hits = 0;
    report.checkpoint_misses = 0;
    report.checkpoint_hits_by_level.clear();
    report.checkpoint_evicted = 0;
    report.checkpoint_tree_evicted = 0;
    report.checkpoint_skipped_ms = 0;
    return report;
  };

  Checker roomy_checker(prototype);
  SabreScheduler roomy_strategy(suite, roomy_checker.model().golden_transitions());
  BudgetClock roomy_budget(kBudgetMs);
  const CheckerReport roomy = roomy_checker.run(roomy_strategy, roomy_budget);

  CheckpointConfig squeezed;
  squeezed.byte_budget = 512 * 1024;
  Checker tight_checker(prototype, squeezed);
  SabreScheduler tight_strategy(suite, tight_checker.model().golden_transitions());
  BudgetClock tight_budget(kBudgetMs);
  const CheckerReport tight = tight_checker.run(tight_strategy, tight_budget);
  EXPECT_GT(tight.checkpoint_evicted + tight.checkpoint_tree_evicted, 0);

  avis::testing::expect_reports_equal(normalized(roomy), normalized(tight));
}

}  // namespace
}  // namespace avis::core
