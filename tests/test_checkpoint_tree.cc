// Checkpoint trees: snapshots of *faulty* runs keyed by activated-injection
// signature, so a plan extending a previously-run chain restores the shared
// faulty prefix instead of re-simulating it. The contract under test is the
// same as the fault-free root's (tests/test_checkpoint.cc): a tree-restored
// run is bit-identical — every trace sample, transition, violation and
// duration — to the same spec simulated cold, across personalities x
// workloads and through the checker's capturing entry point with a mix of
// cold, root-restored and tree-restored runs. Eviction ordering rides
// along: byte-budget pressure evicts recordings whole, oldest first, and the
// fault-free root only once no tree recording is left.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checker.h"
#include "core/checkpoint.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "test_helpers.h"

namespace avis::core {
namespace {

using sensors::SensorId;
using sensors::SensorType;
using avis::testing::expect_results_identical;

FaultPlan chain(std::initializer_list<std::pair<sim::SimTimeMs, SensorId>> events) {
  FaultPlan plan;
  for (const auto& [t, id] : events) plan.add(t, id);
  return plan;
}

// The headline contract: a chain that extends a recorded parent restores a
// *faulty-prefix* snapshot (resume point strictly past its first injection,
// depth >= 1) and is bit-identical to the cold run — swept over both
// personalities x two workloads, parent -> child -> grandchild, all on one
// thread so per-thread state leaking from an earlier combination would
// surface.
TEST(CheckpointTree, TreeRestoredChainsAreBitIdenticalAcrossTheRegistrySurface) {
  SimulationHarness harness;
  CheckpointConfig config;  // trees on by default, 1000 ms cadence

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};
  const SensorId baro{SensorType::kBarometer, 0};

  int deep_restores = 0;
  for (const char* personality : {"ardupilot", "px4"}) {
    for (const char* workload : {"auto", "fence-mission"}) {
      const std::string label = std::string(personality) + "/" + workload;
      SCOPED_TRACE(label);
      ScenarioSpec scenario;
      scenario.personality = personality;
      scenario.workload = workload;
      ExperimentSpec spec = scenario_prototype(scenario);

      CheckpointStore store = harness.record_prefix(spec, nullptr, config);
      ASSERT_GT(store.root_size(), 0u);

      // Grow the tree: parent {compass@12s}, then child {.., gps@18s} (the
      // child's own recording files depth-2 snapshots past 18 s).
      spec.plan = chain({{12000, compass}});
      harness.run_recording(spec, nullptr, store);
      ASSERT_GT(store.size(), store.root_size()) << "parent recording merged nothing";
      spec.plan = chain({{12000, compass}, {18000, gps}});
      harness.run_recording(spec, nullptr, store);

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
        const ExperimentResult fresh = harness.run(spec, nullptr);
        const ExperimentResult restored = harness.run(spec, nullptr, nullptr, &store);
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
  CheckpointConfig config;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  CheckpointStore store = harness.record_prefix(prototype, nullptr, config);
  ExperimentSpec parent = prototype;
  parent.plan = chain({{12000, compass}});
  harness.run_recording(parent, nullptr, store);
  ASSERT_GT(store.size(), store.root_size());
  const std::size_t size = store.size();

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
    const ExperimentResult cold = harness.run(spec, nullptr);
    std::vector<ExperimentSnapshot> captures;
    const ExperimentResult restored =
        harness.run(spec, nullptr, nullptr, &store, kCaptureLimit, &captures);
    expect_results_identical(cold, restored, c.name);
    EXPECT_EQ(!captures.empty(), c.captures) << c.name;
    EXPECT_EQ(store.size(), size) << c.name;
  }
}

// Eviction ordering: when the store exceeds the byte budget, tree
// recordings are evicted whole and the fault-free root outlives every one
// of them — and an evicted-down store still restores bit-identically, just
// shallower.
TEST(CheckpointTree, BudgetPressureEvictsTreeRecordingsBeforeTheRoot) {
  SimulationHarness harness;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  // Measure the root's footprint with a roomy budget first.
  CheckpointConfig roomy;
  const CheckpointStore full = harness.record_prefix(prototype, nullptr, roomy);
  ASSERT_GT(full.root_size(), 0u);

  // Room for the root plus a sliver: every merged tree recording pushes
  // past the budget and must be evicted; the root must survive intact.
  CheckpointConfig tight;
  tight.byte_budget = full.bytes() + 4096;
  CheckpointStore store = harness.record_prefix(prototype, nullptr, tight);
  ASSERT_EQ(store.evicted(), 0);
  const std::size_t root_snapshots = store.root_size();

  ExperimentSpec parent = prototype;
  for (const SensorId id : {compass, gps}) {
    parent.plan = chain({{12000, id}});
    harness.run_recording(parent, nullptr, store);
    EXPECT_EQ(store.recordings(), 1u);
    EXPECT_EQ(store.bytes(), full.bytes());
    EXPECT_EQ(store.root_size(), root_snapshots);
    EXPECT_EQ(store.size(), root_snapshots);
  }
  EXPECT_GT(store.evicted(), 0);

  // Restores from the evicted-down store fall back to the root and stay
  // bit-identical.
  ExperimentSpec child = prototype;
  child.plan = chain({{12000, compass}, {18000, gps}});
  const ExperimentResult fresh = harness.run(child, nullptr);
  const ExperimentResult restored = harness.run(child, nullptr, nullptr, &store);
  EXPECT_EQ(restored.resumed_depth, 0);
  EXPECT_GT(restored.resumed_from_ms, 0);
  expect_results_identical(fresh, restored, "post-eviction child");
}

// FIFO whole-recording eviction under steady pressure: older recordings go
// first, the newest survives, and every eviction is counted.
TEST(CheckpointTree, EvictionIsOldestRecordingFirst) {
  SimulationHarness harness;

  const SensorId compass{SensorType::kCompass, 0};
  const SensorId gps{SensorType::kGps, 0};
  const SensorId baro{SensorType::kBarometer, 0};

  ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "auto";
  ExperimentSpec prototype = scenario_prototype(scenario);

  CheckpointConfig roomy;
  const CheckpointStore sized = harness.record_prefix(prototype, nullptr, roomy);

  ExperimentSpec parent = prototype;
  parent.plan = chain({{12000, compass}});

  // Budget with room for the root and roughly one recording: merging a
  // second recording evicts the first (FIFO), not the newcomer or the root.
  CheckpointStore probe = harness.record_prefix(prototype, nullptr, roomy);
  harness.run_recording(parent, nullptr, probe);
  const std::size_t recording_bytes = probe.bytes() - sized.bytes();
  ASSERT_GT(recording_bytes, 0u);

  CheckpointConfig capped;
  capped.byte_budget = sized.bytes() + recording_bytes + recording_bytes / 2;
  CheckpointStore store = harness.record_prefix(prototype, nullptr, capped);
  harness.run_recording(parent, nullptr, store);
  ASSERT_EQ(store.evicted(), 0);
  ASSERT_EQ(store.recordings(), 2u);

  ExperimentSpec second = prototype;
  second.plan = chain({{14000, gps}});
  harness.run_recording(second, nullptr, store);
  EXPECT_GT(store.evicted(), 0);
  EXPECT_EQ(store.recordings(), 2u);
  EXPECT_EQ(store.root_size(), sized.root_size());

  // The survivor is the newest recording: its {gps@14s} snapshots resolve,
  // the evicted {compass@12s} parent's no longer do.
  ExperimentSpec gps_child = prototype;
  gps_child.plan = chain({{14000, gps}, {19000, baro}});
  EXPECT_EQ(store.resolve(gps_child.plan).depth, 1);
  ExperimentSpec compass_child = prototype;
  compass_child.plan = chain({{12000, compass}, {19000, baro}});
  EXPECT_EQ(store.resolve(compass_child.plan).depth, 0);
}

}  // namespace
}  // namespace avis::core
