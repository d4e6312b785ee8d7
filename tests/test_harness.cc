#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/harness.h"
#include "core/replay.h"
#include "test_helpers.h"

namespace avis::core {
namespace {

using avis::testing::cached_checker;
using avis::testing::expect_results_identical;
using avis::testing::run_plan;
using avis::testing::transition_time;

TEST(Harness, DeterministicForSameSpec) {
  FaultPlan plan;
  plan.add(5000, {sensors::SensorType::kBarometer, 0});
  const auto a = run_plan(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto, plan,
                          fw::BugRegistry::current_code_base());
  const auto b = run_plan(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto, plan,
                          fw::BugRegistry::current_code_base());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); i += 10) {
    EXPECT_EQ(a.trace[i].position, b.trace[i].position) << "i=" << i;
    EXPECT_EQ(a.trace[i].mode_id, b.trace[i].mode_id);
  }
  EXPECT_EQ(a.duration_ms, b.duration_ms);
}

TEST(Harness, NoFaultPlanEqualsGoldenRun) {
  // A test run with an empty plan and the golden seed is bit-identical to
  // the golden run — the property the checker's Eq. 1 usage relies on.
  auto& checker = cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const MonitorModel& model = checker.model();
  const auto rerun = run_plan(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                              FaultPlan{}, fw::BugRegistry::current_code_base(), &model);
  EXPECT_TRUE(rerun.workload_passed);
  EXPECT_FALSE(rerun.violation.has_value());
  for (std::size_t i = 0; i < rerun.trace.size(); i += 20) {
    EXPECT_EQ(model.state_distance(rerun.trace[i],
                                   model.profiling_state(0, rerun.trace[i].time_ms)),
              0.0);
  }
}

TEST(Harness, RunsArePureFunctionsOfTheirSpec) {
  // Every run provisions its world fresh, so a result depends on its spec
  // alone. The one per-thread state that outlives a run is the attitude
  // trig memo (geo::detail::tls_trig_cache): run each spec alone on a new
  // thread, then all of them interleaved on this one, so a memo entry left
  // by run N-1 that changed run N would show up as a difference.
  SimulationHarness harness;

  FaultPlan baro_plan;
  baro_plan.add(5000, {sensors::SensorType::kBarometer, 0});
  std::vector<ExperimentSpec> specs(3);
  specs[0].plan = baro_plan;
  specs[1].seed = 101;  // golden-style run, different seed
  specs[2].plan = baro_plan;
  specs[2].personality = fw::Personality::kPx4Like;

  // Monitored runs interleave too (violation timing, stop_on_violation
  // truncation).
  auto& checker = cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const MonitorModel& model = checker.model();
  std::vector<const MonitorModel*> models = {nullptr, nullptr, nullptr, &model, &model};
  specs.push_back(specs[0]);  // baro fault, now under the monitor
  specs.back().seed = 100;    // the model's golden seed
  specs.push_back(specs.back());
  specs.back().plan.add(8000, {sensors::SensorType::kGps, 0});

  std::vector<ExperimentResult> alone(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::thread([&, s] { alone[s] = harness.run(specs[s], models[s]); }).join();
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    expect_results_identical(alone[s], harness.run(specs[s], models[s]),
                             "spec " + std::to_string(s));
  }
}

TEST(Harness, InjectedFaultLatchesSensor) {
  // Baro fails at 5 s into the auto mission: the honest failsafe lands.
  FaultPlan plan;
  plan.add(5000, {sensors::SensorType::kBarometer, 0});
  const auto result = run_plan(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                               plan, fw::BugRegistry::current_code_base());
  bool failsafe_land = false;
  for (const auto& t : result.transitions) {
    if (t.mode_name == "land" && t.time_ms < 10000) failsafe_land = true;
  }
  EXPECT_TRUE(failsafe_land);
}

TEST(Harness, StopOnViolationShortensRun) {
  auto& checker =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  FaultPlan plan;
  plan.add(transition_time(model, "auto-wp2"),
           {sensors::SensorType::kCompass, 0});  // APM-16967 window
  SimulationHarness harness;
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.plan = plan;
  spec.seed = 100;
  spec.stop_on_violation = true;
  const auto stopped = harness.run(spec, &model);
  ASSERT_TRUE(stopped.violation.has_value());
  spec.stop_on_violation = false;
  const auto full = harness.run(spec, &model);
  EXPECT_LE(stopped.duration_ms, full.duration_ms);
}

TEST(Harness, StepHookObservesEveryStep) {
  SimulationHarness harness;
  int steps = 0;
  harness.set_step_hook(
      [&](sim::SimTimeMs, const sim::VehicleState&, const fw::Firmware&) { ++steps; });
  ExperimentSpec spec;
  spec.workload = workload::WorkloadId::kAuto;
  spec.max_duration_ms = 2000;
  harness.run(spec, nullptr);
  EXPECT_EQ(steps, 2000);
}

TEST(Harness, ParkedVehicleEndsWithoutSubnormalState) {
  // An experiment as an Avis cell runs it, whose barometer fails during
  // takeoff: the failsafe lands and disarms, and the vehicle sits on the
  // ground for about 50 s until the checker's settle slack runs out. An
  // Avis cell spends 24-38% of its steps parked like this more than 15 s
  // after the motors were cut. The final physics state must hold no
  // subnormal value (docs/PERFORMANCE.md, "Subnormals").
  auto& checker =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.plan.add(5000, {sensors::SensorType::kBarometer, 0});
  spec.max_duration_ms = model.profiling_duration_ms() + Checker::kSettleMs;
  SimulationHarness harness;
  sim::SimTimeMs last_armed_ms = 0;
  harness.set_step_hook(
      [&](sim::SimTimeMs now, const sim::VehicleState&, const fw::Firmware& firmware) {
        if (firmware.armed()) last_armed_ms = now;
      });
  ExperimentContext world;
  harness.run(spec, &model, &world);
  const sim::VehicleState& parked = world.simulator->state();
  ASSERT_TRUE(parked.on_ground);
  ASSERT_FALSE(parked.crashed);
  ASSERT_GE(world.simulator->now_ms() - last_armed_ms, 15000);
  EXPECT_EQ(avis::testing::subnormal_fields(parked), std::vector<std::string>{});
}

TEST(Harness, RunProvisionsOnlyIntoAnEmptyContext) {
  // A context receives one finished world; handing it to a second run is a
  // logic error, not a way to reuse its storage.
  SimulationHarness harness;
  ExperimentSpec spec;
  spec.max_duration_ms = 100;
  ExperimentContext world;
  harness.run(spec, nullptr, &world);
  ASSERT_TRUE(world.simulator.has_value());
  EXPECT_THROW(harness.run(spec, nullptr, &world), util::InvariantError);
}

TEST(Harness, ProfileRejectsFailingWorkload) {
  SimulationHarness harness;
  // A max duration too short to complete the workload -> the profiling
  // precondition ("runs without sensor failures are correct") fails loudly
  // rather than calibrating on garbage.
  ExperimentSpec prototype;
  prototype.personality = fw::Personality::kArduPilotLike;
  prototype.workload = workload::WorkloadId::kAuto;
  prototype.max_duration_ms = 300;
  EXPECT_THROW(harness.profile_run(prototype, 1), util::InvariantError);
}

TEST(Replay, AnchorsFaultsToModeOccurrences) {
  std::vector<ModeTransition> transitions{{0, 0x0000, "preflight"},
                                          {3540, 0x0400, "takeoff"},
                                          {13000, 0x0501, "auto-wp1"}};
  ExperimentSpec spec;
  spec.plan.add(14000, {sensors::SensorType::kGps, 0});
  const ReplayRecord record = make_replay_record(spec, transitions);
  ASSERT_EQ(record.anchored.size(), 1u);
  EXPECT_EQ(record.anchored[0].anchor_mode_id, 0x0501);
  EXPECT_EQ(record.anchored[0].delta_ms, 1000);
  EXPECT_EQ(record.anchored[0].anchor_occurrence, 0);
}

TEST(Replay, ReproducesViolation) {
  auto& checker =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.plan.add(transition_time(model, "auto-wp2") + 200, {sensors::SensorType::kCompass, 0});
  SimulationHarness harness;
  const auto original = harness.run(spec, &model);
  ASSERT_TRUE(original.violation.has_value());

  const ReplayRecord record = make_replay_record(spec, original.transitions);
  const auto replayed = replay(harness, record, model);
  ASSERT_TRUE(replayed.violation.has_value());
  EXPECT_EQ(replayed.violation->type, original.violation->type);
  EXPECT_EQ(replayed.fired_bugs, original.fired_bugs);
}

TEST(Replay, SurvivesSeedPerturbation) {
  // The paper's claim (§IV-D): injecting at the same offsets from mode
  // transitions reproduces the bug even under minor non-determinism. A
  // different noise seed shifts transition times slightly; the anchored
  // replay still lands inside the bug window.
  auto& checker =
      cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission);
  const MonitorModel& model = checker.model();
  ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 100;
  spec.plan.add(transition_time(model, "auto-wp2") + 200, {sensors::SensorType::kCompass, 0});
  SimulationHarness harness;
  const auto original = harness.run(spec, &model);
  ASSERT_TRUE(original.violation.has_value());

  const ReplayRecord record = make_replay_record(spec, original.transitions);
  const auto replayed = replay(harness, record, model, /*seed_override=*/104729);
  ASSERT_TRUE(replayed.violation.has_value()) << "anchored replay must survive reseeding";
  EXPECT_FALSE(replayed.fired_bugs.empty());
}

}  // namespace
}  // namespace avis::core
