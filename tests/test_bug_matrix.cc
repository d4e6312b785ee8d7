// The seeded-bug window matrix: for every Table II / Table V bug, an
// injection inside its window fires the bug and produces an invariant
// violation, while a representative injection outside the window is handled
// safely. This is the repository's core fidelity property: bug
// manifestation depends on the failure's type AND timing (paper §I).
#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/sabre.h"
#include "test_helpers.h"

namespace avis {
namespace {

using core::FaultPlan;
using testing::cached_checker;
using testing::transition_time;

struct BugCase {
  fw::BugId bug;
  workload::WorkloadId workload;
  // Where to inject, relative to a named golden transition.
  const char* anchor_mode;
  sim::SimTimeMs offset_ms;
  std::vector<sensors::SensorId> sensors;
  // A time far outside the window where the same failure is handled safely
  // (relative to another anchor). Empty anchor = skip the safe check.
  const char* safe_anchor_mode;
  sim::SimTimeMs safe_offset_ms;
};

class BugMatrix : public ::testing::TestWithParam<BugCase> {};

TEST_P(BugMatrix, FiresInWindowAndOnlyInWindow) {
  const BugCase& c = GetParam();
  const fw::BugInfo& info = fw::bug_info(c.bug);

  fw::BugRegistry bugs = fw::BugRegistry::current_code_base();
  bugs.enable(c.bug);  // no-op for Table II bugs, re-insertion for Table V

  auto& checker = cached_checker(info.personality, c.workload);
  const core::MonitorModel& model = checker.model();

  // In-window injection: the bug fires and the monitor reports a violation.
  FaultPlan in_window;
  const sim::SimTimeMs anchor = transition_time(model, c.anchor_mode);
  for (const auto& id : c.sensors) in_window.add(anchor + c.offset_ms, id);
  const auto unsafe = testing::run_plan(info.personality, c.workload, in_window, bugs, &model);
  EXPECT_TRUE(std::find(unsafe.fired_bugs.begin(), unsafe.fired_bugs.end(), c.bug) !=
              unsafe.fired_bugs.end())
      << info.report_name << " did not fire for " << in_window.to_string();
  EXPECT_TRUE(unsafe.violation.has_value())
      << info.report_name << " fired without an invariant violation";

  // Out-of-window injection of the same sensors: handled safely.
  if (c.safe_anchor_mode != nullptr) {
    FaultPlan outside;
    const sim::SimTimeMs safe_anchor = transition_time(model, c.safe_anchor_mode);
    for (const auto& id : c.sensors) outside.add(safe_anchor + c.safe_offset_ms, id);
    const auto safe = testing::run_plan(info.personality, c.workload, outside, bugs, &model);
    EXPECT_FALSE(std::find(safe.fired_bugs.begin(), safe.fired_bugs.end(), c.bug) !=
                 safe.fired_bugs.end())
        << info.report_name << " fired outside its window for " << outside.to_string();
    EXPECT_FALSE(safe.violation.has_value())
        << info.report_name << ": out-of-window injection " << outside.to_string()
        << " was not handled safely (" << (safe.violation ? safe.violation->details : "")
        << ")";
  }
}

const sensors::SensorId kGyroP{sensors::SensorType::kGyroscope, 0};
const sensors::SensorId kAccelP{sensors::SensorType::kAccelerometer, 0};
const sensors::SensorId kBaro{sensors::SensorType::kBarometer, 0};
const sensors::SensorId kGps{sensors::SensorType::kGps, 0};
const sensors::SensorId kCompassP{sensors::SensorType::kCompass, 0};
const sensors::SensorId kBattery{sensors::SensorType::kBattery, 0};

INSTANTIATE_TEST_SUITE_P(
    TableII, BugMatrix,
    ::testing::Values(
        // APM-16020: GPS right after Takeoff -> Auto; safe in mid-leg cruise.
        BugCase{fw::BugId::kApm16020, workload::WorkloadId::kFenceMission, "auto-wp1", 100,
                {kGps}, "auto-wp2", 2600},
        // APM-16021: accel late in the climb; safe early in the climb.
        BugCase{fw::BugId::kApm16021, workload::WorkloadId::kFenceMission, "auto-wp1", -600,
                {kAccelP}, "takeoff", 500},
        // APM-16027: baro at takeoff start; safe mid-mission (failsafe land).
        BugCase{fw::BugId::kApm16027, workload::WorkloadId::kFenceMission, "takeoff", 100,
                {kBaro}, "auto-wp2", 500},
        // APM-16967: primary compass at a waypoint turn; safe mid-leg.
        BugCase{fw::BugId::kApm16967, workload::WorkloadId::kFenceMission, "auto-wp2", 200,
                {kCompassP}, "auto-wp1", 2600},
        // APM-16682: accel in the final landing metres; safe at land start.
        BugCase{fw::BugId::kApm16682, workload::WorkloadId::kFenceMission, "land", 17000,
                {kAccelP}, nullptr, 0},
        // APM-16953: gyro primary entering land; safe during cruise.
        BugCase{fw::BugId::kApm16953, workload::WorkloadId::kFenceMission, "land", 300,
                {kGyroP}, "auto-wp1", 1500},
        // PX4-17046: gyro primary at the wp3 -> RTL boundary; safe in leg 1.
        BugCase{fw::BugId::kPx417046, workload::WorkloadId::kFenceMission, "rtl", -200,
                {kGyroP}, "auto-wp1", 1500},
        // PX4-17057: gyro primary at takeoff; safe during cruise.
        BugCase{fw::BugId::kPx417057, workload::WorkloadId::kFenceMission, "takeoff", 100,
                {kGyroP}, "auto-wp1", 1500},
        // PX4-17192: compass primary at takeoff; safe during cruise.
        BugCase{fw::BugId::kPx417192, workload::WorkloadId::kFenceMission, "takeoff", 100,
                {kCompassP}, "auto-wp1", 2600},
        // PX4-17181: baro at takeoff; safe mid-mission.
        BugCase{fw::BugId::kPx417181, workload::WorkloadId::kFenceMission, "takeoff", 100,
                {kBaro}, "auto-wp2", 500}),
    [](const ::testing::TestParamInfo<BugCase>& info) {
      std::string name = fw::bug_info(info.param.bug).report_name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    TableV, BugMatrix,
    ::testing::Values(
        // APM-4455: baro as the climb completes (above 60% of target).
        BugCase{fw::BugId::kApm4455, workload::WorkloadId::kFenceMission, "takeoff", 5800,
                {kBaro}, nullptr, 0},
        // APM-4679: GPS during the landing descent.
        BugCase{fw::BugId::kApm4679, workload::WorkloadId::kFenceMission, "land", 3000,
                {kGps}, "auto-wp1", 2600},
        // APM-5428: compass primary during takeoff yaw-align.
        BugCase{fw::BugId::kApm5428, workload::WorkloadId::kFenceMission, "takeoff", 400,
                {kCompassP}, nullptr, 0},
        // APM-9349: accel primary during a waypoint turn.
        BugCase{fw::BugId::kApm9349, workload::WorkloadId::kFenceMission, "auto-wp2", 300,
                {kAccelP}, nullptr, 0},
        // PX4-13291: GPS and battery together while airborne.
        BugCase{fw::BugId::kPx413291, workload::WorkloadId::kFenceMission, "auto-wp1", 500,
                {kGps, kBattery}, nullptr, 0}),
    [](const ::testing::TestParamInfo<BugCase>& info) {
      std::string name = fw::bug_info(info.param.bug).report_name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The patched firmware finds nothing: with every seeded bug disabled, a
// sweep of single-sensor injections at every transition is handled safely —
// Avis's "no false positives" property (paper §VI-A).
TEST(PatchedFirmware, SingletonSweepIsSafe) {
  for (fw::Personality personality :
       {fw::Personality::kArduPilotLike, fw::Personality::kPx4Like}) {
    core::Checker checker(personality, workload::WorkloadId::kFenceMission,
                          fw::BugRegistry::patched());
    const core::MonitorModel& model = checker.model();
    core::SabreConfig config;
    config.max_set_size = 1;    // single-sensor sweep: multi-IMU loss is
    config.max_plan_events = 1; // physically unsurvivable (docs/CONFORMANCE.md)
    core::SabreScheduler sabre(core::SimulationHarness::iris_suite(),
                               model.golden_transitions(), config);
    core::BudgetClock budget(40 * 60 * 1000);
    const auto report = checker.run(sabre, budget);
    EXPECT_EQ(report.unsafe_count(), 0)
        << fw::to_string(personality) << ": " << report.unsafe[0].plan.to_string() << " -> "
        << report.unsafe[0].violation.details;
    EXPECT_GT(report.experiments, 10);
  }
}

}  // namespace
}  // namespace avis
