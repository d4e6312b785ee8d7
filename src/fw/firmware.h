// The control firmware (paper Fig. 2).
//
// One Firmware instance models a complete autopilot: it reads sensors
// through instrumented drivers, runs the state estimator, processes
// ground-station MAVLink traffic (commands, mission upload, RC sticks),
// executes the current operating mode, monitors failsafes, and produces
// motor commands. Two personalities — ArduPilot-like and PX4-like — share
// this implementation but differ in mode naming, failsafe policy for
// degraded sensors, and which seeded bugs apply (see fw/bugs.h).
//
// Everything the model checker observes crosses a protocol boundary:
// mode transitions and sensor reads via libhinj, pilot traffic via the
// MAVLink channel. The firmware never sees the fault plan.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "fw/bugs.h"
#include "fw/config.h"
#include "fw/controllers.h"
#include "fw/estimator.h"
#include "fw/mission.h"
#include "fw/modes.h"
#include "fw/sensor_bus.h"
#include "hinj/hinj.h"
#include "mavlink/channel.h"
#include "sim/simulator.h"

namespace avis::fw {

class Firmware {
 public:
  Firmware(FirmwareConfig config, SensorBus& bus, hinj::Client& hinj_client,
           mavlink::Endpoint& link, const sim::Environment& env);

  // One 1 kHz firmware iteration (Fig. 7 steps 3-5): sample sensors, fuse,
  // handle pilot traffic, run the mode + failsafe logic, mix motors.
  sim::MotorCommands step(sim::SimTimeMs now, const sim::VehicleState& truth);

  // --- Observability (telemetry-equivalent; used by tests and benches) ---
  Mode mode() const { return mode_; }
  CompositeMode composite_mode() const { return {mode_, submode_}; }
  bool armed() const { return armed_; }
  const EstimatedState& estimate() const { return estimator_.state(); }
  const FirmwareConfig& config() const { return config_; }
  const MissionManager& mission() const { return mission_; }
  bool mission_complete() const { return mission_complete_; }

  // Diagnostics: seeded bugs that actually fired this run, in firing order.
  // Benches use this to attribute unsafe conditions to root causes; the
  // search strategies never read it.
  const std::vector<BugId>& fired_bugs() const { return fired_bugs_; }

  // Seeded-bug runtime (public so the checkpoint Snapshot below can carry
  // it; the members themselves stay private).
  struct BugState {
    bool fired = false;
    sim::SimTimeMs fired_at = -1;
    int phase = 0;
  };

  // Complete mid-run autopilot state for experiment checkpointing: the
  // estimator and cascade capsules, the mission store (a value type,
  // captured whole), and every mode/failsafe/bug latch. The config and the
  // bus/hinj/link/env wiring are construction-time properties of the spec
  // and the hosting world — a restored firmware keeps its own wiring. Kept
  // in lockstep with the member list below: a new stateful member must join
  // this capsule or restored runs diverge from fresh ones (the parity suite
  // in tests/test_checkpoint.cc is the tripwire).
  struct Snapshot {
    StateEstimator::Snapshot estimator;
    ControlCascade::Snapshot cascade;
    MissionManager mission;
    Mode mode = Mode::kPreFlight;
    std::uint8_t submode = 0;
    Mode prev_mode = Mode::kPreFlight;
    sim::SimTimeMs mode_entry_ms = 0;
    bool armed = false;
    bool mission_active = false;
    bool mission_complete = false;
    double takeoff_target_alt = 0.0;
    geo::Vec3 takeoff_xy;
    geo::Vec3 guided_target;
    geo::Vec3 hold_position;
    bool holding = false;
    double hold_yaw = 0.0;
    sim::SimTimeMs last_stick_change_ms = 0;
    geo::Vec3 land_xy;
    bool land_xy_valid = false;
    sim::SimTimeMs land_low_since = -1;
    double land_commanded_descent = 0.0;
    int rtl_phase = 0;
    double rtl_target_alt = 0.0;
    mavlink::RcOverride sticks;
    int wp_ordinal = 0;
    std::array<bool, 6> family_handled{};
    sim::SimTimeMs battery_dead_since = -1;
    bool position_valid = true;
    std::array<BugState, 15> bug_state{};
    std::vector<BugId> fired_bugs;
    sim::SimTimeMs land_descent_ramp_start = 0;
    sim::SimTimeMs last_telemetry_ms = -1000;
    sim::SimTimeMs last_heartbeat_ms = -1000;
    std::size_t last_reported_mission_index = static_cast<std::size_t>(-1);
  };

  Snapshot save() const;
  void load(const Snapshot& s);

 private:
  // MAVLink handling.
  void p_handle_mavlink(sim::SimTimeMs now);
  void p_handle_command(const mavlink::CommandLong& cmd, sim::SimTimeMs now);
  void p_send_telemetry(sim::SimTimeMs now, const sim::VehicleState& truth);
  void p_status(const std::string& text, std::uint8_t severity = 6);

  // Mode machine.
  void p_set_mode(Mode m, std::uint8_t submode, sim::SimTimeMs now, const char* reason);
  void p_begin_mission_item(sim::SimTimeMs now);
  void p_advance_mission(sim::SimTimeMs now);
  Setpoint p_mode_setpoint(sim::SimTimeMs now);
  void p_detect_touchdown(sim::SimTimeMs now);

  // Failsafes and seeded bugs.
  void p_failsafes(sim::SimTimeMs now);
  void p_bug_hooks(sim::SimTimeMs now);
  bool p_family_dead(sensors::SensorType t) const;
  sim::SimTimeMs p_family_death_time(sensors::SensorType t) const;
  bool p_primary_dead(sensors::SensorType t) const;
  sim::SimTimeMs p_primary_death_time(sensors::SensorType t) const;
  void p_fire(BugId id, sim::SimTimeMs now, const char* note);
  bool p_fired(BugId id) const { return bug_state_[static_cast<std::size_t>(id)].fired; }
  bool p_bug_armed(BugId id) const;  // enabled, personality matches, not fired

  // Pre-arm checks: refuse to arm with a dead sensor family (safe refusal).
  bool p_prearm_ok() const;

  FirmwareConfig config_;
  SensorBus* bus_;
  hinj::Client* hinj_;
  mavlink::Endpoint* link_;
  const sim::Environment* env_;

  StateEstimator estimator_;
  ControlCascade cascade_;
  MissionManager mission_;

  // Mode state.
  Mode mode_ = Mode::kPreFlight;
  std::uint8_t submode_ = 0;
  Mode prev_mode_ = Mode::kPreFlight;
  sim::SimTimeMs mode_entry_ms_ = 0;
  bool armed_ = false;
  bool mission_active_ = false;
  bool mission_complete_ = false;

  // Mode-specific runtime state.
  double takeoff_target_alt_ = 0.0;
  geo::Vec3 takeoff_xy_;
  geo::Vec3 guided_target_;
  geo::Vec3 hold_position_;
  bool holding_ = false;
  double hold_yaw_ = 0.0;
  sim::SimTimeMs last_stick_change_ms_ = -100000;  // last hold/fly toggle in poshold
  geo::Vec3 land_xy_;
  bool land_xy_valid_ = false;
  sim::SimTimeMs land_low_since_ = -1;
  double land_commanded_descent_ = 0.0;
  enum class RtlPhase { kClimb, kReturn, kDescend } rtl_phase_ = RtlPhase::kClimb;
  double rtl_target_alt_ = 0.0;
  mavlink::RcOverride sticks_;
  int wp_ordinal_ = 0;  // how many NAV_WAYPOINTs the mission has passed

  // Failsafe bookkeeping.
  std::array<bool, 6> family_handled_{};  // a bug or failsafe owns this family
  sim::SimTimeMs battery_dead_since_ = -1;
  bool position_valid_ = true;

  // Seeded-bug runtime.
  std::array<bool, 15> bug_armed_mask_{};  // enabled && personality match, fixed at boot
  std::array<BugState, 15> bug_state_{};
  std::vector<BugId> fired_bugs_;

  // APM-4679 land-flap timer; APM-16021 phase timer share BugState.phase.
  sim::SimTimeMs land_descent_ramp_start_ = 0;

  // Telemetry pacing.
  sim::SimTimeMs last_telemetry_ms_ = -1000;
  sim::SimTimeMs last_heartbeat_ms_ = -1000;
  std::size_t last_reported_mission_index_ = static_cast<std::size_t>(-1);
};

}  // namespace avis::fw
