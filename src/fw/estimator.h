// State estimation (paper Fig. 2: "Estimate Position / Attitude / Velocity").
//
// A complementary-filter EKF-lite, structured like ArduPilot's AHRS + inertial
// nav stack: gyros propagate attitude, accelerometers correct tilt and
// propagate velocity, the barometer corrects the vertical channel, GPS
// corrects the horizontal channel (and substitutes for the barometer when it
// dies — coarsely, which is the Fig. 1 hazard), and the compass corrects
// heading. Every sensor family fails over primary -> backups; when a family
// is completely dead the estimator degrades exactly the way the paper's
// sensor bugs exploit.
//
// Seeded bugs do not live here. The firmware's failsafe logic applies
// "quirks" (stale-velocity holds, frozen altitude, biased altitude, ...) via
// the setters below; each quirk models the incorrect data path a real bug
// left in place.
#pragma once

#include <array>

#include "fw/config.h"
#include "fw/sensor_bus.h"
#include "geo/attitude.h"
#include "geo/vec3.h"
#include "sensors/sensor_types.h"
#include "sim/simulator.h"

namespace avis::fw {

struct EstimatedState {
  geo::Vec3 position;    // NED, metres from home
  geo::Vec3 velocity;    // NED, m/s
  geo::Attitude attitude;
  geo::Vec3 body_rates;  // rad/s
  double battery_voltage = 12.6;
  double battery_remaining = 1.0;

  double altitude() const { return -position.z; }
  double climb_rate() const { return -velocity.z; }
};

// Health of one sensor family after fail-over.
struct SourceHealth {
  int total = 0;
  int alive = 0;
  bool primary_alive = true;
  sim::SimTimeMs all_failed_at = -1;      // -1: family still has a live instance
  sim::SimTimeMs primary_failed_at = -1;  // -1: primary still alive

  bool any_alive() const { return alive > 0; }
};

// Bug-injected data-path distortions (see fw/firmware.cc for which bug sets
// which quirk and under what mode window).
struct EstimatorQuirks {
  bool hold_stale_gps_velocity = false;  // keep dead GPS's last velocity as truth
  bool freeze_altitude = false;          // altitude output stops updating
  double altitude_bias = 0.0;            // reported altitude = real estimate + bias
  bool freeze_heading = false;           // yaw stops updating
  bool stale_rates = false;              // body rates held at last pre-failure value
  bool gps_altitude_only = false;        // vertical reference = raw GPS (Fig. 1 hazard)
  bool derived_rates = false;            // PX4 fallback: rates from attitude derivative
  double yaw_rate_bias = 0.0;            // rad/s of phantom yaw rate (APM-5428)
};

class StateEstimator {
 public:
  StateEstimator(const FirmwareConfig& config, SensorBus& bus);

  // One 1 kHz update. `truth`/`env` are passed through to the sensor models
  // only; the estimator itself never looks at ground truth.
  void update(sim::SimTimeMs now, const sim::VehicleState& truth, const sim::Environment& env);

  // The state the rest of the firmware sees: the fused solution with any
  // bug-quirk distortion applied. The internal filter state stays clean so
  // distortions do not feed back into the fusion itself.
  const EstimatedState& state() const { return run_.published; }
  const SourceHealth& health(sensors::SensorType t) const {
    return run_.health[static_cast<std::size_t>(t)];
  }

  EstimatorQuirks& quirks() { return run_.quirks; }

  // APM-16967's final act: the firmware resets its state estimate near the
  // end of the emergency landing, discarding the fused attitude.
  void reset_state_estimate();

  // APM-9349: accelerometer clipping during a hard turn corrupts the fused
  // velocity; models the one-time estimate jump the bug report describes.
  void corrupt_velocity(const geo::Vec3& delta) { run_.state.velocity += delta; }

  // True once the horizontal position solution is degraded to dead
  // reckoning (GPS family dead and no stale-velocity quirk hiding it).
  bool dead_reckoning() const { return run_.dead_reckoning; }

  // Everything a run changes, and so an experiment checkpoint's estimator
  // part: both the clean and the quirk-distorted solutions, fail-over
  // health, and every fallback latch. Config and bus wiring are
  // construction-time and stay with the hosting world.
  struct State {
    EstimatedState state;      // internal filter state (never distorted)
    EstimatedState published;  // filter state after quirk distortion
    EstimatorQuirks quirks;
    std::array<SourceHealth, 6> health{};

    geo::Vec3 last_gps_velocity;
    geo::Vec3 last_gps_local;     // last GPS fix in local NED
    bool have_gps_sample = false;
    geo::Attitude prev_attitude;  // for the derived-rates fallback
    bool frozen_alt_valid = false;
    double frozen_alt_z = 0.0;
    bool dead_reckoning = false;
    bool have_gps_ever = false;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

 private:
  void p_update_health(sim::SimTimeMs now);

  const FirmwareConfig* config_;
  SensorBus* bus_;
  State run_;
};

}  // namespace avis::fw
