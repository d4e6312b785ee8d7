// Flight control cascade (paper Fig. 2: "Mode-Aware Navigation - Motor &
// Servo Ctrl").
//
// Standard multicopter structure, mirroring ArduPilot's AC_PosControl /
// AC_AttitudeControl split:
//   position error -> velocity target -> acceleration target -> (tilt, thrust)
//   attitude error -> body-rate target -> torque demand -> motor mix
// Each mode produces a Setpoint; the cascade turns it into MotorCommands.
#pragma once

#include <algorithm>
#include <optional>

#include "fw/config.h"
#include "fw/estimator.h"
#include "geo/attitude.h"
#include "geo/vec3.h"
#include "sim/vehicle_state.h"

namespace avis::fw {

// What a mode wants the vehicle to do this step.
struct Setpoint {
  enum class Kind {
    kMotorsOff,        // disarmed / crashed
    kPosition,         // hold/fly-to a NED position
    kVelocity,         // track a NED velocity (manual sticks, landing descent)
    kAttitude,         // direct attitude + climb rate (degraded modes)
    kEmergencyDescend, // uniform reduced throttle, no torque demands: the
                       // only safe option with no usable rate feedback
  };

  Kind kind = Kind::kMotorsOff;
  geo::Vec3 position;        // kPosition
  geo::Vec3 velocity;        // kVelocity
  double climb_rate = 0.0;   // kAttitude: vertical speed (+up)
  geo::Attitude attitude;    // kAttitude
  std::optional<double> yaw; // desired heading; empty = hold current
};

class Pid {
 public:
  Pid(double p, double i, double d, double i_limit = 0.4)
      : p_(p), i_(i), d_(d), i_limit_(i_limit) {}

  double update(double error, double dt) {
    run_.integral = std::clamp(run_.integral + error * dt * i_, -i_limit_, i_limit_);
    const double derivative = dt > 0.0 ? (error - run_.last_error) / dt : 0.0;
    run_.last_error = error;
    return p_ * error + run_.integral + d_ * derivative;
  }

  void reset() { run_ = {}; }

  // Everything a run changes (experiment checkpointing); gains are
  // construction-time constants.
  struct State {
    double integral = 0.0;
    double last_error = 0.0;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

 private:
  double p_, i_, d_, i_limit_;
  State run_;
};

// Converts a Setpoint plus the estimated state into motor commands.
class ControlCascade {
 public:
  explicit ControlCascade(const ControlGains& gains)
      : gains_(gains),
        rate_roll_(gains.rate_p, gains.rate_i, gains.rate_d),
        rate_pitch_(gains.rate_p, gains.rate_i, gains.rate_d),
        rate_yaw_(gains.yaw_rate_p, gains.rate_i * 0.5, 0.0) {}

  sim::MotorCommands update(const Setpoint& sp, const EstimatedState& est, double dt);

  void reset();

  // The cascade's own run state: the velocity loop's derivative memory.
  struct State {
    geo::Vec3 last_vel_error;
  };

  // A checkpoint of the cascade: the three rate PIDs' states and its own,
  // each whole.
  struct Snapshot {
    Pid::State rate_roll;
    Pid::State rate_pitch;
    Pid::State rate_yaw;
    State own;
  };

  Snapshot save() const { return {rate_roll_.save(), rate_pitch_.save(), rate_yaw_.save(), run_}; }

  void load(const Snapshot& s) {
    rate_roll_.load(s.rate_roll);
    rate_pitch_.load(s.rate_pitch);
    rate_yaw_.load(s.rate_yaw);
    run_ = s.own;
  }

  // Hover throttle estimate; exposed for tests.
  static constexpr double kHoverThrottle = 0.497;  // 1.5 kg / (4 * 7.4 N)

 private:
  geo::Vec3 p_accel_from_position(const Setpoint& sp, const EstimatedState& est);
  geo::Vec3 p_accel_from_velocity(const geo::Vec3& vel_target, const EstimatedState& est);
  sim::MotorCommands p_attitude_step(const geo::Attitude& target, double thrust,
                                     const EstimatedState& est, double dt);

  ControlGains gains_;
  Pid rate_roll_;
  Pid rate_pitch_;
  Pid rate_yaw_;
  State run_;
};

}  // namespace avis::fw
