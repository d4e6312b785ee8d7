#include "fw/controllers.h"

#include <cassert>
#include <cmath>

namespace avis::fw {

namespace {
constexpr double kGravity = 9.80665;
constexpr double kMaxMotorThrustN = 7.4;  // matches sim::QuadcopterParams
constexpr double kMassKg = 1.5;
}  // namespace

void ControlCascade::reset() {
  rate_roll_.reset();
  rate_pitch_.reset();
  rate_yaw_.reset();
  run_ = {};
}

geo::Vec3 ControlCascade::p_accel_from_position(const Setpoint& sp, const EstimatedState& est) {
  const geo::Vec3 error = sp.position - est.position;
  // Square-root velocity profile (ArduPilot's sqrt_controller): the speed
  // demand respects the braking distance v^2 = 2*a*d, so the vehicle
  // decelerates into waypoints instead of overshooting them.
  const double h_dist = std::sqrt(error.x * error.x + error.y * error.y);
  double h_speed_target = 0.0;
  if (h_dist > 1e-6) {
    h_speed_target = std::min({gains_.max_speed_xy,
                               std::sqrt(2.0 * 0.40 * gains_.max_accel_xy * h_dist),
                               gains_.pos_p * h_dist * 2.5});
  }
  geo::Vec3 vel_target{};
  if (h_dist > 1e-6) {
    vel_target.x = error.x / h_dist * h_speed_target;
    vel_target.y = error.y / h_dist * h_speed_target;
  }
  vel_target.z = std::clamp(error.z * gains_.pos_p, -gains_.max_climb, gains_.max_descent);
  return p_accel_from_velocity(vel_target, est);
}

geo::Vec3 ControlCascade::p_accel_from_velocity(const geo::Vec3& vel_target,
                                                const EstimatedState& est) {
  const geo::Vec3 vel_error = vel_target - est.velocity;
  geo::Vec3 accel = vel_error * gains_.vel_p + (vel_error - run_.last_vel_error) * gains_.vel_d;
  run_.last_vel_error = vel_error;
  const double h_acc = std::sqrt(accel.x * accel.x + accel.y * accel.y);
  if (h_acc > gains_.max_accel_xy) {
    const double scale = gains_.max_accel_xy / h_acc;
    accel.x *= scale;
    accel.y *= scale;
  }
  accel.z = std::clamp(accel.z, -6.0, 4.0);
  return accel;
}

sim::MotorCommands ControlCascade::p_attitude_step(const geo::Attitude& target, double thrust,
                                                   const EstimatedState& est, double dt) {
  // Angle -> rate.
  geo::Vec3 rate_target{
      gains_.att_p * geo::wrap_angle(target.roll - est.attitude.roll),
      gains_.att_p * geo::wrap_angle(target.pitch - est.attitude.pitch),
      gains_.yaw_p * geo::wrap_angle(target.yaw - est.attitude.yaw),
  };
  rate_target = rate_target.clamped(gains_.max_rate);

  // Rate -> torque demand (normalized to motor-differential units).
  const double roll_out = rate_roll_.update(rate_target.x - est.body_rates.x, dt);
  const double pitch_out = rate_pitch_.update(rate_target.y - est.body_rates.y, dt);
  const double yaw_out = rate_yaw_.update(rate_target.z - est.body_rates.z, dt);

  // Mixer (quad X): motor order FR, BL, FL, BR (see sim/vehicle_state.h).
  // Roll torque:  left motors up  -> m1,m2 increase.
  // Pitch torque: front motors up -> m0,m2 increase.
  // Yaw torque:   CCW pair (m0,m1) vs CW pair (m2,m3).
  sim::MotorCommands out;
  out.value[0] = thrust - roll_out + pitch_out + yaw_out;
  out.value[1] = thrust + roll_out - pitch_out + yaw_out;
  out.value[2] = thrust + roll_out + pitch_out - yaw_out;
  out.value[3] = thrust - roll_out - pitch_out - yaw_out;
  for (double& v : out.value) v = std::clamp(v, 0.0, 1.0);
  // Debug tripwire at the cascade output: std::clamp propagates NaN, and a
  // NaN motor command silently corrupts the physics from this step onward.
  assert(std::isfinite(out.value[0]) && std::isfinite(out.value[1]) &&
         std::isfinite(out.value[2]) && std::isfinite(out.value[3]));
  return out;
}

sim::MotorCommands ControlCascade::update(const Setpoint& sp, const EstimatedState& est,
                                          double dt) {
  if (sp.kind == Setpoint::Kind::kMotorsOff) {
    reset();
    return {};
  }
  if (sp.kind == Setpoint::Kind::kEmergencyDescend) {
    // ~97% of hover thrust: terminal descent ~1.8 m/s (inside the landing
    // classifier's limit) while aerodynamic damping keeps the frame level.
    sim::MotorCommands out;
    for (double& v : out.value) v = kHoverThrottle * 0.97;
    return out;
  }

  geo::Vec3 accel_target{};
  double yaw_target = sp.yaw.value_or(est.attitude.yaw);

  switch (sp.kind) {
    case Setpoint::Kind::kPosition:
      accel_target = p_accel_from_position(sp, est);
      break;
    case Setpoint::Kind::kVelocity: {
      geo::Vec3 vel = sp.velocity;
      const double h = std::sqrt(vel.x * vel.x + vel.y * vel.y);
      if (h > gains_.max_speed_xy) {
        vel.x *= gains_.max_speed_xy / h;
        vel.y *= gains_.max_speed_xy / h;
      }
      accel_target = p_accel_from_velocity(vel, est);
      break;
    }
    case Setpoint::Kind::kAttitude: {
      // Direct attitude with climb-rate control; used by degraded modes.
      const double climb_err = sp.climb_rate - est.climb_rate();
      const double accel_up = gains_.climb_p * climb_err;
      const double thrust_n = kMassKg * (kGravity + accel_up);
      const double throttle =
          std::clamp(thrust_n / (4.0 * kMaxMotorThrustN), 0.0, 1.0);
      geo::Attitude att = sp.attitude;
      att.yaw = yaw_target;
      return p_attitude_step(att, throttle, est, dt);
    }
    case Setpoint::Kind::kMotorsOff:
    case Setpoint::Kind::kEmergencyDescend:
      return {};
  }

  // acceleration target -> attitude + thrust.
  // NED: accel up = -accel_target.z. Required specific thrust along body -z:
  const double accel_up = -accel_target.z + kGravity;
  // Desired tilt produces horizontal acceleration: ax = g*tan(pitch') etc.
  // Rotate the horizontal acceleration demand into the body-yaw frame.
  const double cy = std::cos(est.attitude.yaw);
  const double sy = std::sin(est.attitude.yaw);
  const double ax_body = accel_target.x * cy + accel_target.y * sy;
  const double ay_body = -accel_target.x * sy + accel_target.y * cy;

  // Sign: positive pitch (nose up) tilts thrust backward, so accelerating
  // along +x needs negative pitch; positive roll tilts thrust toward +y.
  geo::Attitude att_target;
  att_target.pitch =
      std::clamp(-std::atan2(ax_body, kGravity), -gains_.max_tilt_rad, gains_.max_tilt_rad);
  att_target.roll =
      std::clamp(std::atan2(ay_body, kGravity), -gains_.max_tilt_rad, gains_.max_tilt_rad);
  att_target.yaw = yaw_target;

  const double tilt_comp = std::clamp(
      1.0 / std::max(0.5, std::cos(est.attitude.tilt())), 1.0, 1.5);
  const double thrust_n = kMassKg * std::max(0.0, accel_up) * tilt_comp;
  const double throttle = std::clamp(thrust_n / (4.0 * kMaxMotorThrustN), 0.0, 1.0);

  return p_attitude_step(att_target, throttle, est, dt);
}

}  // namespace avis::fw
