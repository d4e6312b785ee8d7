#include "sim/quadcopter.h"

#include <algorithm>
#include <cmath>

namespace avis::sim {

namespace {
double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }
}  // namespace

CrashCause QuadcopterDynamics::step(VehicleState& state, const MotorCommands& commanded,
                                    const Environment& env, double dt,
                                    util::Rng& rng) const {
  if (state.crashed) {
    // A crashed vehicle stays where it fell; motors are assumed destroyed.
    state.velocity = {};
    state.acceleration = {};
    state.body_rates = {};
    return CrashCause::kNone;
  }

  // First-order motor lag toward the commanded values. A cut motor decays
  // toward 0 by (1 - alpha) per step; left alone it would pass through and
  // then park in the subnormal range (alpha * v rounds to zero there), and
  // every step on a subnormal operand pays an x86 microcode assist. So the
  // motor snaps to its target once the gap is below sqrt(DBL_MIN): every
  // product the step then forms from a motor value, up to thrust^1.5 in the
  // battery drain, stays normal, and the gap is far below the forces and
  // rates it is added to, so no trajectory moves (docs/PERFORMANCE.md,
  // "Subnormals").
  constexpr double kSnapGap = 0x1p-511;  // sqrt(DBL_MIN) = sqrt(2^-1022)
  const double alpha = dt / (params_.motor_time_constant_s + dt);
  for (int i = 0; i < 4; ++i) {
    const double target = clamp01(commanded.value[i]);
    double& v = state.motors.value[i];
    v += alpha * (target - v);
    if (std::abs(target - v) < kSnapGap) v = target;
  }

  // Thrust and torques from the quad-X mixer geometry.
  const auto& m = state.motors.value;
  const double f0 = m[0] * params_.max_motor_thrust_n;  // front-right (CCW)
  const double f1 = m[1] * params_.max_motor_thrust_n;  // back-left   (CCW)
  const double f2 = m[2] * params_.max_motor_thrust_n;  // front-left  (CW)
  const double f3 = m[3] * params_.max_motor_thrust_n;  // back-right  (CW)
  const double thrust = f0 + f1 + f2 + f3;

  const double l = params_.arm_length_m * 0.70710678;  // X-frame moment arm
  const double torque_roll = l * ((f1 + f2) - (f0 + f3));   // left-up positive
  const double torque_pitch = l * ((f0 + f2) - (f1 + f3));  // nose-up positive
  const double torque_yaw = params_.yaw_torque_coeff * ((f0 + f1) - (f2 + f3));

  // Rotational dynamics with aerodynamic damping.
  geo::Vec3 angular_accel{
      (torque_roll - params_.angular_drag * state.body_rates.x) / params_.inertia_roll,
      (torque_pitch - params_.angular_drag * state.body_rates.y) / params_.inertia_pitch,
      (torque_yaw - params_.angular_drag * state.body_rates.z) / params_.inertia_yaw,
  };
  state.body_rates += angular_accel * dt;
  state.attitude.integrate_rates(state.body_rates, dt);

  // Translational dynamics. Thrust acts along body -z (up when level).
  const geo::Vec3 thrust_world = state.attitude.body_to_world({0.0, 0.0, -thrust});
  geo::Vec3 wind = env.wind().mean;
  if (env.wind().gust_stddev > 0.0) {
    wind += geo::Vec3{rng.gaussian(env.wind().gust_stddev), rng.gaussian(env.wind().gust_stddev),
                      rng.gaussian(env.wind().gust_stddev)};
  }
  const geo::Vec3 air_velocity = state.velocity - wind;
  const geo::Vec3 drag = air_velocity * (-params_.linear_drag);

  geo::Vec3 force = thrust_world + drag;
  force.z += params_.mass_kg * params_.gravity;  // NED: +z is down

  state.acceleration = force / params_.mass_kg;

  // Ground support: if resting on the ground and net force is downward,
  // the ground provides the normal force.
  const bool touching = state.position.z >= Environment::ground_z() - 1e-9;
  if (touching && state.acceleration.z > 0.0 && state.velocity.z >= -1e-6) {
    state.acceleration = {0.0, 0.0, 0.0};
    state.velocity = {};
    state.position.z = Environment::ground_z();
    state.on_ground = true;
    // Tipping over while on the ground (e.g. actuating asymmetrically after
    // touchdown, as in APM-16021's final phase) is a crash.
    if (state.attitude.tilt() > params_.max_contact_tilt_rad) {
      state.crashed = true;
      return CrashCause::kTippedOver;
    }
    p_drain_battery(state, thrust, dt);
    return CrashCause::kNone;
  }

  // Free-flight integration (semi-implicit Euler).
  state.velocity += state.acceleration * dt;
  state.position += state.velocity * dt;
  state.on_ground = false;

  // Obstacle collision.
  if (env.hits_obstacle(state.position)) {
    state.crashed = true;
    state.velocity = {};
    return CrashCause::kObstacle;
  }

  // Ground contact this step?
  if (state.position.z >= Environment::ground_z()) {
    state.position.z = Environment::ground_z();
    state.on_ground = true;
    const double descent = state.velocity.z;        // +z down: positive = descending
    const double lateral = state.ground_speed();
    const double tilt = state.attitude.tilt();
    state.velocity = {};
    if (descent > params_.max_landing_speed) {
      state.crashed = true;
      return CrashCause::kHardLanding;
    }
    if (tilt > params_.max_contact_tilt_rad) {
      state.crashed = true;
      return CrashCause::kTippedOver;
    }
    if (lateral > params_.max_contact_lateral) {
      state.crashed = true;
      return CrashCause::kLateralImpact;
    }
  }

  p_drain_battery(state, thrust, dt);
  return CrashCause::kNone;
}

void QuadcopterDynamics::p_drain_battery(VehicleState& state, double thrust_n,
                                         double dt) const {
  // Power scales with thrust^1.5 (momentum theory), normalized to hover.
  const double hover_thrust = params_.mass_kg * params_.gravity;
  const double ratio = hover_thrust > 0.0 ? std::max(thrust_n / hover_thrust, 0.0) : 0.0;
  // r^1.5 as r*sqrt(r): pow() is by far the most expensive libm call in the
  // per-millisecond step and this identity keeps it out of the hot loop.
  const double power = params_.hover_power_w * (ratio * std::sqrt(ratio)) + 5.0;
  const double drained = power * dt / params_.battery_capacity_j;
  state.battery_remaining = std::max(0.0, state.battery_remaining - drained);
  state.battery_voltage = params_.empty_voltage + (params_.full_voltage - params_.empty_voltage) *
                                                      state.battery_remaining;
}

}  // namespace avis::sim
