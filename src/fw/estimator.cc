#include "fw/estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace avis::fw {

namespace {

constexpr double kDt = sim::kStepSeconds;
constexpr double kGravity = 9.80665;

// Chosen for convergence well inside a takeoff's duration while rejecting
// sensor noise. Tilt correction must be gentle and gated: while the vehicle
// accelerates, the specific force is not gravity, and a strong correction
// "leans" the attitude estimate, which corrupts the velocity estimate in a
// positive feedback loop (the classic complementary-filter lean bias).
constexpr double kTiltGain = 0.4;
constexpr double kTiltGateMs2 = 1.0;  // only correct when |f| is within 1 m/s^2 of g
constexpr double kYawGain = 2.5;
constexpr double kBaroPosGain = 3.0;
constexpr double kBaroVelGain = 1.6;
constexpr double kGpsPosGain = 1.3;
constexpr double kGpsVelGain = 3.0;
constexpr double kGpsVelZGain = 0.8;
constexpr double kGpsAltGain = 1.1;  // weaker: GPS altitude is coarse

}  // namespace

StateEstimator::StateEstimator(const FirmwareConfig& config, SensorBus& bus)
    : config_(&config), bus_(&bus) {
  const auto& sc = bus.config();
  health_[static_cast<std::size_t>(sensors::SensorType::kGyroscope)].total = sc.gyroscopes;
  health_[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)].total =
      sc.accelerometers;
  health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)].total = sc.barometers;
  health_[static_cast<std::size_t>(sensors::SensorType::kGps)].total = sc.gpses;
  health_[static_cast<std::size_t>(sensors::SensorType::kCompass)].total = sc.compasses;
  health_[static_cast<std::size_t>(sensors::SensorType::kBattery)].total = sc.batteries;
  for (auto& h : health_) h.alive = h.total;
}

void StateEstimator::update(sim::SimTimeMs now, const sim::VehicleState& truth,
                            const sim::Environment& env) {
  // ---- Gyroscopes: primary with fail-over; propagate attitude. ----
  {
    sensors::GyroSample gyro;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kGyroscope)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::GyroSample s;
      if (bus_->read_gyro(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          gyro = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (quirks_.stale_rates) {
      // Bug data path: the rate consumer keeps reading the dead primary's
      // last output; the live backup (if any) is never switched in. The
      // attitude solution silently runs away.
    } else if (got) {
      state_.body_rates = gyro.body_rates;
    } else {
      // Honest degradation: without gyros the firmware cannot know its
      // rates; report zero rather than integrate garbage.
      state_.body_rates = {};
    }
    state_.body_rates.z += quirks_.yaw_rate_bias;
    state_.attitude.integrate_rates(state_.body_rates, kDt);
  }

  // ---- Accelerometers: tilt correction + velocity propagation. ----
  geo::Vec3 world_accel{};  // gravity-compensated world acceleration
  bool have_accel = false;
  {
    sensors::AccelSample accel;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::AccelSample s;
      if (bus_->read_accel(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!have_accel) {
          accel = s;
          have_accel = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (have_accel) {
      const geo::Vec3& f = accel.specific_force;
      // Tilt correction when the specific force is close to 1 g (not
      // accelerating hard): gravity tells us which way is down.
      const double f_mag = f.norm();
      // With gyros dead (derived-rates fallback) the accelerometer is the
      // only attitude reference left: correct hard and accept the noise.
      const double tilt_gain = quirks_.derived_rates ? 6.0 : kTiltGain;
      const double tilt_gate = quirks_.derived_rates ? 3.5 : kTiltGateMs2;
      if (std::abs(f_mag - kGravity) < tilt_gate) {
        const double roll_meas = std::atan2(-f.y, -f.z);
        const double pitch_meas = std::atan2(f.x, std::sqrt(f.y * f.y + f.z * f.z));
        state_.attitude.roll +=
            tilt_gain * kDt * geo::wrap_angle(roll_meas - state_.attitude.roll);
        state_.attitude.pitch +=
            tilt_gain * kDt * geo::wrap_angle(pitch_meas - state_.attitude.pitch);
      }
      world_accel = state_.attitude.body_to_world(f) + geo::Vec3{0.0, 0.0, kGravity};
    }
  }

  // Velocity/position propagation. Without accelerometers the filter holds
  // velocity and leans fully on baro/GPS corrections.
  if (have_accel) {
    state_.velocity += world_accel * kDt;
  }
  state_.position += state_.velocity * kDt;

  // ---- Barometer: vertical correction. ----
  {
    sensors::BaroSample baro;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::BaroSample s;
      if (bus_->read_baro(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          baro = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      const double alt_err = baro.pressure_altitude_m - (-state_.position.z);
      state_.position.z -= kBaroPosGain * kDt * alt_err;
      state_.velocity.z -= kBaroVelGain * kDt * alt_err;
    }
  }

  // ---- GPS: horizontal correction; vertical fallback when baro is dead. ---
  {
    sensors::GpsSample gps;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kGps)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::GpsSample s;
      if (bus_->read_gps(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got && s.has_fix) {
          gps = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      have_gps_ever_ = true;
      const geo::Vec3 gps_local = env.frame().to_local(gps.position);
      last_gps_local_ = gps_local;
      have_gps_sample_ = true;
      state_.position.x += kGpsPosGain * kDt * (gps_local.x - state_.position.x);
      state_.position.y += kGpsPosGain * kDt * (gps_local.y - state_.position.y);
      state_.velocity.x += kGpsVelGain * kDt * (gps.velocity_ned.x - state_.velocity.x);
      state_.velocity.y += kGpsVelGain * kDt * (gps.velocity_ned.y - state_.velocity.y);
      // Weak vertical-velocity fusion: without it the climb-rate estimate
      // dead-reckons on accelerometer bias whenever the barometer is gone.
      state_.velocity.z += kGpsVelZGain * kDt * (gps.velocity_ned.z - state_.velocity.z);
      last_gps_velocity_ = gps.velocity_ned;
      dead_reckoning_ = false;

      const auto& baro_h = health_[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
      if (!baro_h.any_alive()) {
        // Fig. 1's hazard: GPS vertical resolution is coarse, but it is all
        // that is left once the barometer family dies.
        state_.position.z += kGpsAltGain * kDt * (gps_local.z - state_.position.z);
      }
    } else {
      if (quirks_.hold_stale_gps_velocity) {
        // APM-16020: the glitch handler keeps feeding the last GPS velocity
        // into the filter, so the position solution confidently drifts.
        state_.velocity.x += kGpsVelGain * kDt * (last_gps_velocity_.x - state_.velocity.x);
        state_.velocity.y += kGpsVelGain * kDt * (last_gps_velocity_.y - state_.velocity.y);
        dead_reckoning_ = false;
      } else if (have_gps_ever_) {
        dead_reckoning_ = true;
      }
    }
  }

  // ---- Compass: heading correction. ----
  {
    sensors::CompassSample compass;
    bool got = false;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kCompass)];
    int alive = 0;
    bool primary_alive = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::CompassSample s;
      if (bus_->read_compass(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          compass = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got && !quirks_.freeze_heading) {
      state_.attitude.yaw +=
          kYawGain * kDt * geo::wrap_angle(compass.heading_rad - state_.attitude.yaw);
      state_.attitude.yaw = geo::wrap_angle(state_.attitude.yaw);
    }
  }

  // ---- Battery. ----
  {
    sensors::BatterySample bat;
    auto& h = health_[static_cast<std::size_t>(sensors::SensorType::kBattery)];
    int alive = 0;
    bool primary_alive = false;
    bool got = false;
    for (int i = 0; i < h.total; ++i) {
      sensors::BatterySample s;
      if (bus_->read_battery(i, now, truth, env, s) == sensors::ReadStatus::kOk) {
        ++alive;
        if (i == 0) primary_alive = true;
        if (!got) {
          bat = s;
          got = true;
        }
      }
    }
    h.alive = alive;
    h.primary_alive = primary_alive;
    if (alive == 0 && h.all_failed_at < 0) h.all_failed_at = now;

    if (got) {
      state_.battery_voltage = bat.voltage;
      state_.battery_remaining = bat.remaining_fraction;
    }
    // A dead battery monitor keeps reporting its last values — the firmware
    // cannot tell remaining charge at all (PX4-13291's precondition).
  }

  // Track when each family's primary instance died (bug windows key on it).
  for (auto& h : health_) {
    if (!h.primary_alive && h.primary_failed_at < 0) h.primary_failed_at = now;
  }

  // ---- Fallback / quirk rate paths. ----
  if (quirks_.derived_rates) {
    // PX4's degraded path: body rates reconstructed by differentiating the
    // (accel-corrected) attitude. Noisy and laggy, but stable enough to fly.
    state_.body_rates = {
        geo::wrap_angle(state_.attitude.roll - prev_attitude_.roll) / kDt,
        geo::wrap_angle(state_.attitude.pitch - prev_attitude_.pitch) / kDt,
        geo::wrap_angle(state_.attitude.yaw - prev_attitude_.yaw) / kDt,
    };
  }
  prev_attitude_ = state_.attitude;

  // ---- Publish, applying quirk distortions to the output copy only. ----
  published_ = state_;
  if (quirks_.gps_altitude_only && have_gps_sample_) {
    // "GPS-driven flight": the vertical channel is raw GPS, coarse and slow.
    published_.position.z = last_gps_local_.z;
    published_.velocity.z = 0.0;
  }
  if (quirks_.freeze_altitude) {
    // Output channel frozen: the rest of the firmware keeps seeing the
    // altitude from the moment the quirk engaged.
    if (!frozen_alt_valid_) {
      frozen_alt_z_ = state_.position.z;
      frozen_alt_valid_ = true;
    }
    published_.position.z = frozen_alt_z_;
    published_.velocity.z = 0.0;
  } else {
    frozen_alt_valid_ = false;
  }
  if (quirks_.altitude_bias != 0.0) {
    published_.position.z -= quirks_.altitude_bias;  // NED: reads higher than real
  }

  // Debug tripwire: a NaN/inf here poisons every downstream consumer.
  assert(std::isfinite(published_.position.x) && std::isfinite(published_.position.y) &&
         std::isfinite(published_.position.z) && std::isfinite(published_.velocity.x) &&
         std::isfinite(published_.velocity.y) && std::isfinite(published_.velocity.z) &&
         std::isfinite(published_.attitude.roll) && std::isfinite(published_.attitude.pitch) &&
         std::isfinite(published_.attitude.yaw));
}

void StateEstimator::reset_state_estimate() {
  // Models an EKF in-flight reset: attitude and velocity snap to zero and
  // must re-converge; at low altitude there is no time for that.
  state_.attitude = {};
  state_.velocity = {};
  state_.body_rates = {};
}

}  // namespace avis::fw
