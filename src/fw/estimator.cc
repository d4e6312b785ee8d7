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
  run_.health[static_cast<std::size_t>(sensors::SensorType::kGyroscope)].total = sc.gyroscopes;
  run_.health[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)].total =
      sc.accelerometers;
  run_.health[static_cast<std::size_t>(sensors::SensorType::kBarometer)].total = sc.barometers;
  run_.health[static_cast<std::size_t>(sensors::SensorType::kGps)].total = sc.gpses;
  run_.health[static_cast<std::size_t>(sensors::SensorType::kCompass)].total = sc.compasses;
  run_.health[static_cast<std::size_t>(sensors::SensorType::kBattery)].total = sc.batteries;
  for (auto& h : run_.health) h.alive = h.total;
}

void StateEstimator::update(sim::SimTimeMs now, const sim::VehicleState& truth,
                            const sim::Environment& env) {
  // ---- Gyroscopes: primary with fail-over; propagate attitude. ----
  {
    sensors::GyroSample gyro;
    bool got = false;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kGyroscope)];
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

    if (run_.quirks.stale_rates) {
      // Bug data path: the rate consumer keeps reading the dead primary's
      // last output; the live backup (if any) is never switched in. The
      // attitude solution silently runs away.
    } else if (got) {
      run_.state.body_rates = gyro.body_rates;
    } else {
      // Honest degradation: without gyros the firmware cannot know its
      // rates; report zero rather than integrate garbage.
      run_.state.body_rates = {};
    }
    run_.state.body_rates.z += run_.quirks.yaw_rate_bias;
    run_.state.attitude.integrate_rates(run_.state.body_rates, kDt);
  }

  // ---- Accelerometers: tilt correction + velocity propagation. ----
  geo::Vec3 world_accel{};  // gravity-compensated world acceleration
  bool have_accel = false;
  {
    sensors::AccelSample accel;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kAccelerometer)];
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
      const double tilt_gain = run_.quirks.derived_rates ? 6.0 : kTiltGain;
      const double tilt_gate = run_.quirks.derived_rates ? 3.5 : kTiltGateMs2;
      if (std::abs(f_mag - kGravity) < tilt_gate) {
        const double roll_meas = std::atan2(-f.y, -f.z);
        const double pitch_meas = std::atan2(f.x, std::sqrt(f.y * f.y + f.z * f.z));
        run_.state.attitude.roll +=
            tilt_gain * kDt * geo::wrap_angle(roll_meas - run_.state.attitude.roll);
        run_.state.attitude.pitch +=
            tilt_gain * kDt * geo::wrap_angle(pitch_meas - run_.state.attitude.pitch);
      }
      world_accel = run_.state.attitude.body_to_world(f) + geo::Vec3{0.0, 0.0, kGravity};
    }
  }

  // Velocity/position propagation. Without accelerometers the filter holds
  // velocity and leans fully on baro/GPS corrections.
  if (have_accel) {
    run_.state.velocity += world_accel * kDt;
  }
  run_.state.position += run_.state.velocity * kDt;

  // ---- Barometer: vertical correction. ----
  {
    sensors::BaroSample baro;
    bool got = false;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
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
      const double alt_err = baro.pressure_altitude_m - (-run_.state.position.z);
      run_.state.position.z -= kBaroPosGain * kDt * alt_err;
      run_.state.velocity.z -= kBaroVelGain * kDt * alt_err;
    }
  }

  // ---- GPS: horizontal correction; vertical fallback when baro is dead. ---
  {
    sensors::GpsSample gps;
    bool got = false;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kGps)];
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
      run_.have_gps_ever = true;
      const geo::Vec3 gps_local = env.frame().to_local(gps.position);
      run_.last_gps_local = gps_local;
      run_.have_gps_sample = true;
      run_.state.position.x += kGpsPosGain * kDt * (gps_local.x - run_.state.position.x);
      run_.state.position.y += kGpsPosGain * kDt * (gps_local.y - run_.state.position.y);
      run_.state.velocity.x += kGpsVelGain * kDt * (gps.velocity_ned.x - run_.state.velocity.x);
      run_.state.velocity.y += kGpsVelGain * kDt * (gps.velocity_ned.y - run_.state.velocity.y);
      // Weak vertical-velocity fusion: without it the climb-rate estimate
      // dead-reckons on accelerometer bias whenever the barometer is gone.
      run_.state.velocity.z += kGpsVelZGain * kDt * (gps.velocity_ned.z - run_.state.velocity.z);
      run_.last_gps_velocity = gps.velocity_ned;
      run_.dead_reckoning = false;

      const auto& baro_h = run_.health[static_cast<std::size_t>(sensors::SensorType::kBarometer)];
      if (!baro_h.any_alive()) {
        // Fig. 1's hazard: GPS vertical resolution is coarse, but it is all
        // that is left once the barometer family dies.
        run_.state.position.z += kGpsAltGain * kDt * (gps_local.z - run_.state.position.z);
      }
    } else {
      if (run_.quirks.hold_stale_gps_velocity) {
        // APM-16020: the glitch handler keeps feeding the last GPS velocity
        // into the filter, so the position solution confidently drifts.
        run_.state.velocity.x +=
            kGpsVelGain * kDt * (run_.last_gps_velocity.x - run_.state.velocity.x);
        run_.state.velocity.y +=
            kGpsVelGain * kDt * (run_.last_gps_velocity.y - run_.state.velocity.y);
        run_.dead_reckoning = false;
      } else if (run_.have_gps_ever) {
        run_.dead_reckoning = true;
      }
    }
  }

  // ---- Compass: heading correction. ----
  {
    sensors::CompassSample compass;
    bool got = false;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kCompass)];
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

    if (got && !run_.quirks.freeze_heading) {
      run_.state.attitude.yaw +=
          kYawGain * kDt * geo::wrap_angle(compass.heading_rad - run_.state.attitude.yaw);
      run_.state.attitude.yaw = geo::wrap_angle(run_.state.attitude.yaw);
    }
  }

  // ---- Battery. ----
  {
    sensors::BatterySample bat;
    auto& h = run_.health[static_cast<std::size_t>(sensors::SensorType::kBattery)];
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
      run_.state.battery_voltage = bat.voltage;
      run_.state.battery_remaining = bat.remaining_fraction;
    }
    // A dead battery monitor keeps reporting its last values — the firmware
    // cannot tell remaining charge at all (PX4-13291's precondition).
  }

  // Track when each family's primary instance died (bug windows key on it).
  for (auto& h : run_.health) {
    if (!h.primary_alive && h.primary_failed_at < 0) h.primary_failed_at = now;
  }

  // ---- Fallback / quirk rate paths. ----
  if (run_.quirks.derived_rates) {
    // PX4's degraded path: body rates reconstructed by differentiating the
    // (accel-corrected) attitude. Noisy and laggy, but stable enough to fly.
    run_.state.body_rates = {
        geo::wrap_angle(run_.state.attitude.roll - run_.prev_attitude.roll) / kDt,
        geo::wrap_angle(run_.state.attitude.pitch - run_.prev_attitude.pitch) / kDt,
        geo::wrap_angle(run_.state.attitude.yaw - run_.prev_attitude.yaw) / kDt,
    };
  }
  run_.prev_attitude = run_.state.attitude;

  // ---- Publish, applying quirk distortions to the output copy only. ----
  run_.published = run_.state;
  if (run_.quirks.gps_altitude_only && run_.have_gps_sample) {
    // "GPS-driven flight": the vertical channel is raw GPS, coarse and slow.
    run_.published.position.z = run_.last_gps_local.z;
    run_.published.velocity.z = 0.0;
  }
  if (run_.quirks.freeze_altitude) {
    // Output channel frozen: the rest of the firmware keeps seeing the
    // altitude from the moment the quirk engaged.
    if (!run_.frozen_alt_valid) {
      run_.frozen_alt_z = run_.state.position.z;
      run_.frozen_alt_valid = true;
    }
    run_.published.position.z = run_.frozen_alt_z;
    run_.published.velocity.z = 0.0;
  } else {
    run_.frozen_alt_valid = false;
  }
  if (run_.quirks.altitude_bias != 0.0) {
    run_.published.position.z -= run_.quirks.altitude_bias;  // NED: reads higher than real
  }

  // Debug tripwire: a NaN/inf here poisons every downstream consumer.
  assert(std::isfinite(run_.published.position.x) && std::isfinite(run_.published.position.y) &&
         std::isfinite(run_.published.position.z) && std::isfinite(run_.published.velocity.x) &&
         std::isfinite(run_.published.velocity.y) && std::isfinite(run_.published.velocity.z) &&
         std::isfinite(run_.published.attitude.roll) &&
         std::isfinite(run_.published.attitude.pitch) &&
         std::isfinite(run_.published.attitude.yaw));
}

void StateEstimator::reset_state_estimate() {
  // Models an EKF in-flight reset: attitude and velocity snap to zero and
  // must re-converge; at low altitude there is no time for that.
  run_.state.attitude = {};
  run_.state.velocity = {};
  run_.state.body_rates = {};
}

}  // namespace avis::fw
