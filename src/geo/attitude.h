// Attitude representation and kinematics.
//
// The quadcopter model uses Z-Y-X (yaw-pitch-roll) Euler angles. A full
// quaternion implementation is unnecessary: the workloads never command
// attitudes near the pitch singularity, and Euler angles keep the firmware
// controllers (which are PID loops on roll/pitch/yaw errors, as in
// ArduPilot's AC_AttitudeControl) directly comparable to the real thing.
#pragma once

#include <cmath>
#include <limits>

#include "geo/vec3.h"

namespace avis::geo {

inline constexpr double kPi = 3.14159265358979323846;

// Wrap an angle to (-pi, pi].
inline double wrap_angle(double a) {
  while (a > kPi) a -= 2.0 * kPi;
  while (a <= -kPi) a += 2.0 * kPi;
  return a;
}

inline double deg_to_rad(double d) { return d * kPi / 180.0; }
inline double rad_to_deg(double r) { return r * 180.0 / kPi; }

// Memoized sin/cos triples for Euler rotations. A 1 kHz step rotates several
// vectors through the same one or two attitudes — both accelerometer
// instances and the physics use the truth attitude, the estimator its own
// estimate. Reusing the six values sin/cos already returned for an
// identical (roll, pitch, yaw) is bit-identical to recomputing them; the
// cache only changes how often libm runs. One cache per thread.
struct AttitudeTrig {
  double roll, pitch, yaw;
  double sr, cr, sp, cp, sy, cy;
};

namespace detail {

struct TrigCache {
  // A step touches about three attitudes; a 4-slot memo measured no faster
  // than 8 on the campaign benchmark (docs/PERFORMANCE.md).
  static constexpr int kSlots = 8;
  AttitudeTrig slots[kSlots];
  int next = 0;  // round-robin victim
  int last = 0;  // most recent hit/insert, probed first

  TrigCache() {
    for (AttitudeTrig& s : slots) s.roll = s.pitch = s.yaw = std::numeric_limits<double>::quiet_NaN();
  }

  // nullptr on miss (lookup never inserts; integrate_rates mutates the
  // attitude right after, so inserting its operand would waste a slot).
  const AttitudeTrig* find(double roll, double pitch, double yaw) {
    for (int k = 0; k < kSlots; ++k) {
      const int i = (last + k) % kSlots;
      const AttitudeTrig& s = slots[i];
      if (s.roll == roll && s.pitch == pitch && s.yaw == yaw) {
        last = i;
        return &s;
      }
    }
    return nullptr;
  }

  const AttitudeTrig& insert(double roll, double pitch, double yaw) {
    AttitudeTrig& s = slots[next];
    last = next;
    next = (next + 1) % kSlots;
    s.roll = roll;
    s.pitch = pitch;
    s.yaw = yaw;
    s.sr = std::sin(roll);
    s.cr = std::cos(roll);
    s.sp = std::sin(pitch);
    s.cp = std::cos(pitch);
    s.sy = std::sin(yaw);
    s.cy = std::cos(yaw);
    return s;
  }
};

inline TrigCache& tls_trig_cache() {
  thread_local TrigCache cache;
  return cache;
}

inline const AttitudeTrig& attitude_trig(double roll, double pitch, double yaw) {
  TrigCache& cache = tls_trig_cache();
  if (const AttitudeTrig* hit = cache.find(roll, pitch, yaw)) return *hit;
  return cache.insert(roll, pitch, yaw);
}

// Lookup-only probe for callers about to mutate the attitude (inserting an
// operand that immediately dies would waste a slot).
inline const AttitudeTrig* trig_lookup(double roll, double pitch, double yaw) {
  return tls_trig_cache().find(roll, pitch, yaw);
}

}  // namespace detail

struct Attitude {
  double roll = 0.0;   // rotation about body x, radians
  double pitch = 0.0;  // rotation about body y, radians
  double yaw = 0.0;    // rotation about body z (heading), radians

  constexpr bool operator==(const Attitude&) const = default;

  // Rotate a body-frame vector into the world (NED) frame.
  Vec3 body_to_world(const Vec3& v) const {
    const AttitudeTrig& t = detail::attitude_trig(roll, pitch, yaw);
    const double cr = t.cr, sr = t.sr;
    const double cp = t.cp, sp = t.sp;
    const double cy = t.cy, sy = t.sy;
    return {
        v.x * (cy * cp) + v.y * (cy * sp * sr - sy * cr) + v.z * (cy * sp * cr + sy * sr),
        v.x * (sy * cp) + v.y * (sy * sp * sr + cy * cr) + v.z * (sy * sp * cr - cy * sr),
        v.x * (-sp) + v.y * (cp * sr) + v.z * (cp * cr),
    };
  }

  // Rotate a world-frame vector into the body frame (transpose of the above).
  Vec3 world_to_body(const Vec3& v) const {
    const AttitudeTrig& t = detail::attitude_trig(roll, pitch, yaw);
    const double cr = t.cr, sr = t.sr;
    const double cp = t.cp, sp = t.sp;
    const double cy = t.cy, sy = t.sy;
    return {
        v.x * (cy * cp) + v.y * (sy * cp) + v.z * (-sp),
        v.x * (cy * sp * sr - sy * cr) + v.y * (sy * sp * sr + cy * cr) + v.z * (cp * sr),
        v.x * (cy * sp * cr + sy * sr) + v.y * (sy * sp * cr - cy * sr) + v.z * (cp * cr),
    };
  }

  // Integrate body angular rates over dt (small-angle Euler kinematics).
  void integrate_rates(const Vec3& body_rates, double dt) {
    double cr, sr, cp;
    if (const AttitudeTrig* t = detail::trig_lookup(roll, pitch, yaw)) {
      cr = t->cr;
      sr = t->sr;
      cp = t->cp;
    } else {
      cr = std::cos(roll);
      sr = std::sin(roll);
      cp = std::cos(pitch);
    }
    const double tp = std::tan(pitch);
    roll = wrap_angle(roll + dt * (body_rates.x + sr * tp * body_rates.y + cr * tp * body_rates.z));
    pitch = wrap_angle(pitch + dt * (cr * body_rates.y - sr * body_rates.z));
    const double cp_safe = std::abs(cp) < 1e-6 ? 1e-6 : cp;
    yaw = wrap_angle(yaw + dt * ((sr / cp_safe) * body_rates.y + (cr / cp_safe) * body_rates.z));
  }

  // Total tilt away from level, radians.
  double tilt() const { return std::sqrt(roll * roll + pitch * pitch); }
};

}  // namespace avis::geo
