// Synthetic sensor instances (Fig. 7, step 3: "sensors simulated").
//
// Each instance derives its reading from the simulator's ground-truth state
// plus instance-specific bias and gaussian noise, at the instance's native
// sample rate (between native samples the driver re-reads the held value,
// matching how real drivers poll device FIFOs). Noise magnitudes follow
// datasheet-level values for the 3DR Iris sensor stack; the GPS's coarse
// vertical accuracy is what makes APM-16682 (GPS-guided flight at low
// altitude) dangerous, exactly as described in the paper's Fig. 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/attitude.h"
#include "sensors/sensor_types.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "sim/vehicle_state.h"
#include "util/checked.h"
#include "util/rng.h"

namespace avis::sensors {

// Common per-instance machinery: identity, native rate, latched clean
// failure. Concrete sensors implement p_measure() to produce a fresh sample.
template <typename Sample>
class SensorInstance {
 public:
  SensorInstance(SensorId id, double rate_hz, util::Rng rng)
      : id_(id), interval_ms_(rate_hz > 0 ? static_cast<sim::SimTimeMs>(1000.0 / rate_hz) : 1),
        run_{.rng = rng} {}
  virtual ~SensorInstance() = default;

  SensorInstance(const SensorInstance&) = delete;
  SensorInstance& operator=(const SensorInstance&) = delete;

  const SensorId& id() const { return id_; }
  bool failed() const { return run_.failed; }

  // Clean failure: the device stops communicating for the rest of the run.
  void fail() { run_.failed = true; }

  // Everything a run changes: the noise stream position, the held sample
  // and its clock, and the latched failure. Identity, rate and the derived
  // model's parameters are construction-time constants.
  struct State {
    util::Rng rng{0};
    Sample held{};
    bool has_sample = false;
    sim::SimTimeMs last_sample_ms = 0;
    bool failed = false;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

  // Driver read path. Returns kFailed (and leaves `out` untouched) once the
  // instance has failed; otherwise returns the held sample, refreshing it
  // when a native sample period has elapsed.
  ReadStatus read(sim::SimTimeMs now_ms, const sim::VehicleState& truth,
                  const sim::Environment& env, Sample& out) {
    if (run_.failed) return ReadStatus::kFailed;
    if (!run_.has_sample || now_ms - run_.last_sample_ms >= interval_ms_) {
      run_.held = p_measure(truth, env, run_.rng);
      run_.last_sample_ms = now_ms;
      run_.has_sample = true;
    }
    out = run_.held;
    return ReadStatus::kOk;
  }

 protected:
  virtual Sample p_measure(const sim::VehicleState& truth, const sim::Environment& env,
                           util::Rng& rng) = 0;

 private:
  SensorId id_;
  sim::SimTimeMs interval_ms_;
  State run_;
};

// Each sensor's measurement model is a static function of (truth, rng,
// parameters); p_measure delegates to it, and the named default noise/bias
// constants are what a suite is built with.
class Gyroscope final : public SensorInstance<GyroSample> {
 public:
  static constexpr double kRateHz = 1000.0;
  static constexpr double kDefaultNoise = 0.002;
  static constexpr double kDefaultBias = 0.001;

  Gyroscope(SensorId id, util::Rng rng, double noise = kDefaultNoise,
            double bias = kDefaultBias)
      : SensorInstance(id, kRateHz, rng), noise_(noise), bias_(bias) {}

  static GyroSample measure(const sim::VehicleState& truth, util::Rng& rng, double noise,
                            double bias) {
    return {truth.body_rates + geo::Vec3{bias + rng.gaussian(noise),
                                         bias + rng.gaussian(noise),
                                         bias + rng.gaussian(noise)}};
  }

 protected:
  GyroSample p_measure(const sim::VehicleState& truth, const sim::Environment&,
                       util::Rng& rng) override {
    return measure(truth, rng, noise_, bias_);
  }

 private:
  double noise_;
  double bias_;
};

class Accelerometer final : public SensorInstance<AccelSample> {
 public:
  static constexpr double kRateHz = 1000.0;
  static constexpr double kDefaultNoise = 0.05;
  static constexpr double kDefaultBias = 0.02;

  Accelerometer(SensorId id, util::Rng rng, double noise = kDefaultNoise,
                double bias = kDefaultBias)
      : SensorInstance(id, kRateHz, rng), noise_(noise), bias_(bias) {}

  static AccelSample measure(const sim::VehicleState& truth, util::Rng& rng, double noise,
                             double bias) {
    // Accelerometers measure specific force: acceleration minus gravity,
    // expressed in the body frame.
    const geo::Vec3 gravity{0.0, 0.0, 9.80665};
    const geo::Vec3 specific_world = truth.acceleration - gravity;
    const geo::Vec3 body = truth.attitude.world_to_body(specific_world);
    return {body + geo::Vec3{bias + rng.gaussian(noise), bias + rng.gaussian(noise),
                             bias + rng.gaussian(noise)}};
  }

 protected:
  AccelSample p_measure(const sim::VehicleState& truth, const sim::Environment&,
                        util::Rng& rng) override {
    return measure(truth, rng, noise_, bias_);
  }

 private:
  double noise_;
  double bias_;
};

class Barometer final : public SensorInstance<BaroSample> {
 public:
  static constexpr double kRateHz = 50.0;
  static constexpr double kDefaultNoise = 0.12;

  Barometer(SensorId id, util::Rng rng, double noise = kDefaultNoise)
      : SensorInstance(id, kRateHz, rng), noise_(noise) {}

  static BaroSample measure(const sim::VehicleState& truth, util::Rng& rng, double noise) {
    return {truth.altitude() + rng.gaussian(noise)};
  }

 protected:
  BaroSample p_measure(const sim::VehicleState& truth, const sim::Environment&,
                       util::Rng& rng) override {
    return measure(truth, rng, noise_);
  }

 private:
  double noise_;
};

class Gps final : public SensorInstance<GpsSample> {
 public:
  static constexpr double kRateHz = 5.0;
  // Horizontal ~1.2 m, vertical ~2.8 m 1-sigma: consumer GPS. The vertical
  // coarseness is the paper's Fig. 1 root hazard.
  static constexpr double kDefaultHNoise = 0.9;
  static constexpr double kDefaultVNoise = 2.8;

  Gps(SensorId id, util::Rng rng, double h_noise = kDefaultHNoise,
      double v_noise = kDefaultVNoise)
      : SensorInstance(id, kRateHz, rng), h_noise_(h_noise), v_noise_(v_noise) {}

  static GpsSample measure(const sim::VehicleState& truth, const sim::Environment& env,
                           util::Rng& rng, double h_noise, double v_noise) {
    const geo::Vec3 noisy_local = truth.position + geo::Vec3{rng.gaussian(h_noise),
                                                             rng.gaussian(h_noise),
                                                             -rng.gaussian(v_noise)};
    GpsSample s;
    s.position = env.frame().to_geodetic(noisy_local);
    s.velocity_ned = truth.velocity + geo::Vec3{rng.gaussian(0.1), rng.gaussian(0.1),
                                                rng.gaussian(0.2)};
    s.num_satellites = 14;
    s.hdop = 0.8;
    s.has_fix = true;
    return s;
  }

 protected:
  GpsSample p_measure(const sim::VehicleState& truth, const sim::Environment& env,
                      util::Rng& rng) override {
    return measure(truth, env, rng, h_noise_, v_noise_);
  }

 private:
  double h_noise_;
  double v_noise_;
};

class Compass final : public SensorInstance<CompassSample> {
 public:
  static constexpr double kRateHz = 100.0;
  static constexpr double kDefaultNoise = 0.015;

  Compass(SensorId id, util::Rng rng, double noise = kDefaultNoise)
      : SensorInstance(id, kRateHz, rng), noise_(noise) {}

  static CompassSample measure(const sim::VehicleState& truth, util::Rng& rng, double noise) {
    return {geo::wrap_angle(truth.attitude.yaw + rng.gaussian(noise))};
  }

 protected:
  CompassSample p_measure(const sim::VehicleState& truth, const sim::Environment&,
                          util::Rng& rng) override {
    return measure(truth, rng, noise_);
  }

 private:
  double noise_;
};

class BatterySensor final : public SensorInstance<BatterySample> {
 public:
  static constexpr double kRateHz = 10.0;
  static constexpr double kDefaultNoise = 0.02;

  BatterySensor(SensorId id, util::Rng rng, double noise = kDefaultNoise)
      : SensorInstance(id, kRateHz, rng), noise_(noise) {}

  static BatterySample measure(const sim::VehicleState& truth, util::Rng& rng, double noise) {
    return {truth.battery_voltage + rng.gaussian(noise), truth.battery_remaining};
  }

 protected:
  BatterySample p_measure(const sim::VehicleState& truth, const sim::Environment&,
                          util::Rng& rng) override {
    return measure(truth, rng, noise_);
  }

 private:
  double noise_;
};

// How many instances of each type the vehicle carries. Instance 0 is the
// primary. Defaults model the Iris autopilot stack (dual IMU, dual compass,
// single baro/GPS/battery).
struct SuiteConfig {
  int gyroscopes = 2;
  int accelerometers = 2;
  int barometers = 1;
  int gpses = 1;
  int compasses = 2;
  int batteries = 1;

  int count(SensorType t) const {
    switch (t) {
      case SensorType::kGyroscope: return gyroscopes;
      case SensorType::kAccelerometer: return accelerometers;
      case SensorType::kBarometer: return barometers;
      case SensorType::kGps: return gpses;
      case SensorType::kCompass: return compasses;
      case SensorType::kBattery: return batteries;
    }
    return 0;
  }

  int total() const {
    return gyroscopes + accelerometers + barometers + gpses + compasses + batteries;
  }
};

// Mid-run state of every instance in a suite, in the suite's construction
// order (experiment checkpointing).
struct SuiteSnapshot {
  std::vector<Gyroscope::State> gyros;
  std::vector<Accelerometer::State> accels;
  std::vector<Barometer::State> baros;
  std::vector<Gps::State> gpses;
  std::vector<Compass::State> compasses;
  std::vector<BatterySensor::State> batteries;
};

// The vehicle's full sensor complement. Owns every instance; exposes typed
// access for the firmware drivers and id-based failure injection for the
// engine.
class SensorSuite {
 public:
  SensorSuite(const SuiteConfig& config, util::Rng& seed_source) : config_(config) {
    for (int i = 0; i < config.gyroscopes; ++i)
      gyros_.push_back(std::make_unique<Gyroscope>(
          SensorId{SensorType::kGyroscope, static_cast<std::uint8_t>(i)}, seed_source.fork(i)));
    for (int i = 0; i < config.accelerometers; ++i)
      accels_.push_back(std::make_unique<Accelerometer>(
          SensorId{SensorType::kAccelerometer, static_cast<std::uint8_t>(i)},
          seed_source.fork(16 + i)));
    for (int i = 0; i < config.barometers; ++i)
      baros_.push_back(std::make_unique<Barometer>(
          SensorId{SensorType::kBarometer, static_cast<std::uint8_t>(i)},
          seed_source.fork(32 + i)));
    for (int i = 0; i < config.gpses; ++i)
      gpses_.push_back(std::make_unique<Gps>(
          SensorId{SensorType::kGps, static_cast<std::uint8_t>(i)}, seed_source.fork(48 + i)));
    for (int i = 0; i < config.compasses; ++i)
      compasses_.push_back(std::make_unique<Compass>(
          SensorId{SensorType::kCompass, static_cast<std::uint8_t>(i)},
          seed_source.fork(64 + i)));
    for (int i = 0; i < config.batteries; ++i)
      batteries_.push_back(std::make_unique<BatterySensor>(
          SensorId{SensorType::kBattery, static_cast<std::uint8_t>(i)},
          seed_source.fork(80 + i)));
  }

  const SuiteConfig& config() const { return config_; }

  // Capture/restore every instance's run state (checkpointed prefix
  // forking). The suite keeps its own save/load because its state is a loop
  // over polymorphic instances, not a member block. load() requires the same
  // sensor complement — restoring a different vehicle's snapshot is a logic
  // error.
  SuiteSnapshot save() const {
    SuiteSnapshot s;
    for (const auto& g : gyros_) s.gyros.push_back(g->save());
    for (const auto& a : accels_) s.accels.push_back(a->save());
    for (const auto& b : baros_) s.baros.push_back(b->save());
    for (const auto& g : gpses_) s.gpses.push_back(g->save());
    for (const auto& c : compasses_) s.compasses.push_back(c->save());
    for (const auto& b : batteries_) s.batteries.push_back(b->save());
    return s;
  }

  void load(const SuiteSnapshot& s) {
    util::expects(s.gyros.size() == gyros_.size() && s.accels.size() == accels_.size() &&
                      s.baros.size() == baros_.size() && s.gpses.size() == gpses_.size() &&
                      s.compasses.size() == compasses_.size() &&
                      s.batteries.size() == batteries_.size(),
                  "suite snapshot must match the sensor complement");
    for (std::size_t i = 0; i < gyros_.size(); ++i) gyros_[i]->load(s.gyros[i]);
    for (std::size_t i = 0; i < accels_.size(); ++i) accels_[i]->load(s.accels[i]);
    for (std::size_t i = 0; i < baros_.size(); ++i) baros_[i]->load(s.baros[i]);
    for (std::size_t i = 0; i < gpses_.size(); ++i) gpses_[i]->load(s.gpses[i]);
    for (std::size_t i = 0; i < compasses_.size(); ++i) compasses_[i]->load(s.compasses[i]);
    for (std::size_t i = 0; i < batteries_.size(); ++i) batteries_[i]->load(s.batteries[i]);
  }

  Gyroscope& gyro(int i) { return *gyros_.at(i); }
  Accelerometer& accel(int i) { return *accels_.at(i); }
  Barometer& baro(int i) { return *baros_.at(i); }
  Gps& gps(int i) { return *gpses_.at(i); }
  Compass& compass(int i) { return *compasses_.at(i); }
  BatterySensor& battery(int i) { return *batteries_.at(i); }

  // Latch a clean failure on one instance. Returns false if the id does not
  // exist on this vehicle.
  bool fail(const SensorId& id) {
    if (id.instance >= config_.count(id.type)) return false;
    switch (id.type) {
      case SensorType::kGyroscope: gyros_[id.instance]->fail(); return true;
      case SensorType::kAccelerometer: accels_[id.instance]->fail(); return true;
      case SensorType::kBarometer: baros_[id.instance]->fail(); return true;
      case SensorType::kGps: gpses_[id.instance]->fail(); return true;
      case SensorType::kCompass: compasses_[id.instance]->fail(); return true;
      case SensorType::kBattery: batteries_[id.instance]->fail(); return true;
    }
    return false;
  }

  bool is_failed(const SensorId& id) const {
    if (id.instance >= config_.count(id.type)) return false;
    switch (id.type) {
      case SensorType::kGyroscope: return gyros_[id.instance]->failed();
      case SensorType::kAccelerometer: return accels_[id.instance]->failed();
      case SensorType::kBarometer: return baros_[id.instance]->failed();
      case SensorType::kGps: return gpses_[id.instance]->failed();
      case SensorType::kCompass: return compasses_[id.instance]->failed();
      case SensorType::kBattery: return batteries_[id.instance]->failed();
    }
    return false;
  }

  // All instance ids on this vehicle, in deterministic order; the search
  // strategies enumerate the fault space from this list.
  std::vector<SensorId> all_ids() const {
    std::vector<SensorId> ids;
    for (SensorType t : kAllSensorTypes) {
      for (int i = 0; i < config_.count(t); ++i) {
        ids.push_back(SensorId{t, static_cast<std::uint8_t>(i)});
      }
    }
    return ids;
  }

 private:
  SuiteConfig config_;
  std::vector<std::unique_ptr<Gyroscope>> gyros_;
  std::vector<std::unique_ptr<Accelerometer>> accels_;
  std::vector<std::unique_ptr<Barometer>> baros_;
  std::vector<std::unique_ptr<Gps>> gpses_;
  std::vector<std::unique_ptr<Compass>> compasses_;
  std::vector<std::unique_ptr<BatterySensor>> batteries_;
};

}  // namespace avis::sensors
