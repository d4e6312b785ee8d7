// The simulation loop (Fig. 7 of the paper).
//
// One simulation time-step:
//   1. the workload calls step() on the harness;
//   2. the simulator advances time by a fixed unit (1 ms, per §V);
//   3. synthetic sensor readings are generated from the physical state;
//   4. instrumented drivers consult the fault-injection engine;
//   5. firmware computes actuator outputs;
//   6. the simulator computes the next physical state and notifies observers.
//
// This class owns steps 2 and 6; the harness in src/core wires the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/environment.h"
#include "sim/quadcopter.h"
#include "sim/vehicle_state.h"
#include "util/rng.h"

namespace avis::sim {

// Simulation time in integer milliseconds; avoids drift from accumulating
// floating-point dt and gives the fault plan exact injection timestamps.
using SimTimeMs = std::int64_t;

inline constexpr double kStepSeconds = 0.001;  // 1 ms per §V

// Observer invoked after each physics step (the paper's Gazebo plugin
// reporting over a Unix socket; here an in-process callback carrying the
// same payload: time, ground-truth state, and any crash event).
struct StepEvent {
  SimTimeMs time_ms = 0;
  const VehicleState* state = nullptr;
  CrashCause crash = CrashCause::kNone;
};

class Simulator {
 public:
  Simulator(Environment env, QuadcopterParams params, std::uint64_t seed)
      : env_(std::move(env)), dynamics_(params), run_{.rng = util::Rng(seed)} {}

  // Advance physics one time-step given the firmware's actuator outputs.
  // Returns the crash cause if a collision happened this step.
  CrashCause step(const MotorCommands& motors) {
    const CrashCause crash = dynamics_.step(run_.state, motors, env_, kStepSeconds, run_.rng);
    run_.time_ms += 1;
    if (crash != CrashCause::kNone) run_.last_crash = crash;
    for (const auto& obs : observers_) {
      obs(StepEvent{run_.time_ms, &run_.state, crash});
    }
    return crash;
  }

  void add_observer(std::function<void(const StepEvent&)> obs) {
    observers_.push_back(std::move(obs));
  }

  // Everything a run changes, and so an experiment checkpoint's simulator
  // part. The environment, dynamics parameters and observers are
  // construction-time constants of the spec; the RNG stream is run state
  // (wind gusts and ground-contact jitter draw from it mid-run).
  struct State {
    VehicleState state;
    util::Rng rng{0};
    SimTimeMs time_ms = 0;
    CrashCause last_crash = CrashCause::kNone;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

  SimTimeMs now_ms() const { return run_.time_ms; }
  double now_seconds() const { return static_cast<double>(run_.time_ms) * kStepSeconds; }

  const VehicleState& state() const { return run_.state; }
  VehicleState& mutable_state() { return run_.state; }
  const Environment& environment() const { return env_; }
  const QuadcopterDynamics& dynamics() const { return dynamics_; }
  CrashCause last_crash() const { return run_.last_crash; }
  util::Rng& rng() { return run_.rng; }

 private:
  Environment env_;
  QuadcopterDynamics dynamics_;
  State run_;
  std::vector<std::function<void(const StepEvent&)>> observers_;
};

}  // namespace avis::sim
