// The invariant monitor (paper §IV-C).
//
// Two rules:
//  * Safety  — no collisions and the firmware process stays alive. Crash
//    events come from the simulator's contact classifier; a thrown
//    InvariantError in firmware code is a process death.
//  * Liveliness — Eq. 1: the run's state (P, alpha, M) must stay within tau
//    of at least one profiling run at the same time offset, where tau is the
//    largest state distance observed between any two profiling runs.
//
// Safe modes: liveliness may be sacrificed to preserve safety. A run inside
// a safe mode is exempt from Eq. 1 but must satisfy that mode's own
// invariant (landing must descend, RTL must make progress home, a disarmed
// vehicle must be stationary on the ground).
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/mode_graph.h"
#include "fw/modes.h"
#include "geo/vec3.h"

namespace avis::core {

// Calibrated profiling data: traces, the mode graph, and the normalization
// constants P-bar, A-bar, D and threshold tau from §IV-C.
class MonitorModel {
 public:
  // Build from N profiling (fault-free) runs of the same workload. Shorter
  // runs are padded by repeating their last state, per the paper.
  static MonitorModel calibrate(std::vector<ExperimentResult> profiling_runs);

  // State distance d(S_i, S_j) per the paper's formula.
  double state_distance(const StateSample& a, const StateSample& b) const;

  double tau() const { return tau_; }
  double max_position_spread() const { return p_bar_; }
  double max_accel_spread() const { return a_bar_; }
  const ModeGraph& mode_graph() const { return graph_; }
  std::size_t profiling_run_count() const { return traces_.size(); }
  sim::SimTimeMs profiling_duration_ms() const { return duration_ms_; }
  double max_home_distance() const { return max_home_distance_; }

  // Profiling state of run i at time t (padded).
  const StateSample& profiling_state(std::size_t run, sim::SimTimeMs t) const;

  // The golden run's transitions; SABRE seeds its queue from these.
  const std::vector<ModeTransition>& golden_transitions() const { return golden_transitions_; }
  const ExperimentResult& golden_run() const { return golden_; }

  // Eq. 1: liveliness is violated at t if the state is farther than tau
  // from every profiling run.
  bool liveliness_violated(const StateSample& s) const;

 private:
  std::vector<std::vector<StateSample>> traces_;
  std::vector<ModeTransition> golden_transitions_;
  ExperimentResult golden_;
  ModeGraph graph_;
  double p_bar_ = 1.0;
  double a_bar_ = 1.0;
  double tau_ = 0.0;
  sim::SimTimeMs duration_ms_ = 0;
  double max_home_distance_ = 0.0;
};

// Per-run monitor: consumes one StateSample per monitor tick and reports the
// first violation.
class MonitorSession {
 public:
  explicit MonitorSession(const MonitorModel& model) : model_(&model) {}

  // Rebind to a model and forget the previous run, keeping the history
  // buffer's capacity; restore() starts from here.
  void restart(const MonitorModel& model) {
    model_ = &model;
    history_.clear();
    violation_.reset();
    consecutive_eq1_ = 0;
    eq1_started_ms_ = 0;
    eq1_mode_ = 0;
  }

  // Feed the sample taken at the end of a simulation step window. `crashed`
  // and `crash_cause` reflect the simulator's safety state; `firmware_dead`
  // is true if firmware raised an InvariantError this run; `workload_failed`
  // is true once the workload has timed out or been rejected — "the UAV must
  // always make progress towards its goal", so a stalled mission outside a
  // safe state is itself a liveliness violation.
  std::optional<Violation> on_sample(const StateSample& sample, bool crashed,
                                     sim::CrashCause crash_cause, bool firmware_dead,
                                     bool workload_failed = false);

  const std::optional<Violation>& violation() const { return violation_; }

  // Mid-run monitor state for experiment checkpointing. The sample history
  // is not duplicated into the capsule: every sample the session has seen is
  // a prefix of the recorded prefix-run trace (on_sample is fed exactly the
  // samples the harness appends to the trace, and stops appending once a
  // violation latches), so the capsule stores only the length and restore()
  // re-slices the shared trace.
  struct Snapshot {
    std::size_t history_len = 0;
    std::optional<Violation> violation;
    int consecutive_eq1 = 0;
    sim::SimTimeMs eq1_started_ms = 0;
    std::uint16_t eq1_mode = 0;
  };

  Snapshot save() const {
    return {history_.size(), violation_, consecutive_eq1_, eq1_started_ms_, eq1_mode_};
  }

  // `prefix_trace` is the prefix run's sampled trace; the first
  // `s.history_len` samples of it are exactly the history this session had
  // at capture time.
  void restore(const MonitorModel& model, const std::vector<StateSample>& prefix_trace,
               const Snapshot& s) {
    restart(model);
    history_.assign(prefix_trace.begin(),
                    prefix_trace.begin() + static_cast<std::ptrdiff_t>(s.history_len));
    violation_ = s.violation;
    consecutive_eq1_ = s.consecutive_eq1;
    eq1_started_ms_ = s.eq1_started_ms;
    eq1_mode_ = s.eq1_mode;
  }

 private:
  bool p_safe_mode_ok(const StateSample& sample);

  const MonitorModel* model_;
  std::vector<StateSample> history_;
  std::optional<Violation> violation_;
  // Eq. 1 must hold for several consecutive samples before a liveliness
  // violation is reported: physical divergences (fly-away, stall, ground
  // idle) persist, while mode-change transients last a sample or two.
  int consecutive_eq1_ = 0;
  sim::SimTimeMs eq1_started_ms_ = 0;
  std::uint16_t eq1_mode_ = 0;
};

}  // namespace avis::core
