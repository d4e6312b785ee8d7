// The simulation harness: wires simulator, sensors, hinj, firmware, MAVLink
// and workload into one experiment (the full loop of the paper's Fig. 7).
//
// "At the start of each test, Avis provisions a new instance of the
// simulator and firmware" — every run provisions every layer fresh, so a
// run is a pure function of its spec; a restored run loads its snapshot
// state over that fresh world.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/invariant_monitor.h"
#include "fw/firmware.h"
#include "hinj/hinj.h"
#include "mavlink/channel.h"
#include "sensors/sensor_models.h"
#include "sim/simulator.h"
#include "util/checked.h"
#include "workload/context.h"
#include "workload/default_workloads.h"

namespace avis::core {

// Engine-side fault director: injects the plan's failures at their
// scheduled timestamps. should_fail is called for every sensor read of
// every simulation step, so the plan is flattened at construction into a
// per-instance earliest-activation table and each query is one array load
// instead of a scan over the plan's events.
class ScheduledDirector final : public hinj::FaultDirector {
 public:
  explicit ScheduledDirector(const FaultPlan& plan) {
    for (auto& per_type : activation_) per_type.fill(FaultPlan::kNever);
    for (const auto& event : plan.events) {
      util::expects(event.sensor.instance < kMaxInstances,
                    "fault plan names a sensor instance beyond the suite limit");
      auto& slot = activation_[static_cast<std::size_t>(event.sensor.type)][event.sensor.instance];
      slot = std::min(slot, static_cast<std::int64_t>(event.time_ms));
    }
  }

  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    if (sensor.instance >= kMaxInstances) return false;
    return time_ms >= activation_[static_cast<std::size_t>(sensor.type)][sensor.instance];
  }

  void on_mode_update(std::uint16_t, std::string_view, std::int64_t) override {}

 private:
  static constexpr std::uint8_t kMaxInstances = 8;
  std::array<std::array<std::int64_t, kMaxInstances>, sensors::kAllSensorTypes.size()>
      activation_;
};

// Wraps any director and records the mode trace and heartbeats the firmware
// reports through hinj; the harness always interposes one of these so every
// experiment result carries its transition list. The wire hands mode names
// over as views into the frame buffer; the recorded transitions own their
// copies.
class RecordingDirector final : public hinj::FaultDirector {
 public:
  explicit RecordingDirector(hinj::FaultDirector& inner) : inner_(&inner) {
    // A mission's mode trace is a few dozen transitions; one up-front block
    // keeps the recording path allocation-free in the common case.
    transitions_.reserve(32);
  }

  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    return inner_->should_fail(sensor, time_ms);
  }

  void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                      std::int64_t time_ms) override {
    transitions_.push_back({time_ms, mode_id, std::string(mode_name)});
    current_mode_ = mode_id;
    inner_->on_mode_update(mode_id, mode_name, time_ms);
  }

  void on_heartbeat(std::int64_t time_ms) override {
    last_heartbeat_ms_ = time_ms;
    inner_->on_heartbeat(time_ms);
  }

  const std::vector<ModeTransition>& transitions() const { return transitions_; }
  // Move the trace out into the experiment result instead of copying a
  // vector of strings; the director is done once its run ends.
  std::vector<ModeTransition> take_transitions() { return std::move(transitions_); }
  std::uint16_t current_mode() const { return current_mode_; }
  std::int64_t last_heartbeat_ms() const { return last_heartbeat_ms_; }

  // Checkpoint restore: preload the transitions the prefix run recorded up
  // to the snapshot, so the spliced trace reads exactly like a from-scratch
  // recording.
  void restore(std::vector<ModeTransition> transitions, std::uint16_t current_mode,
               std::int64_t last_heartbeat_ms) {
    transitions_ = std::move(transitions);
    current_mode_ = current_mode;
    last_heartbeat_ms_ = last_heartbeat_ms;
  }

 private:
  hinj::FaultDirector* inner_;
  std::vector<ModeTransition> transitions_;
  std::uint16_t current_mode_ = 0;
  std::int64_t last_heartbeat_ms_ = 0;
};

// The layers of one provisioned world — simulator, sensor suite, hinj
// connection, MAVLink channel, firmware, monitor session. Every run
// provisions a fresh one; a caller that inspects the world after the run
// (tests, benches) hands run() an empty context to receive it.
struct ExperimentContext {
  ExperimentContext() = default;
  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  std::optional<sim::Simulator> simulator;
  std::optional<sensors::SensorSuite> suite;
  // After the run the server is parked on this inert director, so a kept
  // world never holds a pointer to the finished run's stack-local
  // RecordingDirector (the firmware may still be stepped).
  hinj::NullDirector parked_director;
  std::optional<hinj::Server> server;
  std::optional<hinj::Client> client;
  mavlink::Channel channel;
  std::optional<fw::SensorBus> bus;
  std::optional<fw::Firmware> firmware;
  std::optional<MonitorSession> monitor;
};

// The workload (ground station) is pumped at 20 ms — a realistic GCS loop
// rate, and far slower than the 1 kHz firmware loop.
inline constexpr sim::SimTimeMs kWorkloadPeriodMs = 20;
// After the workload passes or fails, let the vehicle settle briefly so
// late-manifesting violations (e.g. ground impact) are still observed.
inline constexpr sim::SimTimeMs kGraceMs = 4000;

class SimulationHarness {
 public:
  SimulationHarness() = default;

  // The vehicle's sensor complement (paper §VI: the 3DR Iris / Pixhawk
  // stack): dual-redundant IMU (gyro + accel), triple-redundant compass
  // (the paper's Fig. 6 example), single baro/GPS/battery. Search
  // strategies must enumerate over this.
  static sensors::SuiteConfig iris_suite() {
    sensors::SuiteConfig config;
    config.gyroscopes = 2;
    config.accelerometers = 2;
    config.barometers = 1;
    config.gpses = 1;
    config.compasses = 3;
    config.batteries = 1;
    return config;
  }

  // Run one experiment. If `monitor_model` is non-null the invariant monitor
  // runs alongside and, when spec.stop_on_violation, ends the run at the
  // first violation. Profiling runs pass nullptr. `context`, when given,
  // must be empty and receives the finished world. `checkpoints`,
  // when given, must have been built for the same scenario (same spec
  // minus the plan, same monitored-ness — record_prefix or root_from_run
  // below): the run then restores the deepest usable snapshot
  // (CheckpointStore::resolve) and simulates only the suffix, bit-identical
  // to a cold run (result.resumed_from_ms records the skip).
  //
  // Checkpoint-tree recording, for the checker: when `tree_captures` and
  // `checkpoints` are non-null and the plan has 1..`capture_limit` events
  // (the strategy's chain_extension_limit — plans it may extend later), the
  // run's tree snapshots replace *tree_captures. The store is only read;
  // the caller merges the captures once no other run is reading it
  // (Checker defers merges to the request boundary).
  ExperimentResult run(const ExperimentSpec& spec, const MonitorModel* monitor_model = nullptr,
                       ExperimentContext* context = nullptr,
                       const CheckpointStore* checkpoints = nullptr, int capture_limit = 0,
                       std::vector<ExperimentSnapshot>* tree_captures = nullptr) const;

  // Same, but with a caller-supplied fault director (the replayer injects
  // relative to observed mode transitions rather than absolute timestamps).
  // Custom directors carry no declared first-injection time, so this path
  // never restores checkpoints.
  ExperimentResult run_with_director(const ExperimentSpec& spec,
                                     hinj::FaultDirector& director,
                                     const MonitorModel* monitor_model) const;

  // The fault-free root for `spec` (plan cleared) under `monitor_model`
  // (the monitor session's history is part of world state, so the root
  // must match the monitored-ness of the runs it accelerates): simulates
  // the spec fault-free, unmonitored, capturing a snapshot every
  // `config.interval_ms` of sim time, and builds the store from that run
  // with root_from_run. The checker skips this simulation: its golden
  // profiling run is the same run, captured while profiling.
  CheckpointStore record_prefix(const ExperimentSpec& spec,
                                const MonitorModel* monitor_model,
                                const CheckpointConfig& config) const;

  // Builds the root for `spec` from `run`, an unmonitored fault-free run of
  // the same scenario whose `capture` (plan_root_capture's cadence grid for
  // `config`) was filled while it ran. `run` may have had a different
  // duration cap than `spec`, as long as it ended on its own within
  // `spec.max_duration_ms`: it then steps exactly the iterations the
  // prefix run would. Snapshots at the model's golden transition times off
  // the cadence grid are re-simulated from the preceding cadence snapshot
  // (at most one interval each), and the store replays the monitor over the
  // run (CheckpointStore::install_root).
  CheckpointStore root_from_run(const ExperimentSpec& spec, const MonitorModel* monitor_model,
                                const CheckpointConfig& config, const ExperimentResult& run,
                                SnapshotCapture capture) const;

  // Checkpoint-tree building block: run one *directed* experiment, restoring
  // from the deepest usable snapshot in `store`, while recording tree
  // snapshots on the store's cadence + at the plan's later activations; if
  // the run stays safe, merge the captures back into the store so deeper
  // chains can fork from them. This is what the Checker
  // does across a campaign, in one call — tests use it to grow a tree
  // without standing up a checker.
  ExperimentResult run_recording(const ExperimentSpec& spec, const MonitorModel* monitor_model,
                                 CheckpointStore& store) const;

  // Convenience: N fault-free profiling runs with distinct seeds, then
  // monitor calibration (paper: "We assume runs without sensor failures are
  // correct"). The prototype overload carries the full experiment identity
  // — personality, workload (enum or factory), environment, bugs — so
  // registry-named scenarios profile the exact world they search in; the
  // prototype's plan and seed are ignored.
  MonitorModel profile(const ExperimentSpec& prototype, int runs = 3,
                       std::uint64_t seed_base = 1) const;
  MonitorModel profile(fw::Personality personality, workload::WorkloadId workload,
                       const fw::BugRegistry& bugs, int runs = 3,
                       std::uint64_t seed_base = 1) const;
  // One of profile()'s runs: the prototype fault-free at `seed`; throws if
  // the workload did not complete. Runs are independent, so a caller may
  // run them concurrently and calibrate the results in seed order
  // (Checker::model() profiles on its experiment pool). `capture`, when
  // given, is filled while the run simulates (plan_root_capture) — the
  // checker captures the golden run's snapshots for root_from_run this way.
  ExperimentResult profile_run(const ExperimentSpec& prototype, std::uint64_t seed,
                               SnapshotCapture* capture = nullptr) const;

  // Per-run step hook for benches that need full-rate traces (Fig. 9/10).
  using StepHook = std::function<void(sim::SimTimeMs, const sim::VehicleState&,
                                      const fw::Firmware&)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

 private:
  // The one experiment loop behind every public entry point: provision a
  // fresh world into the empty `world` (cold, or restored from `resume`;
  // default = cold), step it, and finalize the result. `capture`, when
  // given, records snapshots while the run steps (plan_root_capture /
  // plan_tree_capture); the caller files them into a store afterwards.
  ExperimentResult p_run(ExperimentContext& world, const ExperimentSpec& spec,
                         hinj::FaultDirector& custom_director, const MonitorModel* monitor_model,
                         const CheckpointResume& resume = {},
                         SnapshotCapture* capture = nullptr) const;

  StepHook step_hook_;
};

}  // namespace avis::core
