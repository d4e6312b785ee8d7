// The simulation harness: wires simulator, sensors, hinj, firmware, MAVLink
// and workload into one experiment (the full loop of the paper's Fig. 7).
//
// "At the start of each test, Avis provisions a new instance of the
// simulator and firmware" — every run() starts from a state that is a pure
// function of its spec. Callers that run many experiments back to back hand
// run() a reusable ExperimentContext: the same provisioning happens by
// resetting retained storage in place instead of reallocating it, with
// bit-identical results (the arena reset contract, docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
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

// Reusable per-worker experiment arena (ROADMAP: "per-worker experiment
// arenas"): the storage for one provisioned world — simulator, sensor
// suite, hinj connection, MAVLink channel, firmware, monitor session — so
// consecutive runs on the same worker reset state in place instead of
// rebuilding it on the heap. The harness owns the provisioning/reset
// protocol that makes reuse bit-identical to fresh construction; callers
// just keep the context alive and pass it back in. One context serves one
// run at a time (it is a worker's scratch space, not shared state).
struct ExperimentContext {
  ExperimentContext() = default;
  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  std::optional<sim::Simulator> simulator;
  std::optional<sensors::SensorSuite> suite;
  // Between runs the server is parked on this inert director, so a pooled
  // world never holds a pointer to a finished run's stack-local
  // RecordingDirector.
  hinj::NullDirector parked_director;
  std::optional<hinj::Server> server;
  std::optional<hinj::Client> client;  // owns the warmed-up hinj frame buffers
  mavlink::Channel channel;            // owns the warmed-up frame freelist
  std::optional<fw::SensorBus> bus;
  std::optional<fw::Firmware> firmware;
  std::optional<MonitorSession> monitor;
};

// Hands contexts to pool workers: a worker checks one out per experiment
// and returns it afterwards, and each context is reused by whichever worker
// runs the next one. The free list is capped at the pool's high-water
// concurrent-checkout mark: a release that would retain more idle contexts
// than were ever simultaneously in use frees the context instead, so a wide
// campaign cannot pin arena memory beyond its actual peak concurrency. The
// lock is per experiment (hundreds of milliseconds of simulation), so
// contention is irrelevant.
class ExperimentContextPool {
 public:
  std::unique_ptr<ExperimentContext> acquire() {
    std::lock_guard lock(mutex_);
    ++checked_out_;
    high_water_ = std::max(high_water_, checked_out_);
    if (!free_.empty()) {
      std::unique_ptr<ExperimentContext> ctx = std::move(free_.back());
      free_.pop_back();
      return ctx;
    }
    return std::make_unique<ExperimentContext>();
  }

  void release(std::unique_ptr<ExperimentContext> ctx) {
    std::lock_guard lock(mutex_);
    if (checked_out_ > 0) --checked_out_;
    if (free_.size() + checked_out_ < high_water_) {
      free_.push_back(std::move(ctx));
    }
    // else: retaining it would exceed the peak-concurrency cap; let it die.
  }

  // Observability for tests: peak concurrent checkouts and current idles.
  std::size_t high_water_mark() const {
    std::lock_guard lock(mutex_);
    return high_water_;
  }
  std::size_t idle_count() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ExperimentContext>> free_;
  std::size_t checked_out_ = 0;
  std::size_t high_water_ = 0;
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
  // first violation. Profiling runs pass nullptr. `context`, when given, is
  // the worker's reusable arena; nullptr provisions (and discards) a fresh
  // one, which is bit-identical but pays the allocations. `checkpoints`,
  // when given, must have been recorded from the same scenario (same spec
  // minus the plan, same monitored-ness — record_prefix below): the run
  // then restores the deepest usable snapshot — tree or root — and
  // simulates only the suffix, bit-identical to a cold run
  // (result.resumed_from_ms records the skip).
  //
  // Checkpoint-tree recording, for the checker: when `tree_captures` is
  // non-null, the store grows trees and the plan has 1..`capture_limit`
  // events (the strategy's chain_extension_limit — plans it may extend
  // later), the run's tree snapshots replace *tree_captures. The store is
  // only read; the caller merges the captures once no other run is reading
  // it (Checker defers merges to the request boundary).
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
                                     const MonitorModel* monitor_model,
                                     ExperimentContext* context = nullptr) const;

  // The checkpointing prefix run: simulates `spec` with its plan cleared,
  // capturing a snapshot of complete world state every
  // `config.interval_ms` of sim time, and returns the filled store. The
  // prefix must run under the same monitor the accelerated experiments will
  // use (the monitor session's history is part of world state).
  CheckpointStore record_prefix(const ExperimentSpec& spec,
                                const MonitorModel* monitor_model,
                                const CheckpointConfig& config,
                                ExperimentContext* context = nullptr) const;

  // Checkpoint-tree building block: run one *directed* experiment, restoring
  // from the deepest usable snapshot in `store` (tree or root), while
  // recording tree snapshots on the store's cadence + at the plan's later
  // activations; if the run stays safe, merge the captures back into the
  // store so deeper chains can fork from them. This is what the Checker
  // does across a campaign, in one call — tests use it to grow a tree
  // without standing up a checker.
  ExperimentResult run_recording(const ExperimentSpec& spec, const MonitorModel* monitor_model,
                                 ExperimentContext* context, CheckpointStore& store) const;

  // Convenience: N fault-free profiling runs with distinct seeds, then
  // monitor calibration (paper: "We assume runs without sensor failures are
  // correct"). The prototype overload carries the full experiment identity
  // — personality, workload (enum or factory), environment, bugs — so
  // registry-named scenarios profile the exact world they search in; the
  // prototype's plan and seed are ignored.
  MonitorModel profile(const ExperimentSpec& prototype, int runs = 3,
                       std::uint64_t seed_base = 1, ExperimentContext* context = nullptr) const;
  MonitorModel profile(fw::Personality personality, workload::WorkloadId workload,
                       const fw::BugRegistry& bugs, int runs = 3,
                       std::uint64_t seed_base = 1, ExperimentContext* context = nullptr) const;

  // Per-run step hook for benches that need full-rate traces (Fig. 9/10).
  using StepHook = std::function<void(sim::SimTimeMs, const sim::VehicleState&,
                                      const fw::Firmware&)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

 private:
  // The one experiment loop behind run/run_with_director/record_prefix:
  // provision the world (cold, or restored from the best usable snapshot in
  // `restore_from` via CheckpointStore::resolve; nullptr = cold), step it,
  // and finalize the result. `capture_into` records cadenced snapshots while
  // running (the prefix run); `tree_capture` records tree snapshots while
  // running a *directed* experiment (planned by plan_tree_capture; the
  // caller merges the captures into a store if the run stays safe).
  // capture_into and tree_capture are mutually exclusive by construction.
  ExperimentResult p_run(const ExperimentSpec& spec, hinj::FaultDirector& custom_director,
                         const MonitorModel* monitor_model, ExperimentContext* context,
                         const CheckpointStore* restore_from,
                         CheckpointStore* capture_into,
                         TreeCapture* tree_capture = nullptr) const;

  StepHook step_hook_;
};

}  // namespace avis::core
