#include "core/harness.h"

#include <memory>

#include "util/checked.h"
#include "util/log.h"
#include "util/rng.h"

namespace avis::core {

namespace {
// The restore point `checkpoints` offers `spec` (cold when there is none).
CheckpointResume resume_point(const CheckpointStore* checkpoints, const ExperimentSpec& spec,
                              bool monitored) {
  if (checkpoints == nullptr || !checkpoints->has_restore_points()) return {};
  checkpoints->require_matches(spec, monitored);
  return checkpoints->resolve(spec.plan);
}
}  // namespace

ExperimentResult SimulationHarness::run(const ExperimentSpec& spec,
                                        const MonitorModel* monitor_model,
                                        ExperimentContext* context,
                                        const CheckpointStore* checkpoints, int capture_limit,
                                        std::vector<ExperimentSnapshot>* tree_captures) const {
  ExperimentContext local;
  ExperimentContext& world = context != nullptr ? *context : local;
  util::expects(!world.simulator, "run() provisions into an empty context");
  ScheduledDirector director(spec.plan);
  const CheckpointResume resume = resume_point(checkpoints, spec, monitor_model != nullptr);
  const auto events = static_cast<int>(spec.plan.events.size());
  if (tree_captures == nullptr || checkpoints == nullptr || events == 0 ||
      events > capture_limit) {
    return p_run(world, spec, director, monitor_model, resume);
  }
  SnapshotCapture capture = plan_tree_capture(spec, *checkpoints);
  ExperimentResult result = p_run(world, spec, director, monitor_model, resume, &capture);
  *tree_captures = std::move(capture.snapshots);
  return result;
}

ExperimentResult SimulationHarness::run_with_director(const ExperimentSpec& spec,
                                                      hinj::FaultDirector& custom_director,
                                                      const MonitorModel* monitor_model) const {
  ExperimentContext world;
  return p_run(world, spec, custom_director, monitor_model);
}

CheckpointStore SimulationHarness::record_prefix(const ExperimentSpec& spec,
                                                 const MonitorModel* monitor_model,
                                                 const CheckpointConfig& config) const {
  ExperimentSpec prefix_spec = spec;
  prefix_spec.plan = FaultPlan{};
  SnapshotCapture capture = plan_root_capture(config, prefix_spec.max_duration_ms);
  ScheduledDirector director(prefix_spec.plan);
  ExperimentContext world;
  const ExperimentResult run = p_run(world, prefix_spec, director, nullptr, {}, &capture);
  return root_from_run(prefix_spec, monitor_model, config, run, std::move(capture));
}

CheckpointStore SimulationHarness::root_from_run(const ExperimentSpec& spec,
                                                 const MonitorModel* monitor_model,
                                                 const CheckpointConfig& config,
                                                 const ExperimentResult& run,
                                                 SnapshotCapture capture) const {
  util::expects(run.duration_ms <= spec.max_duration_ms,
                "the fault-free run outlasts the prefix it stands in for");
  ExperimentSpec prefix_spec = spec;
  prefix_spec.plan = FaultPlan{};
  std::vector<ExperimentSnapshot> snapshots = std::move(capture.snapshots);

  // Extra capture times: the golden mode transitions — the search
  // strategies concentrate their injections exactly there (SABRE seeds its
  // queue from them), so those plans restore with zero re-simulated prefix
  // — off the cadence grid that the run reaches (it takes a snapshot at the
  // top of every iteration before duration_ms).
  std::vector<sim::SimTimeMs> extra;
  if (monitor_model != nullptr) {
    for (const ModeTransition& transition : monitor_model->golden_transitions()) {
      const sim::SimTimeMs t = transition.time_ms;
      if (t > 0 && t < run.duration_ms && t % config.interval_ms != 0) extra.push_back(t);
    }
  }
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());

  // One short re-simulation per cadence interval holding extra times:
  // restore the interval's opening snapshot (cold before the first one) and
  // step through the interval's extra times, capturing each. The restored
  // world plus the run's own trace and transitions reproduce the run
  // exactly (the checkpoint parity contract), unmonitored like the run;
  // install_root fills the monitor capsules of all snapshots alike.
  for (std::size_t i = 0; i < extra.size();) {
    const sim::SimTimeMs opening_ms = extra[i] / config.interval_ms * config.interval_ms;
    SnapshotCapture resim;
    resim.stop_after_last = true;
    while (i < extra.size() && extra[i] < opening_ms + config.interval_ms) {
      resim.times.push_back(extra[i++]);
    }
    CheckpointResume resume;
    if (opening_ms > 0) {
      const auto opening = std::find_if(
          snapshots.begin(), snapshots.end(),
          [opening_ms](const ExperimentSnapshot& snap) { return snap.time_ms == opening_ms; });
      util::expects(opening != snapshots.end(), "cadence snapshot missing from the root run");
      resume.snapshot = &*opening;
      resume.trace = &run.trace;
      resume.transitions = &run.transitions;
    }
    ScheduledDirector director(prefix_spec.plan);
    ExperimentContext world;
    p_run(world, prefix_spec, director, nullptr, resume, &resim);
    util::expects(resim.snapshots.size() == resim.times.size(),
                  "a root re-simulation missed a capture time");
    for (ExperimentSnapshot& snap : resim.snapshots) snapshots.push_back(std::move(snap));
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const ExperimentSnapshot& a, const ExperimentSnapshot& b) {
              return a.time_ms < b.time_ms;
            });

  CheckpointStore store(config);
  store.install_root(prefix_spec, monitor_model, std::move(snapshots), run, capture.samples);
  return store;
}

ExperimentResult SimulationHarness::run_recording(const ExperimentSpec& spec,
                                                  const MonitorModel* monitor_model,
                                                  CheckpointStore& store) const {
  ScheduledDirector director(spec.plan);
  SnapshotCapture capture = plan_tree_capture(spec, store);
  ExperimentContext world;
  ExperimentResult result = p_run(world, spec, director, monitor_model,
                                  resume_point(&store, spec, monitor_model != nullptr), &capture);
  // An unsafe run's snapshots can never be restored (strategies only extend
  // bug-free chains), so merging them would only burn budget.
  if (!result.unsafe()) {
    store.merge_run(spec.plan, std::move(capture.snapshots),
                    std::vector<StateSample>(result.trace),
                    std::vector<ModeTransition>(result.transitions));
  }
  return result;
}

ExperimentResult SimulationHarness::p_run(ExperimentContext& world, const ExperimentSpec& spec,
                                          hinj::FaultDirector& custom_director,
                                          const MonitorModel* monitor_model,
                                          const CheckpointResume& resume,
                                          SnapshotCapture* capture) const {
  // Checkpoint forking: a run whose plan matches a recorded (possibly
  // faulty) prefix up to time t is identical to that recording up to (the
  // top of) iteration t, so restoring the deepest usable snapshot skips the
  // re-simulation of the shared prefix without changing a single observable
  // bit (docs/PERFORMANCE.md).
  const bool restoring = static_cast<bool>(resume);
  util::expects(!restoring || (resume.trace != nullptr && resume.transitions != nullptr),
                "a resume snapshot must come with its recording");
  RecordingDirector director(custom_director);

  // Provisioning is one code path for cold and restored runs — identical
  // wiring, identical construction order — with the restore pass loading
  // each layer's snapshot state over the top. Keeping a single path is what
  // protects the bit-identical parity contract when provisioning changes.
  util::Rng seed_source(spec.seed);

  // The environment is rebuilt from the spec's factory (the default is the
  // flat calm field), so two runs of the same spec fly the same world;
  // preset factories carry no per-run state. A restored run's RNG stream
  // positions are loaded below, so the construction seeds only matter cold.
  world.simulator.emplace(spec.environment_factory ? spec.environment_factory()
                                                   : sim::Environment{},
                          sim::QuadcopterParams{}, seed_source.next_u64());
  util::Rng sensor_seeds = seed_source.fork(1);
  world.suite.emplace(iris_suite(), sensor_seeds);

  // Cold runs record from the first (boot) report; a restored run parks the
  // server while the firmware re-boots, because the boot-mode report
  // already lives in the spliced transition prefix and must not be
  // recorded a second time.
  world.server.emplace(restoring ? static_cast<hinj::FaultDirector&>(world.parked_director)
                                  : director);
  world.client.emplace(*world.server);
  world.bus.emplace(*world.suite, *world.client);

  fw::FirmwareConfig fw_config = spec.personality == fw::Personality::kArduPilotLike
                                     ? fw::FirmwareConfig::ardupilot()
                                     : fw::FirmwareConfig::px4();
  fw_config.bugs = spec.bugs;
  // The firmware's constructor reports the boot mode through hinj, so it
  // comes after the server's director is chosen above.
  world.firmware.emplace(std::move(fw_config), *world.bus, *world.client,
                         world.channel.vehicle(), world.simulator->environment());

  if (restoring) {
    const ExperimentSnapshot& snap = *resume.snapshot;
    world.simulator->load(snap.simulator);
    world.suite->load(snap.suite);
    world.firmware->load(snap.firmware);
    // Link state after the firmware re-boot (construction sends nothing
    // over MAVLink today; the ordering keeps that a non-assumption).
    world.channel.load(snap.channel);
    // Now swap in the recording director, preloaded with the recording's
    // transitions up to the snapshot (for a tree snapshot that recording
    // already includes the ancestor chain's post-injection transitions).
    const auto& recorded_transitions = *resume.transitions;
    director.restore(std::vector<ModeTransition>(
                         recorded_transitions.begin(),
                         recorded_transitions.begin() +
                             static_cast<std::ptrdiff_t>(snap.transitions_len)),
                     snap.current_mode, snap.last_heartbeat_ms);
    world.server->set_director(director);
  }

  const std::unique_ptr<workload::Workload> workload_ptr =
      spec.workload_factory ? spec.workload_factory() : workload::make_workload(spec.workload);
  util::expects(workload_ptr != nullptr, "unknown workload id");
  workload::Workload& workload = *workload_ptr;
  workload::GcsContext gcs(world.channel.gcs(), world.simulator->environment().frame());
  if (restoring) {
    workload.load(resume.snapshot->workload);
    gcs.load(resume.snapshot->gcs);
  }

  MonitorSession* monitor = nullptr;  // null = unmonitored
  if (monitor_model != nullptr) {
    monitor = &world.monitor.emplace(*monitor_model);
    if (restoring) monitor->restore(*monitor_model, *resume.trace, resume.snapshot->monitor);
  }

  // Loop state; a restored run resumes it exactly where the snapshot froze
  // it.
  ExperimentResult result;
  result.trace.reserve(static_cast<std::size_t>(spec.max_duration_ms / kSamplePeriodMs) + 1);
  bool firmware_dead = false;
  sim::SimTimeMs workload_done_at = -1;
  sim::SimTimeMs next_workload_ms = 0;
  sim::SimTimeMs next_sample_ms = 0;
  sim::SimTimeMs start_ms = 0;

  if (restoring) {
    // Splice the recorded prefix into the result.
    const ExperimentSnapshot& snap = *resume.snapshot;
    const auto& recorded_trace = *resume.trace;
    result.trace.assign(recorded_trace.begin(),
                        recorded_trace.begin() + static_cast<std::ptrdiff_t>(snap.trace_len));
    result.workload_passed = snap.workload_passed;
    result.violation = snap.violation;
    result.resumed_from_ms = snap.time_ms;
    result.resumed_depth = resume.depth;
    firmware_dead = snap.firmware_dead;
    workload_done_at = snap.workload_done_at;
    next_workload_ms = snap.next_workload_ms;
    next_sample_ms = snap.next_sample_ms;
    start_ms = snap.time_ms;
  }

  sim::Simulator& simulator = *world.simulator;
  fw::Firmware& firmware = *world.firmware;

  // Capture schedule: a restored run starts past some of the planned
  // times; those snapshots already exist (or were evicted) — skip them.
  std::size_t capture_idx = 0;
  while (capture != nullptr && capture_idx < capture->times.size() &&
         capture->times[capture_idx] < start_ms) {
    ++capture_idx;
  }
  std::vector<SampleFlags>* sample_flags =
      capture != nullptr && capture->root() ? &capture->samples : nullptr;

  for (sim::SimTimeMs now = start_ms; now < spec.max_duration_ms; ++now) {
    // Checkpoint capture, at the top of the iteration so a restored run
    // re-enters the loop at exactly this point. A tree capture stops once
    // its recording horizon is reached: SABRE schedules children only at
    // the first kTreeTransitionHorizon transitions after the first
    // injection, so snapshots past that point can never be restored (a
    // root capture's first injection is kNever: it never gets there). The
    // horizon check runs before the capture — a transition at exactly `now`
    // is not yet recorded at the top of the iteration, so the snapshot a
    // child injecting at `now` needs is still captured.
    if (capture != nullptr && !capture->done && capture_idx < capture->times.size() &&
        now == capture->times[capture_idx]) {
      ++capture_idx;
      int post_injection = 0;
      for (auto it = director.transitions().rbegin(); it != director.transitions().rend();
           ++it) {
        if (it->time_ms <= capture->first_injection) break;
        ++post_injection;
      }
      if (post_injection >= kTreeTransitionHorizon) {
        capture->done = true;
      } else {
        ExperimentSnapshot& snap = capture->snapshots.emplace_back();
        snap.time_ms = now;
        snap.simulator = simulator.save();
        snap.suite = world.suite->save();
        snap.firmware = firmware.save();
        snap.channel = world.channel.save();
        snap.workload = workload.save();
        snap.gcs = gcs.save();
        if (monitor != nullptr) snap.monitor = monitor->save();
        snap.transitions_len = director.transitions().size();
        snap.current_mode = director.current_mode();
        snap.last_heartbeat_ms = director.last_heartbeat_ms();
        snap.next_workload_ms = next_workload_ms;
        snap.next_sample_ms = next_sample_ms;
        snap.workload_done_at = workload_done_at;
        snap.workload_passed = result.workload_passed;
        snap.firmware_dead = firmware_dead;
        snap.trace_len = result.trace.size();
        snap.violation = result.violation;
        if (capture->stop_after_last && capture_idx == capture->times.size()) break;
      }
    }

    // Step 1: the workload runs until it yields back to the harness.
    const bool workload_due = now == next_workload_ms;
    if (workload_due) next_workload_ms += kWorkloadPeriodMs;
    if (workload_due && !firmware_dead) {
      gcs.pump(now);
      const workload::WorkloadStatus ws = workload.step(gcs);
      if (ws != workload::WorkloadStatus::kRunning && workload_done_at < 0) {
        workload_done_at = now;
        result.workload_passed = ws == workload::WorkloadStatus::kPassed;
      }
    }

    // Steps 3-5: firmware reads (instrumented) sensors and commands motors.
    sim::MotorCommands motors;
    if (!firmware_dead) {
      try {
        motors = firmware.step(now, simulator.state());
      } catch (const util::InvariantError& err) {
        firmware_dead = true;
        util::log_warn() << "firmware aborted: " << err.what();
      }
    }

    // Steps 2 & 6: the simulator advances the physical world.
    simulator.step(motors);

    if (step_hook_) step_hook_(simulator.now_ms(), simulator.state(), firmware);

    // Sample the state tuple at the monitor rate.
    if (now == next_sample_ms) {
      next_sample_ms += kSamplePeriodMs;
      StateSample sample;
      sample.time_ms = now;
      sample.position = simulator.state().position;
      sample.acceleration = simulator.state().acceleration;
      sample.mode_id = firmware.composite_mode().id();
      sample.on_ground = simulator.state().on_ground;
      sample.armed = firmware.armed();
      result.trace.push_back(sample);

      const bool workload_failed =
          (monitor != nullptr || sample_flags != nullptr) && workload_done_at >= 0 &&
          workload.status() == workload::WorkloadStatus::kFailed;
      if (sample_flags != nullptr) {
        sample_flags->push_back({simulator.state().crashed, simulator.last_crash(),
                                 firmware_dead, workload_failed, director.transitions().size()});
      }
      if (monitor != nullptr) {
        const auto violation =
            monitor->on_sample(sample, simulator.state().crashed, simulator.last_crash(),
                               firmware_dead, workload_failed);
        if (violation && !result.violation) {
          result.violation = violation;
          if (spec.stop_on_violation) {
            result.duration_ms = now + 1;
            break;
          }
        }
      }
    }

    // End conditions: workload finished (plus grace), or vehicle crashed and
    // the wreck has been recorded for a little while.
    if (workload_done_at >= 0 && now - workload_done_at >= kGraceMs) {
      result.duration_ms = now + 1;
      break;
    }
    if (simulator.state().crashed && workload_done_at < 0) {
      workload_done_at = now;  // nothing more will happen; start grace
      result.workload_passed = false;
    }
  }

  if (result.duration_ms == 0) result.duration_ms = spec.max_duration_ms;
  result.transitions = director.take_transitions();
  result.fired_bugs = world.firmware->fired_bugs();
  result.crash_cause = world.simulator->last_crash();
  // The run's RecordingDirector is about to leave scope; park the server on
  // the world's inert director so a kept world never dangles.
  world.server->set_director(world.parked_director);
  return result;
}

ExperimentResult SimulationHarness::profile_run(const ExperimentSpec& prototype,
                                               std::uint64_t seed,
                                               SnapshotCapture* capture) const {
  ExperimentSpec spec = prototype;
  spec.plan = FaultPlan{};
  spec.seed = seed;
  ScheduledDirector director(spec.plan);
  ExperimentContext world;
  ExperimentResult result = p_run(world, spec, director, nullptr, {}, capture);
  util::expects(result.workload_passed, "profiling run did not complete its workload");
  return result;
}

MonitorModel SimulationHarness::profile(const ExperimentSpec& prototype, int runs,
                                        std::uint64_t seed_base) const {
  std::vector<ExperimentResult> profiling;
  for (int i = 0; i < runs; ++i) {
    profiling.push_back(profile_run(prototype, seed_base + static_cast<std::uint64_t>(i)));
  }
  return MonitorModel::calibrate(std::move(profiling));
}

MonitorModel SimulationHarness::profile(fw::Personality personality,
                                        workload::WorkloadId workload,
                                        const fw::BugRegistry& bugs, int runs,
                                        std::uint64_t seed_base) const {
  ExperimentSpec prototype;
  prototype.personality = personality;
  prototype.workload = workload;
  prototype.bugs = bugs;
  return profile(prototype, runs, seed_base);
}

}  // namespace avis::core
