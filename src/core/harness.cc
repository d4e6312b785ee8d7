#include "core/harness.h"

#include "util/checked.h"
#include "util/log.h"
#include "util/rng.h"

namespace avis::core {

ExperimentResult SimulationHarness::run(const ExperimentSpec& spec,
                                        const MonitorModel* monitor_model,
                                        ExperimentContext* context,
                                        const CheckpointStore* checkpoints, int capture_limit,
                                        std::vector<ExperimentSnapshot>* tree_captures) const {
  ScheduledDirector director(spec.plan);
  const auto events = static_cast<int>(spec.plan.events.size());
  if (tree_captures == nullptr || checkpoints == nullptr || !checkpoints->trees_enabled() ||
      events == 0 || events > capture_limit) {
    return p_run(spec, director, monitor_model, context, checkpoints, nullptr);
  }
  TreeCapture capture = plan_tree_capture(spec, checkpoints->config());
  ExperimentResult result =
      p_run(spec, director, monitor_model, context, checkpoints, nullptr, &capture);
  *tree_captures = std::move(capture.snapshots);
  return result;
}

ExperimentResult SimulationHarness::run_with_director(const ExperimentSpec& spec,
                                                      hinj::FaultDirector& custom_director,
                                                      const MonitorModel* monitor_model,
                                                      ExperimentContext* context) const {
  return p_run(spec, custom_director, monitor_model, context, nullptr, nullptr);
}

CheckpointStore SimulationHarness::record_prefix(const ExperimentSpec& spec,
                                                 const MonitorModel* monitor_model,
                                                 const CheckpointConfig& config,
                                                 ExperimentContext* context) const {
  util::expects(config.interval_ms > 0, "checkpoint cadence must be positive");
  CheckpointStore store(config);
  ExperimentSpec prefix_spec = spec;
  prefix_spec.plan = FaultPlan{};
  store.begin(prefix_spec, monitor_model != nullptr);
  ScheduledDirector director(prefix_spec.plan);
  const ExperimentResult prefix =
      p_run(prefix_spec, director, monitor_model, context, nullptr, &store);
  store.finish(prefix);
  return store;
}

ExperimentResult SimulationHarness::run_recording(const ExperimentSpec& spec,
                                                  const MonitorModel* monitor_model,
                                                  ExperimentContext* context,
                                                  CheckpointStore& store) const {
  ScheduledDirector director(spec.plan);
  TreeCapture capture = plan_tree_capture(spec, store.config());
  ExperimentResult result =
      p_run(spec, director, monitor_model, context, &store, nullptr, &capture);
  // An unsafe run's snapshots can never be restored (strategies only extend
  // bug-free chains), so merging them would only burn budget.
  if (!result.unsafe()) {
    store.merge_run(spec.plan, std::move(capture.snapshots),
                    std::vector<StateSample>(result.trace),
                    std::vector<ModeTransition>(result.transitions));
  }
  return result;
}

ExperimentResult SimulationHarness::p_run(const ExperimentSpec& spec,
                                          hinj::FaultDirector& custom_director,
                                          const MonitorModel* monitor_model,
                                          ExperimentContext* context,
                                          const CheckpointStore* restore_from,
                                          CheckpointStore* capture_into,
                                          TreeCapture* tree_capture) const {
  // Without a caller-supplied arena, provision into a one-shot local one —
  // same code path, same construction order, the storage just dies with the
  // run. The reset protocol below must mirror from-scratch construction
  // exactly (same seed draws in the same order, same boot traffic) so that
  // a run is a pure function of its spec either way.
  ExperimentContext local_context;
  ExperimentContext& world = context != nullptr ? *context : local_context;

  // Checkpoint forking: a run whose plan matches a recorded (possibly
  // faulty) prefix up to time t is identical to that recording up to (the
  // top of) iteration t, so restoring the deepest usable snapshot — tree
  // first, fault-free root as fallback — skips the re-simulation of the
  // shared prefix without changing a single observable bit
  // (docs/PERFORMANCE.md).
  CheckpointResume resume;
  if (restore_from != nullptr && restore_from->has_restore_points()) {
    restore_from->require_matches(spec, monitor_model != nullptr);
    resume = restore_from->resolve(spec.plan);
  }

  const bool restoring = static_cast<bool>(resume);
  util::expects(!restoring || (resume.trace != nullptr && resume.transitions != nullptr),
                "a resume snapshot must come with its recording");
  RecordingDirector director(custom_director);

  // Provisioning is one code path for cold and restored runs — identical
  // wiring, identical construction order — with the restore pass loading
  // each layer's snapshot state over the top. Keeping a single path is what
  // protects the bit-identical parity contract when provisioning changes.
  util::Rng seed_source(spec.seed);

  // Simulator: re-emplace in place. The environment is rebuilt from the
  // spec's factory (the default is the flat calm field), so two runs of the
  // same spec fly the same world; preset factories carry no per-run state.
  // A restored run's RNG stream position is loaded below, so the
  // construction seed only matters cold.
  world.simulator.emplace(spec.environment_factory ? spec.environment_factory()
                                                   : sim::Environment{},
                          sim::QuadcopterParams{}, seed_source.next_u64());

  // Sensor suite: the expensive one (12 heap-allocated instances). Reset
  // re-seeds the existing instances with the same fork sequence the
  // constructor would draw; a restored run loads full instance state
  // instead, so the reset would be wasted work.
  util::Rng sensor_seeds = seed_source.fork(1);
  if (!world.suite) {
    world.suite.emplace(iris_suite(), sensor_seeds);
  } else if (!restoring) {
    world.suite->reset(iris_suite(), sensor_seeds);
  }

  // Cold runs record from the first (boot) report; a restored run parks the
  // server while the firmware re-boots, because the boot-mode report
  // already lives in the spliced transition prefix and must not be
  // recorded a second time.
  hinj::FaultDirector& boot_director =
      restoring ? static_cast<hinj::FaultDirector&>(world.parked_director) : director;
  if (world.server) {
    world.server->set_director(boot_director);
  } else {
    world.server.emplace(boot_director);
  }
  // The client persists across runs: it is stateless between frames but
  // owns the warmed-up request/response buffers.
  if (!world.client) world.client.emplace(*world.server);

  world.channel.reset_link();
  if (!world.bus) world.bus.emplace(*world.suite, *world.client);

  fw::FirmwareConfig fw_config = spec.personality == fw::Personality::kArduPilotLike
                                     ? fw::FirmwareConfig::ardupilot()
                                     : fw::FirmwareConfig::px4();
  fw_config.bugs = spec.bugs;
  // Firmware state is rebuilt per run (its constructor reports the boot
  // mode through hinj, which must land after the director swap above);
  // emplacing into retained storage keeps the object off the heap.
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
    if (!world.monitor) {
      world.monitor.emplace(*monitor_model);
    }
    if (restoring) {
      world.monitor->restore(*monitor_model, *resume.trace, resume.snapshot->monitor);
    } else {
      world.monitor->restart(*monitor_model);
    }
    monitor = &*world.monitor;
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

  // Capture schedule (prefix run only): the cadence grid merged with the
  // config's exact extra times (golden transition timestamps), ascending
  // and deduplicated. Time 0 is excluded — a snapshot there is just a cold
  // start.
  std::vector<sim::SimTimeMs> capture_times;
  std::size_t capture_idx = 0;
  if (capture_into != nullptr) {
    const CheckpointConfig& config = capture_into->config();
    for (sim::SimTimeMs t = config.interval_ms; t < spec.max_duration_ms;
         t += config.interval_ms) {
      capture_times.push_back(t);
    }
    for (sim::SimTimeMs t : config.capture_at) {
      if (t > 0 && t < spec.max_duration_ms) capture_times.push_back(t);
    }
    std::sort(capture_times.begin(), capture_times.end());
    capture_times.erase(std::unique(capture_times.begin(), capture_times.end()),
                        capture_times.end());
  }

  // Tree capture schedule (directed run, checkpoint trees on): planned by
  // plan_tree_capture. A restored run starts past some of the planned
  // times; those snapshots already exist (or were evicted) — skip them.
  std::size_t tree_idx = 0;
  if (tree_capture != nullptr) {
    while (tree_idx < tree_capture->times.size() &&
           tree_capture->times[tree_idx] < start_ms) {
      ++tree_idx;
    }
  }

  // One snapshot assembly for both capture paths: the state saved at the
  // top of iteration `now` must be identical whether it lands in the root
  // store or a tree recording.
  const auto assemble_snapshot = [&](sim::SimTimeMs now) {
    ExperimentSnapshot snap;
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
    return snap;
  };

  for (sim::SimTimeMs now = start_ms; now < spec.max_duration_ms; ++now) {
    // Checkpoint capture, at the top of the iteration so a restored run
    // re-enters the loop at exactly this point.
    if (capture_idx < capture_times.size() && now == capture_times[capture_idx]) {
      ++capture_idx;
      capture_into->add(assemble_snapshot(now));
    }

    // Tree capture, same top-of-iteration point. Stop once the recording
    // horizon is reached: SABRE schedules children only at the first
    // `transition_horizon` transitions after the first injection, so
    // snapshots past that point can never be restored. The horizon check
    // runs before the capture — a transition at exactly `now` is not yet
    // recorded at the top of the iteration, so the snapshot a child
    // injecting at `now` needs is still captured.
    if (tree_capture != nullptr && !tree_capture->done &&
        tree_idx < tree_capture->times.size() && now == tree_capture->times[tree_idx]) {
      ++tree_idx;
      int post_injection = 0;
      for (auto it = director.transitions().rbegin(); it != director.transitions().rend();
           ++it) {
        if (it->time_ms <= tree_capture->first_injection) break;
        ++post_injection;
      }
      if (post_injection >= tree_capture->transition_horizon) {
        tree_capture->done = true;
      } else {
        tree_capture->snapshots.push_back(assemble_snapshot(now));
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

      if (monitor != nullptr) {
        const bool workload_failed =
            workload_done_at >= 0 && workload.status() == workload::WorkloadStatus::kFailed;
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
  // The run's RecordingDirector is about to leave scope; park the retained
  // server on the world's inert director so a pooled arena never dangles.
  world.server->set_director(world.parked_director);
  return result;
}

MonitorModel SimulationHarness::profile(const ExperimentSpec& prototype, int runs,
                                        std::uint64_t seed_base,
                                        ExperimentContext* context) const {
  std::vector<ExperimentResult> profiling;
  for (int i = 0; i < runs; ++i) {
    ExperimentSpec spec = prototype;
    spec.plan = FaultPlan{};
    spec.seed = seed_base + static_cast<std::uint64_t>(i);
    profiling.push_back(run(spec, nullptr, context));
    util::expects(profiling.back().workload_passed,
                  "profiling run did not complete its workload");
  }
  return MonitorModel::calibrate(std::move(profiling));
}

MonitorModel SimulationHarness::profile(fw::Personality personality,
                                        workload::WorkloadId workload,
                                        const fw::BugRegistry& bugs, int runs,
                                        std::uint64_t seed_base,
                                        ExperimentContext* context) const {
  ExperimentSpec prototype;
  prototype.personality = personality;
  prototype.workload = workload;
  prototype.bugs = bugs;
  return profile(prototype, runs, seed_base, context);
}

}  // namespace avis::core
