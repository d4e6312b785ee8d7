#include "replay.h"

#include <sstream>

#include "core/harness.h"
#include "fw/estimator.h"
#include "fw/firmware.h"
#include "hinj/hinj.h"
#include "mavlink/channel.h"
#include "probe.h"
#include "sensors/sensor_models.h"
#include "sim/simulator.h"
#include "util/checked.h"
#include "util/rng.h"
#include "workload/context.h"

namespace avis::campaignbench {

void LayerTotals::add(const LayerTotals& o) {
  steps += o.steps;
  loop_ns += o.loop_ns;
  sim_ns += o.sim_ns;
  fw_ns += o.fw_ns;
  fw_steps += o.fw_steps;
  estimator_ns += o.estimator_ns;
  estimator_steps += o.estimator_steps;
  hinj_reads += o.hinj_reads;
  probe_reads += o.probe_reads;
  probe_ns += o.probe_ns;
  ticks += o.ticks;
  tick_ns += o.tick_ns;
  samples += o.samples;
  sample_ns += o.sample_ns;
  harness_ns += o.harness_ns;
  harness_steps += o.harness_steps;
}

namespace {

// Counts the reads that reach the engine over hinj, forwarding everything.
class CountingDirector final : public hinj::FaultDirector {
 public:
  explicit CountingDirector(hinj::FaultDirector& inner) : inner_(&inner) {}

  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    ++reads_;
    return inner_->should_fail(sensor, time_ms);
  }
  void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                      std::int64_t time_ms) override {
    inner_->on_mode_update(mode_id, mode_name, time_ms);
  }
  void on_heartbeat(std::int64_t time_ms) override { inner_->on_heartbeat(time_ms); }

  std::int64_t reads() const { return reads_; }

 private:
  hinj::FaultDirector* inner_;
  std::int64_t reads_ = 0;
};

fw::FirmwareConfig firmware_config(const core::ExperimentSpec& spec) {
  fw::FirmwareConfig config = spec.personality == fw::Personality::kArduPilotLike
                                  ? fw::FirmwareConfig::ardupilot()
                                  : fw::FirmwareConfig::px4();
  config.bugs = spec.bugs;
  return config;
}

// The sensor seeds SimulationHarness draws for a cold run of `seed`: one
// draw for the simulator, then the suite's fork.
util::Rng sensor_seeds(std::uint64_t seed) {
  util::Rng source(seed);
  source.next_u64();
  return source.fork(1);
}

// A sensor stack wired like the firmware's, but owned by the replay: the
// shadow estimator and the read probe run on these so timing them never
// touches the replayed world.
struct SensorStack {
  SensorStack(std::uint64_t seed, hinj::FaultDirector& director)
      : seeds(sensor_seeds(seed)),
        suite(core::SimulationHarness::iris_suite(), seeds),
        server(director),
        client(server),
        bus(suite, client) {}

  util::Rng seeds;
  sensors::SensorSuite suite;
  hinj::Server server;
  hinj::Client client;
  fw::SensorBus bus;
};

// One read of every instance on the bus, as the estimator makes them.
int read_every_sensor(fw::SensorBus& bus, sim::SimTimeMs now, const sim::VehicleState& truth,
                      const sim::Environment& env) {
  const sensors::SuiteConfig& config = bus.config();
  int reads = 0;
  sensors::GyroSample gyro;
  for (int i = 0; i < config.gyroscopes; ++i, ++reads) bus.read_gyro(i, now, truth, env, gyro);
  sensors::AccelSample accel;
  for (int i = 0; i < config.accelerometers; ++i, ++reads) {
    bus.read_accel(i, now, truth, env, accel);
  }
  sensors::BaroSample baro;
  for (int i = 0; i < config.barometers; ++i, ++reads) bus.read_baro(i, now, truth, env, baro);
  sensors::GpsSample gps;
  for (int i = 0; i < config.gpses; ++i, ++reads) bus.read_gps(i, now, truth, env, gps);
  sensors::CompassSample compass;
  for (int i = 0; i < config.compasses; ++i, ++reads) {
    bus.read_compass(i, now, truth, env, compass);
  }
  sensors::BatterySample battery;
  for (int i = 0; i < config.batteries; ++i, ++reads) {
    bus.read_battery(i, now, truth, env, battery);
  }
  return reads;
}

// The read probe samples every kProbeStride-th step: often enough for a
// steady mean, rarely enough not to crowd the replayed loop's caches.
constexpr sim::SimTimeMs kProbeStride = 8;

std::string first_mismatch(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  std::ostringstream why;
  if (a.duration_ms != b.duration_ms) {
    why << "duration_ms " << a.duration_ms << " vs " << b.duration_ms;
  } else if (a.violation.has_value() != b.violation.has_value() ||
             (a.violation && (a.violation->type != b.violation->type ||
                              a.violation->time_ms != b.violation->time_ms))) {
    why << "violation differs";
  } else if (a.fired_bugs != b.fired_bugs) {
    why << "fired bugs differ";
  } else if (a.transitions.size() != b.transitions.size()) {
    why << "transition count " << a.transitions.size() << " vs " << b.transitions.size();
  } else if (a.trace.size() != b.trace.size()) {
    why << "trace length " << a.trace.size() << " vs " << b.trace.size();
  } else {
    for (std::size_t i = 0; i < a.transitions.size(); ++i) {
      const core::ModeTransition& x = a.transitions[i];
      const core::ModeTransition& y = b.transitions[i];
      if (x.time_ms != y.time_ms || x.mode_id != y.mode_id || x.mode_name != y.mode_name) {
        why << "transition " << i << " differs";
        return why.str();
      }
    }
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      const core::StateSample& x = a.trace[i];
      const core::StateSample& y = b.trace[i];
      if (x.time_ms != y.time_ms || x.position.x != y.position.x ||
          x.position.y != y.position.y || x.position.z != y.position.z ||
          x.acceleration.x != y.acceleration.x || x.acceleration.y != y.acceleration.y ||
          x.acceleration.z != y.acceleration.z || x.mode_id != y.mode_id ||
          x.on_ground != y.on_ground || x.armed != y.armed) {
        why << "trace sample " << i << " differs";
        return why.str();
      }
    }
  }
  return why.str();
}

}  // namespace

ReplayOutcome replay_experiment(const core::ExperimentSpec& spec, const core::MonitorModel& model) {
  ReplayOutcome out;
  LayerTotals& t = out.totals;

  // Provisioning, in SimulationHarness::p_provision's cold order.
  util::Rng seed_source(spec.seed);
  sim::Simulator simulator(spec.environment_factory ? spec.environment_factory()
                                                    : sim::Environment{},
                           sim::QuadcopterParams{}, seed_source.next_u64());
  util::Rng suite_seeds = seed_source.fork(1);
  sensors::SensorSuite suite(core::SimulationHarness::iris_suite(), suite_seeds);
  core::ScheduledDirector scheduled(spec.plan);
  CountingDirector counting(scheduled);
  core::RecordingDirector director(counting);
  hinj::Server server(director);
  hinj::Client client(server);
  mavlink::Channel channel;
  channel.reset_link();
  fw::SensorBus bus(suite, client);
  fw::Firmware firmware(firmware_config(spec), bus, client, channel.vehicle(),
                        simulator.environment());
  std::unique_ptr<workload::Workload> workload =
      spec.workload_factory ? spec.workload_factory() : workload::make_workload(spec.workload);
  util::expects(workload != nullptr, "unknown workload id");
  workload::GcsContext gcs(channel.gcs(), simulator.environment().frame());
  core::MonitorSession monitor(model);
  monitor.restart(model);
  core::ExperimentResult result;
  result.trace.reserve(static_cast<std::size_t>(spec.max_duration_ms / core::kSamplePeriodMs) + 1);

  // Timing-only stacks: a shadow estimator with the same sensor seeds and
  // plan (it sees the same truth each step, so it does the firmware
  // estimator's work), and a read probe on a quiet director.
  core::ScheduledDirector shadow_scheduled(spec.plan);
  SensorStack shadow(spec.seed, shadow_scheduled);
  const fw::FirmwareConfig shadow_config = firmware_config(spec);
  fw::StateEstimator shadow_estimator(shadow_config, shadow.bus);
  bool shadow_alive = true;
  hinj::NullDirector quiet;
  SensorStack probe(spec.seed, quiet);

  bool firmware_dead = false;
  sim::SimTimeMs workload_done_at = -1;
  sim::SimTimeMs next_workload_ms = 0;
  sim::SimTimeMs next_sample_ms = 0;
  std::int64_t side_ns = 0;  // shadow + probe time, excluded from loop_ns
  const std::int64_t loop_start = now_ns();
  for (sim::SimTimeMs now = 0; now < spec.max_duration_ms; ++now) {
    ++t.steps;
    const bool workload_due = now == next_workload_ms;
    if (workload_due) next_workload_ms += core::kWorkloadPeriodMs;
    if (workload_due && !firmware_dead) {
      const std::int64_t t0 = now_ns();
      gcs.pump(now);
      const workload::WorkloadStatus ws = workload->step(gcs);
      t.tick_ns += now_ns() - t0;
      ++t.ticks;
      if (ws != workload::WorkloadStatus::kRunning && workload_done_at < 0) {
        workload_done_at = now;
        result.workload_passed = ws == workload::WorkloadStatus::kPassed;
      }
    }

    if (!firmware_dead) {
      const std::int64_t s0 = now_ns();
      if (shadow_alive) {
        try {
          shadow_estimator.update(now, simulator.state(), simulator.environment());
          t.estimator_ns += now_ns() - s0;
          ++t.estimator_steps;
        } catch (const util::InvariantError&) {
          shadow_alive = false;
        }
      }
      if (now % kProbeStride == 0) {
        const std::int64_t p0 = now_ns();
        t.probe_reads += read_every_sensor(probe.bus, now, simulator.state(),
                                           simulator.environment());
        t.probe_ns += now_ns() - p0;
      }
      side_ns += now_ns() - s0;
    }

    sim::MotorCommands motors;
    if (!firmware_dead) {
      const std::int64_t t0 = now_ns();
      try {
        motors = firmware.step(now, simulator.state());
      } catch (const util::InvariantError&) {
        firmware_dead = true;
      }
      t.fw_ns += now_ns() - t0;
      ++t.fw_steps;
    }

    const std::int64_t s0 = now_ns();
    simulator.step(motors);
    t.sim_ns += now_ns() - s0;

    if (now == next_sample_ms) {
      next_sample_ms += core::kSamplePeriodMs;
      core::StateSample sample;
      sample.time_ms = now;
      sample.position = simulator.state().position;
      sample.acceleration = simulator.state().acceleration;
      sample.mode_id = firmware.composite_mode().id();
      sample.on_ground = simulator.state().on_ground;
      sample.armed = firmware.armed();
      result.trace.push_back(sample);

      const bool workload_failed =
          workload_done_at >= 0 && workload->status() == workload::WorkloadStatus::kFailed;
      const std::int64_t m0 = now_ns();
      const auto violation = monitor.on_sample(sample, simulator.state().crashed,
                                               simulator.last_crash(), firmware_dead,
                                               workload_failed);
      t.sample_ns += now_ns() - m0;
      ++t.samples;
      if (violation && !result.violation) {
        result.violation = violation;
        if (spec.stop_on_violation) {
          result.duration_ms = now + 1;
          break;
        }
      }
    }

    if (workload_done_at >= 0 && now - workload_done_at >= core::kGraceMs) {
      result.duration_ms = now + 1;
      break;
    }
    if (simulator.state().crashed && workload_done_at < 0) {
      workload_done_at = now;
      result.workload_passed = false;
    }
  }
  t.loop_ns = now_ns() - loop_start - side_ns;
  if (result.duration_ms == 0) result.duration_ms = spec.max_duration_ms;
  result.transitions = director.take_transitions();
  result.fired_bugs = firmware.fired_bugs();
  result.crash_cause = simulator.last_crash();
  t.hinj_reads = counting.reads();

  // The reference: the real harness, cold, same spec.
  const core::SimulationHarness harness;
  const std::int64_t h0 = now_ns();
  const core::ExperimentResult reference = harness.run(spec, &model);
  t.harness_ns = now_ns() - h0;
  t.harness_steps = reference.duration_ms;

  out.mismatch = first_mismatch(result, reference);
  out.parity = out.mismatch.empty();
  return out;
}

}  // namespace avis::campaignbench
