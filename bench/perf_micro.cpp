// Microbenchmarks (google-benchmark): throughput of the pieces the checker
// loop leans on. The paper's test throughput depends on simulation speed;
// these quantify this implementation's costs.
#include <benchmark/benchmark.h>

#include "core/checker.h"
#include "core/sabre.h"
#include "fuzz/fuzzer.h"
#include "fw/firmware.h"
#include "hinj/messages.h"
#include "mavlink/codec.h"
#include "sim/simulator.h"

using namespace avis;

static void BM_SimulatorStep(benchmark::State& state) {
  sim::Simulator simulator(sim::Environment{}, sim::QuadcopterParams{}, 1);
  sim::MotorCommands hover;
  for (double& v : hover.value) v = 0.497;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.step(hover));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStep);

// Physics in flight, the BM_EstimatorUpdate recipe applied to the
// simulator: a fault-free auto mission is flown to 20 s (airborne, on its
// way to the first waypoint), the firmware's motor commands for the next
// 1,000 steps are recorded, and the bench replays them from the saved
// airborne state in a loop. Body rates and attitude move every step, as in
// a campaign; BM_SimulatorStep hovers on the ground with zero rates, where
// the attitude trig memo always hits.
static void BM_SimulatorStepAirborne(benchmark::State& state) {
  core::SimulationHarness harness;
  core::ExperimentContext context;
  core::ExperimentSpec spec;
  spec.max_duration_ms = 20000;
  harness.run(spec, nullptr, &context);
  sim::Simulator& flight = *context.simulator;
  if (flight.state().on_ground) {
    state.SkipWithError("the recorded vehicle is not airborne");
    return;
  }
  const sim::Simulator::Snapshot airborne = flight.save();
  std::vector<sim::MotorCommands> commands;
  for (int i = 0; i < 1000; ++i) {
    commands.push_back(context.firmware->step(flight.now_ms(), flight.state()));
    flight.step(commands.back());
  }
  sim::Simulator simulator(flight.environment(), sim::QuadcopterParams{}, 1);
  simulator.load(airborne);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == commands.size()) {
      simulator.load(airborne);
      next = 0;
    }
    benchmark::DoNotOptimize(simulator.step(commands[next++]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStepAirborne);

// Physics of a vehicle parked on the ground with its motors cut, as an Avis
// experiment sits after a failsafe landing until its settle slack ends: spin
// up below hover, cut the motors, settle for 20 s (long enough for the motor
// lag to decay through the subnormal range), then time the step. Without
// the motor lag's snap to target this step runs on subnormal motor values,
// ~8x slower (docs/PERFORMANCE.md, "Subnormals").
static void BM_SimulatorStepLandedIdle(benchmark::State& state) {
  sim::Simulator simulator(sim::Environment{}, sim::QuadcopterParams{}, 1);
  sim::MotorCommands spin;
  for (double& v : spin.value) v = 0.3;
  for (int i = 0; i < 1000; ++i) simulator.step(spin);
  const sim::MotorCommands cut;
  for (int i = 0; i < 20000; ++i) simulator.step(cut);
  if (!simulator.state().on_ground) {
    state.SkipWithError("the vehicle left the ground");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.step(cut));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStepLandedIdle);

static void BM_FullFirmwareStep(benchmark::State& state) {
  util::Rng seeds(7);
  sensors::SensorSuite suite(core::SimulationHarness::iris_suite(), seeds);
  hinj::NullDirector director;
  hinj::Server server(director);
  hinj::Client client(server);
  mavlink::Channel channel;
  fw::SensorBus bus(suite, client);
  sim::Environment env;
  fw::Firmware firmware(fw::FirmwareConfig::ardupilot(), bus, client, channel.vehicle(), env);
  sim::Simulator simulator(env, sim::QuadcopterParams{}, 1);
  sim::SimTimeMs now = 0;
  for (auto _ : state) {
    const auto motors = firmware.step(++now, simulator.state());
    simulator.step(motors);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullFirmwareStep);

static void BM_HinjRoundTrip(benchmark::State& state) {
  hinj::NullDirector director;
  hinj::Server server(director);
  hinj::Client client(server);
  const sensors::SensorId id{sensors::SensorType::kGyroscope, 0};
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.sensor_read(id, ++t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HinjRoundTrip);

// One instrumented sensor read with noise, in the shape the harness runs it:
// SensorBus asks hinj (through a RecordingDirector over an empty-plan
// ScheduledDirector), then the 1 kHz gyro draws a fresh noisy sample.
static void BM_SensorRead(benchmark::State& state) {
  util::Rng seeds(7);
  sensors::SensorSuite suite(core::SimulationHarness::iris_suite(), seeds);
  core::ScheduledDirector scheduled{core::FaultPlan{}};
  core::RecordingDirector director(scheduled);
  hinj::Server server(director);
  hinj::Client client(server);
  fw::SensorBus bus(suite, client);
  const sim::Environment env;
  sim::VehicleState truth;
  truth.body_rates = {0.01, -0.02, 0.03};
  sensors::GyroSample sample;
  sim::SimTimeMs now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.read_gyro(0, ++now, truth, env, sample));
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorRead);

// One 1 kHz estimator update, fusion plus the sensor reads it drives, over a
// recorded truth state: the vehicle after 2 s of climb at above-hover thrust, so
// the filter integrates a moving, airborne state rather than a parked one.
static void BM_EstimatorUpdate(benchmark::State& state) {
  util::Rng seeds(7);
  sensors::SensorSuite suite(core::SimulationHarness::iris_suite(), seeds);
  core::ScheduledDirector scheduled{core::FaultPlan{}};
  core::RecordingDirector director(scheduled);
  hinj::Server server(director);
  hinj::Client client(server);
  fw::SensorBus bus(suite, client);
  const sim::Environment env;
  sim::Simulator simulator(env, sim::QuadcopterParams{}, 1);
  sim::MotorCommands climb;
  for (double& v : climb.value) v = 0.55;
  for (int i = 0; i < 2000; ++i) simulator.step(climb);
  const sim::VehicleState truth = simulator.state();
  fw::StateEstimator estimator(fw::FirmwareConfig::ardupilot(), bus);
  sim::SimTimeMs now = 0;
  for (auto _ : state) {
    estimator.update(++now, truth, env);
    benchmark::DoNotOptimize(estimator.state());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimatorUpdate);

static void BM_MavlinkRoundTrip(benchmark::State& state) {
  mavlink::GlobalPositionInt gp;
  gp.position = {40.0, -83.0, 220.0};
  gp.velocity_ned = {1.0, 2.0, -0.5};
  std::uint8_t seq = 0;
  for (auto _ : state) {
    auto bytes = mavlink::pack(gp, seq++, 1, 1);
    benchmark::DoNotOptimize(mavlink::unpack(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MavlinkRoundTrip);

// A monitor model calibrated once on the quick auto workload.
static const core::MonitorModel& calibrated_model() {
  static core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                               fw::BugRegistry::current_code_base());
  return checker.model();
}

static void BM_StateDistance(benchmark::State& state) {
  const core::MonitorModel& model = calibrated_model();
  const core::StateSample a = model.profiling_state(0, 5000);
  const core::StateSample b = model.profiling_state(1, 15000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.state_distance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateDistance);

// One 10 Hz monitor sample against a calibrated model, replaying the golden
// run's trace (the fault-free stream most of an experiment looks like); the
// session restarts at the end of the trace so its history stays bounded.
static void BM_MonitorSample(benchmark::State& state) {
  const core::MonitorModel& model = calibrated_model();
  const std::vector<core::StateSample>& trace = model.golden_run().trace;
  core::MonitorSession session(model);
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == trace.size()) {
      session.restart(model);
      i = 0;
    }
    benchmark::DoNotOptimize(
        session.on_sample(trace[i++], false, sim::CrashCause::kNone, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorSample);

static void BM_ScheduledDirectorShouldFail(benchmark::State& state) {
  // A three-event plan, queried for both a sensor the plan touches and one
  // it does not — the shape of every per-step sensor read in the harness.
  core::FaultPlan plan;
  plan.add(30000, {sensors::SensorType::kCompass, 1});
  plan.add(45000, {sensors::SensorType::kGps, 0});
  plan.add(60000, {sensors::SensorType::kBattery, 0});
  core::ScheduledDirector director(plan);
  const sensors::SensorId gyro{sensors::SensorType::kGyroscope, 0};
  const sensors::SensorId compass{sensors::SensorType::kCompass, 1};
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(director.should_fail(gyro, ++t));
    benchmark::DoNotOptimize(director.should_fail(compass, t));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ScheduledDirectorShouldFail);

static void BM_SabreNext(benchmark::State& state) {
  std::vector<core::ModeTransition> transitions{
      {1000, 0x0400, "takeoff"}, {9000, 0x0501, "auto-wp1"}, {15000, 0x0900, "land"}};
  for (auto _ : state) {
    state.PauseTiming();
    core::SabreScheduler sabre(core::SimulationHarness::iris_suite(), transitions);
    core::BudgetClock budget(3600 * 1000);
    state.ResumeTiming();
    for (int i = 0; i < 50; ++i) {
      auto plan = sabre.next(budget);
      if (!plan) break;
      core::ExperimentResult ok;
      ok.workload_passed = true;
      sabre.feedback(*plan, ok);
    }
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_SabreNext);

// The in-flight plan table: feedback() and proposal-time pruning look
// pending plans up by signature. Proposing a long run of waves without
// feedback (the worst case a pooled Checker::run creates: a wide batch in flight)
// grows the table; the feedbacks then measure lookup + erase cost. With the
// signature-keyed map this is O(1) per feedback instead of a linear scan
// that recomputed every pending plan's signature string.
static void BM_SabrePendingFeedback(benchmark::State& state) {
  std::vector<core::ModeTransition> transitions;
  for (int i = 0; i < 40; ++i) {
    transitions.push_back({1000 + i * 1000, 0x0400, "takeoff"});
  }
  core::ExperimentResult ok;
  ok.workload_passed = true;
  std::int64_t fed_back = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::SabreScheduler sabre(core::SimulationHarness::iris_suite(), transitions);
    core::BudgetClock budget(3600 * 1000);
    std::vector<core::FaultPlan> proposed;
    proposed.reserve(200);
    for (int i = 0; i < 200; ++i) {
      auto plan = sabre.next(budget);
      if (!plan) break;
      proposed.push_back(std::move(*plan));
    }
    state.ResumeTiming();
    for (const auto& plan : proposed) sabre.feedback(plan, ok);
    fed_back += static_cast<std::int64_t>(proposed.size());
  }
  state.SetItemsProcessed(fed_back);
}
BENCHMARK(BM_SabrePendingFeedback);

// Snapshot store lookups: resolve() against a root (30 snapshots in the ""
// bucket) plus Arg(0) merged two-event chain recordings. Each iteration
// resolves a depth-1 extension, a depth-2 extension and a tree miss (the
// level walk ends at the root's level 0) — the three shapes every
// provisioned experiment pays exactly once. The prefix-signature buckets
// keep this flat in the number of recordings; a per-experiment cost that
// scaled with tree size would eat the restore win on long campaigns.
static void BM_CheckpointTree(benchmark::State& state) {
  const int recordings = static_cast<int>(state.range(0));
  const sensors::SensorId compass{sensors::SensorType::kCompass, 0};
  const sensors::SensorId gps{sensors::SensorType::kGps, 0};
  const sensors::SensorId baro{sensors::SensorType::kBarometer, 0};
  core::CheckpointStore store{core::CheckpointConfig{}};
  std::vector<core::ExperimentSnapshot> root;
  for (sim::SimTimeMs t = 1000; t <= 30000; t += 1000) {
    root.emplace_back();
    root.back().time_ms = t;
  }
  store.install_root(core::ExperimentSpec{}, nullptr, std::move(root), core::ExperimentResult{},
                     {});
  for (int r = 0; r < recordings; ++r) {
    core::FaultPlan plan;
    plan.add(10000 + r, compass);
    plan.add(20000 + r, gps);
    std::vector<core::ExperimentSnapshot> snaps;
    for (sim::SimTimeMs t = 11000 + r; t <= 26000; t += 1000) {
      core::ExperimentSnapshot snap;
      snap.time_ms = t;
      snaps.push_back(std::move(snap));
    }
    store.merge_run(plan, std::move(snaps), {}, {});
  }
  const int mid = recordings / 2;
  core::FaultPlan shallow;  // extends {compass} before its gps event: depth 1
  shallow.add(10000 + mid, compass);
  shallow.add(18000, baro);
  core::FaultPlan deep;  // extends the full {compass, gps} chain: depth 2
  deep.add(10000 + mid, compass);
  deep.add(20000 + mid, gps);
  deep.add(26000, baro);
  core::FaultPlan miss;  // no recorded ancestor: falls back to the root
  miss.add(5000, baro);
  miss.add(15000, gps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.resolve(shallow));
    benchmark::DoNotOptimize(store.resolve(deep));
    benchmark::DoNotOptimize(store.resolve(miss));
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_CheckpointTree)->Arg(8)->Arg(64);

// One fuzz generation end to end (docs/FUZZING.md): seed evaluation plus one
// round of mutate -> evaluate -> admit over a single-cell grid. Dominated by
// the mutant simulations; the gate catches regressions in the fuzz loop's
// bookkeeping and in the campaign path it drives.
static void BM_FuzzGeneration(benchmark::State& state) {
  core::ScenarioGrid grid;
  grid.approaches = {"avis"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"box-manual"};
  grid.environments = {"calm"};
  grid.budget_ms = 15000;
  fuzz::FuzzOptions options;
  options.generations = 1;
  options.mutants_per_generation = 4;
  options.seed = 21;
  options.campaign.total_workers = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzz::run_fuzz(grid, options));
  }
  state.SetItemsProcessed(state.iterations() * (1 + options.mutants_per_generation));
}
BENCHMARK(BM_FuzzGeneration)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
