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

// Provisioning cost of one experiment with and without a reusable arena.
// Short runs (2 s simulated) make the per-run constant visible: Arg(0)
// rebuilds the simulator/suite/firmware/channel from scratch every
// iteration, Arg(1) resets one ExperimentContext in place. The results are
// bit-identical (tests/test_harness.cc); only the provisioning cost moves.
static void BM_ExperimentArenaReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  core::SimulationHarness harness;
  core::ExperimentContext context;
  core::ExperimentSpec spec;
  spec.max_duration_ms = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.run(spec, nullptr, reuse ? &context : nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExperimentArenaReuse)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

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

static void BM_StateDistance(benchmark::State& state) {
  // Calibrate once on the quick auto workload.
  static core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                               fw::BugRegistry::current_code_base());
  const core::MonitorModel& model = checker.model();
  const core::StateSample a = model.profiling_state(0, 5000);
  const core::StateSample b = model.profiling_state(1, 15000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.state_distance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateDistance);

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
// feedback (the worst case run_parallel creates: a wide batch in flight)
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

// Checkpoint-tree store lookups: resolve() against a root (30 snapshots)
// plus Arg(0) merged two-event chain recordings. Each iteration resolves a
// depth-1 extension, a depth-2 extension and a tree miss (root fallback) —
// the three shapes every provisioned experiment pays exactly once. The
// prefix-signature buckets keep this flat in the number of recordings; a
// per-experiment cost that scaled with tree size would eat the restore win
// on long campaigns.
static void BM_CheckpointTree(benchmark::State& state) {
  const int recordings = static_cast<int>(state.range(0));
  const sensors::SensorId compass{sensors::SensorType::kCompass, 0};
  const sensors::SensorId gps{sensors::SensorType::kGps, 0};
  const sensors::SensorId baro{sensors::SensorType::kBarometer, 0};
  core::CheckpointStore store{core::CheckpointConfig{}};
  store.begin(core::ExperimentSpec{}, false);
  for (sim::SimTimeMs t = 1000; t <= 30000; t += 1000) {
    core::ExperimentSnapshot snap;
    snap.time_ms = t;
    store.add(std::move(snap));
  }
  store.finish(core::ExperimentResult{});
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
