// End-to-end checker throughput (google-benchmark).
//
// The paper's evaluation hinges on experiments-per-budget (§VI, Tables
// II-V): whichever checker runs the most experiments in the 2-hour window
// finds the most unsafe conditions. These benches measure (a) raw harness
// throughput — experiments/sec for a single thread — and (b) full checker
// campaigns at 1/2/4/8 workers, so the parallel execution layer's speedup
// (and any regression to it) shows up directly in the perf trajectory.
//
// Wall-clock (real time) is the measured quantity: the whole point of the
// worker pool is to trade idle cores for elapsed time. items/s in the
// output is experiments per wall second.
#include <benchmark/benchmark.h>

#include "common.h"
#include "core/campaign.h"
#include "core/checker.h"
#include "core/sabre.h"

using namespace avis;

namespace {

// One calibrated checker shared by every bench in this binary: profiling
// (3 golden runs) is paid once, and every campaign reuses the same monitor
// model, exactly as Checker::run does across strategies.
core::Checker& shared_checker() {
  static core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto,
                               fw::BugRegistry::current_code_base());
  return checker;
}

// Per-campaign simulated budget. Big enough for several SABRE expansion
// waves (tens of experiments) so worker-pool ramp-up amortizes; small
// enough that a serial campaign completes in a few seconds of wall time.
constexpr sim::SimTimeMs kCampaignBudgetMs = 600 * 1000;

}  // namespace

// Single-experiment hot path: one fault-free monitored run through
// SimulationHarness::run, the path every checker experiment takes. items/s
// is experiments per wall second.
static void BM_SingleExperiment(benchmark::State& state) {
  core::Checker& checker = shared_checker();
  const core::MonitorModel& model = checker.model();
  core::ExperimentSpec spec;
  spec.personality = checker.personality();
  spec.workload = checker.workload();
  spec.bugs = checker.bugs();
  spec.seed = 100;
  spec.max_duration_ms = model.profiling_duration_ms() + core::Checker::kSettleMs;
  std::int64_t experiments = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.harness().run(spec, &model));
    experiments += 1;
  }
  state.SetItemsProcessed(experiments);
}
BENCHMARK(BM_SingleExperiment)->Unit(benchmark::kMillisecond);

// Full SABRE campaign at N workers. Arg(1) runs the serial Checker::run
// path; higher counts dispatch batches across the worker pool. The reports
// are identical by construction (see tests/test_checker_parallel.cc), so
// the runs are directly comparable: items/s is experiments per wall second
// and real_time per iteration is the campaign wall time.
static void BM_CheckerCampaign(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  core::Checker& checker = shared_checker();
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  std::int64_t experiments = 0;
  for (auto _ : state) {
    core::SabreScheduler sabre(suite, model.golden_transitions());
    core::BudgetClock budget(kCampaignBudgetMs);
    const core::CheckerReport report = workers <= 1
                                           ? checker.run(sabre, budget)
                                           : checker.run_parallel(sabre, budget, workers);
    experiments += report.experiments;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(experiments);
  state.counters["experiments/campaign"] = benchmark::Counter(
      static_cast<double>(experiments) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CheckerCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Whole-campaign sharding: a 4-cell Avis grid (both personalities x both
// default workloads) run at N concurrent cells with a single experiment
// worker per cell, so the reported wall time isolates cell-level
// parallelism. experiments/campaign must not vary with N — each cell's
// report is bit-identical to its serial run (tests/test_campaign.cc).
static void BM_CampaignGrid(benchmark::State& state) {
  const int cell_workers = static_cast<int>(state.range(0));
  const auto grid = bench::evaluation_grid({"avis"}, /*budget_ms=*/kCampaignBudgetMs);
  core::CampaignOptions options;
  options.cell_workers = cell_workers;
  options.experiment_workers = 1;
  const core::CampaignRunner runner(options);

  std::int64_t experiments = 0;
  for (auto _ : state) {
    const core::CampaignResult result = runner.run(grid);
    experiments += result.total_experiments();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(experiments);
  state.counters["experiments/campaign"] = benchmark::Counter(
      static_cast<double>(experiments) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CampaignGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK_MAIN();
