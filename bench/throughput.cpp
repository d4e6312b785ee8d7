// End-to-end checker throughput (google-benchmark).
//
// The paper's evaluation hinges on experiments-per-budget (§VI, Tables
// II-V): whichever checker runs the most experiments in the 2-hour window
// finds the most unsafe conditions. These benches measure (a) raw harness
// throughput — experiments/sec for a single thread — (b) a full checker
// campaign at the paper's budget inline and on a 4-thread pool, and (c) a
// 4-cell campaign at pool sizes 1/2/4, so the parallel execution layer's
// speedup (and any regression to it) shows up directly in the perf
// trajectory.
//
// Wall-clock (real time) is the measured quantity: the whole point of the
// worker pool is to trade idle cores for elapsed time. items/s in the
// output is experiments per wall second.
#include <benchmark/benchmark.h>

#include "common.h"
#include "core/campaign.h"
#include "core/checker.h"
#include "core/sabre.h"
#include "util/thread_pool.h"

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

// Per-cell simulated budget of BM_CampaignGrid. Big enough for several
// SABRE expansion waves (tens of experiments) so worker-pool ramp-up
// amortizes; small enough that a serial campaign completes in a few seconds
// of wall time.
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
BENCHMARK(BM_SingleExperiment)->Unit(benchmark::kMillisecond)->MinTime(0.5);

// Scenario set-up, the fixed cost every campaign cell pays before its first
// experiment: a fresh Checker for ardupilot/fence-mission runs its
// profiling runs and monitor calibration (model()) and builds its
// checkpoint root (checkpoint_store()), all on the calling thread. items/s
// is set-ups per wall second.
static void BM_CheckerSetup(benchmark::State& state) {
  std::int64_t setups = 0;
  for (auto _ : state) {
    core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                          fw::BugRegistry::current_code_base());
    benchmark::DoNotOptimize(checker.model());
    benchmark::DoNotOptimize(checker.checkpoint_store());
    setups += 1;
  }
  state.SetItemsProcessed(setups);
}
BENCHMARK(BM_CheckerSetup)->Unit(benchmark::kMillisecond);

// Forwards to SABRE and counts the checker's requests (next_batch calls):
// fewer, fuller requests mean fewer wave barriers.
class RequestCountingSabre final : public core::InjectionStrategy {
 public:
  explicit RequestCountingSabre(const core::MonitorModel& model)
      : inner_(core::SimulationHarness::iris_suite(), model.golden_transitions()) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    ++requests_;
    return inner_.next(budget);
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    ++requests_;
    return inner_.next_batch(budget, max_plans);
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    inner_.feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_.chain_extension_limit(); }
  const char* name() const override { return inner_.name(); }

  int requests() const { return requests_; }

 private:
  core::SabreScheduler inner_;
  int requests_ = 0;
};

// The same campaign at the paper's budget (2 h of simulated time, §VI):
// the representative cell, where the augmented lane, pair strata and the
// budget-end discard all come into play. Arg(1) runs Checker::run inline;
// Arg(4) runs it on a 4-thread pool. requests/campaign counts checker
// requests; experiments/campaign must not vary with the worker count.
static void BM_CheckerCampaign2h(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  core::Checker& checker = shared_checker();
  const core::MonitorModel& model = checker.model();

  util::ThreadPool pool(workers);
  checker.use_pool(&pool);
  std::int64_t experiments = 0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    RequestCountingSabre sabre(model);
    core::BudgetClock budget(7200 * 1000);
    const core::CheckerReport report = checker.run(sabre, budget);
    experiments += report.experiments;
    requests += sabre.requests();
    benchmark::DoNotOptimize(report);
  }
  checker.use_pool(nullptr);  // the pool dies here; the checker lives on
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(experiments);
  state.counters["experiments/campaign"] =
      benchmark::Counter(static_cast<double>(experiments) / iterations);
  state.counters["requests/campaign"] =
      benchmark::Counter(static_cast<double>(requests) / iterations);
}
BENCHMARK(BM_CheckerCampaign2h)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kSecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Whole-campaign scaling: a 4-cell Avis grid (both personalities x both
// default workloads, 4 calibration groups) on a pool of N threads with no
// caps, so groups and their experiments share the pool. experiments/campaign
// must not vary with N — each cell's report is bit-identical to its serial
// run (tests/test_oracle.cc).
static void BM_CampaignGrid(benchmark::State& state) {
  const auto grid = bench::evaluation_grid({"avis"}, /*budget_ms=*/kCampaignBudgetMs);
  core::CampaignOptions options;
  options.total_workers = static_cast<int>(state.range(0));
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
