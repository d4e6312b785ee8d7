// Head-to-head strategy comparison on one configuration (a miniature
// Table III): Avis vs Stratified BFI vs BFI vs Random on the ArduPilot-like
// firmware with the fence workload, 30-minute-equivalent budget each.
//
// Everything is registry-named (core/scenario.h): the scenario below is the
// same declarative spec `avis_campaign --scenario-file` runs, and swapping
// the workload, environment preset, or bug population is a one-string edit.
// Campaigns run through Checker::run on a pool of the machine's cores that
// this example creates and hands to the Checker, which spreads each batch
// of experiments across it; the reports are identical at any pool size
// (docs/PERFORMANCE.md), so the comparison itself is unchanged.
#include <iostream>

#include "core/checker.h"
#include "core/scenario.h"
#include "util/concurrency.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace avis;

int main() {
  const int workers = util::default_worker_count();
  std::cout << "== strategy comparison (ArduPilot-like, fence workload, 30 min budget, "
            << workers << " worker" << (workers == 1 ? "" : "s") << ") ==\n\n";

  core::ScenarioSpec scenario;
  scenario.personality = "ardupilot";
  scenario.workload = "fence-mission";
  scenario.environment = "calm";
  scenario.budget_ms = 30 * 60 * 1000;
  scenario.strategy_seed = 7;

  // One calibrated checker shared by every approach, exactly as the paper
  // compares strategies against the same profiled model.
  util::ThreadPool pool(workers);
  core::Checker checker(core::scenario_prototype(scenario));
  checker.use_pool(&pool);  // before model(): profiling fans out too
  const core::MonitorModel& model = checker.model();

  util::TextTable table({"strategy", "sims", "labels", "unsafe #", "distinct bugs"});
  for (const char* approach : {"avis", "stratified-bfi", "bfi", "random"}) {
    scenario.approach = approach;
    auto strategy = core::make_scenario_strategy(scenario, model);
    core::BudgetClock budget(scenario.budget_ms);
    const auto report = checker.run(*strategy, budget);
    table.add(strategy->name(), report.experiments, report.labels, report.unsafe_count(),
              static_cast<int>(report.bug_first_found.size()));
  }

  table.render(std::cout);
  std::cout << "\nAvis reaches the mode-transition windows first; Stratified BFI skips the\n"
               "windows its training data never covered; BFI burns the budget labeling;\n"
               "Random needs luck to land inside a window.\n";
  return 0;
}
