// Shared driver for the evaluation benches (paper §VI).
//
// Every table bench runs one or more of the four approaches — Avis (SABRE),
// Stratified BFI, BFI, Random — against a (personality, workload) pair for a
// two-hour-equivalent budget and aggregates the unsafe conditions found.
// Approaches, personalities, workloads and environments are registry names
// (core/scenario.h): a bench describes its grid as a list of ScenarioSpec
// cells and runs it through core::CampaignRunner, which shards whole cells
// across the machine on top of the per-cell experiment pool; cell reports
// are bit-identical to the serial run_cell loop (tests/test_campaign.cc).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/checker.h"
#include "core/scenario.h"
#include "util/concurrency.h"
#include "util/table.h"

namespace avis::bench {

// The four paper approaches, in Table I/III row order.
inline std::vector<std::string> paper_approaches() {
  return {"avis", "stratified-bfi", "bfi", "random"};
}

// Display label for a registry approach name ("avis" -> "Avis").
inline std::string label_of(const std::string& approach) {
  return core::approach_label(approach);
}

// The two default evaluation workloads (paper §V-A).
inline std::vector<std::string> evaluation_workloads() {
  return {"box-manual", "fence-mission"};
}

inline std::vector<std::string> evaluation_personalities() { return {"ardupilot", "px4"}; }

struct CellResult {
  core::CheckerReport report;
  core::ScenarioSpec scenario;
};

// Run one approach for one scenario cell under the paper's per-workload
// budget, serially constructed exactly as a campaign cell would be.
// `workers` > 1 dispatches experiment batches across a thread pool; the
// report is identical to the serial run (the parallel checker applies
// results in submission order — docs/PERFORMANCE.md), so table benches can
// use every core without perturbing their numbers. This is the serial
// reference the campaign parity test compares against.
inline CellResult run_cell(const core::ScenarioSpec& scenario,
                           int workers = util::default_worker_count()) {
  core::Checker checker(core::scenario_prototype(scenario));
  const core::MonitorModel& model = checker.model();
  auto strategy = core::make_scenario_strategy(scenario, model);
  core::BudgetClock budget(scenario.budget_ms);
  return CellResult{checker.run_parallel(*strategy, budget, workers), scenario};
}

// Campaign cell for a bench approach. `bugs` overrides the scenario's bug
// selector with an explicit population (table 5 re-inserts one known bug
// per cell); nullopt keeps the "current" Table II population.
inline core::CampaignCellSpec make_cell(std::string approach, std::string personality,
                                        std::string workload,
                                        std::optional<fw::BugRegistry> bugs = std::nullopt,
                                        sim::SimTimeMs budget_ms = 7200 * 1000,
                                        std::uint64_t seed = 100,
                                        std::string environment = "calm") {
  core::CampaignCellSpec cell;
  cell.scenario.approach = std::move(approach);
  cell.scenario.personality = std::move(personality);
  cell.scenario.workload = std::move(workload);
  cell.scenario.environment = std::move(environment);
  cell.scenario.budget_ms = budget_ms;
  cell.scenario.seed = seed;
  cell.scenario.strategy_seed = seed + 7;
  cell.bugs_override = std::move(bugs);
  return cell;
}

// The full evaluation grid for a set of approaches: both firmware
// personalities x both default workloads per approach, in deterministic
// (approach, personality, workload) order — the iteration order the serial
// table benches used.
inline std::vector<core::CampaignCellSpec> evaluation_grid(
    const std::vector<std::string>& approaches, sim::SimTimeMs budget_ms = 7200 * 1000,
    std::uint64_t seed = 100) {
  std::vector<core::CampaignCellSpec> grid;
  for (const std::string& approach : approaches) {
    for (const std::string& personality : evaluation_personalities()) {
      for (const std::string& workload : evaluation_workloads()) {
        grid.push_back(make_cell(approach, personality, workload, std::nullopt, budget_ms,
                                 seed));
      }
    }
  }
  return grid;
}

// Run a grid with the default worker split. Table benches typically follow
// up with print_campaign_footer below.
inline core::CampaignResult run_campaign(const std::vector<core::CampaignCellSpec>& grid) {
  return core::CampaignRunner().run(grid);
}

inline void print_campaign_footer(std::ostream& os, const core::CampaignResult& result) {
  os << "\ncampaign: " << result.cells.size() << " cells, "
     << result.split.campaign_workers << " concurrent ("
     << result.split.experiment_workers << " experiment worker"
     << (result.split.experiment_workers == 1 ? "" : "s") << "/cell), "
     << result.total_experiments() << " simulations in "
     << result.wall_seconds << " s wall\n";
}

}  // namespace avis::bench
