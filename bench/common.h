// Shared driver for the evaluation benches (paper §VI).
//
// The evaluation (bench/paper_eval.cpp) runs the four approaches — Avis
// (SABRE), Stratified BFI, BFI, Random — against (personality, workload) pairs
// for a two-hour-equivalent budget and aggregates the unsafe conditions found.
// Approaches, personalities, workloads and environments are registry names
// (core/scenario.h): a bench describes its grid as a list of ScenarioSpec cells
// and runs it through core::CampaignRunner, which calibrates each scenario once
// (cells with the same prototype share one Checker) and shards those groups
// across the machine on top of the per-cell experiment pool; every cell report
// is bit-identical to a serial run of the cell on a fresh Checker
// (tests/test_oracle.cc).
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/scenario.h"
#include "util/table.h"

namespace avis::bench {

// The four paper approaches, in Table I/III row order.
inline std::vector<std::string> paper_approaches() {
  return {"avis", "stratified-bfi", "bfi", "random"};
}

// The two default evaluation workloads (paper §V-A).
inline std::vector<std::string> evaluation_workloads() {
  return {"box-manual", "fence-mission"};
}

inline std::vector<std::string> evaluation_personalities() { return {"ardupilot", "px4"}; }

// Campaign cell for a bench approach. `bugs` overrides the scenario's bug
// selector with an explicit population (Table V re-inserts one known bug
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
// (approach, personality, workload) order.
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

// Run a grid with the default worker split; benches follow up with
// print_campaign_footer below.
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
