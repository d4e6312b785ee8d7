// The benchmark's instrument must not perturb the search: a grid run with
// every cell's strategy wrapped in the probing decorator reports exactly what
// the undecorated grid reports, masking only wall-clock and provenance fields
// (tests/test_helpers.h, expect_campaign_results_equal).
//
//   cmake -S campaignbench -B .bench_build
//   cmake --build .bench_build -j 4 --target campaignbench_identity_test
//   .bench_build/campaignbench_identity_test
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "probe.h"
#include "test_helpers.h"

namespace avis::campaignbench {
namespace {

std::vector<core::CampaignCellSpec> small_grid() {
  const auto cell = [](const char* approach, const char* personality, const char* workload,
                       const char* environment) {
    core::CampaignCellSpec c;
    c.scenario.approach = approach;
    c.scenario.personality = personality;
    c.scenario.workload = workload;
    c.scenario.environment = environment;
    c.scenario.budget_ms = 600 * 1000;
    c.scenario.seed = 100;
    c.scenario.strategy_seed = 107;
    return c;
  };
  return {cell("avis", "ardupilot", "box-manual", "calm"),
          cell("stratified-bfi", "px4", "fence-mission", "calm"),
          cell("random", "px4", "auto", "breeze")};
}

core::CampaignResult run_grid(std::vector<core::CampaignCellSpec> grid,
                              std::vector<std::unique_ptr<CellProbe>>* probes, bool traced,
                              int experiment_workers) {
  if (probes != nullptr) {
    for (core::CampaignCellSpec& cell : grid) {
      probes->push_back(std::make_unique<CellProbe>());
      probes->back()->traced = traced;
      install_probe(cell, *probes->back());
    }
  }
  core::CampaignOptions options;
  options.total_workers = 4;
  options.cell_workers = 2;
  options.experiment_workers = experiment_workers;
  return core::CampaignRunner(options).run(grid);
}

// Serial cells go through Checker::run, pooled ones through run_parallel.
class DecoratorIdentity : public ::testing::TestWithParam<int> {};

TEST_P(DecoratorIdentity, DecoratedReportsEqualUndecorated) {
  const int workers = GetParam();
  const core::CampaignResult plain = run_grid(small_grid(), nullptr, false, workers);
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    std::vector<std::unique_ptr<CellProbe>> probes;
    const core::CampaignResult tapped = run_grid(small_grid(), &probes, traced, workers);
    avis::testing::expect_campaign_results_equal(plain, tapped);
    for (std::size_t i = 0; i < tapped.cells.size(); ++i) {
      const CellProbe& probe = *probes[i];
      EXPECT_GT(probe.built_ns, 0);
      EXPECT_GE(probe.first_request_ns, probe.built_ns);
      EXPECT_GE(probe.last_call_ns, probe.first_request_ns);
      EXPECT_EQ(probe.first_found_ns.size(), tapped.cells[i].report.bug_first_found.size());
      if (traced) {
        EXPECT_EQ(static_cast<int>(probe.applied_plans.size()),
                  tapped.cells[i].report.experiments);
        ASSERT_TRUE(probe.model.has_value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, DecoratorIdentity, ::testing::Values(1, 2));

TEST(TappedStrategy, ForwardsIdentityCalls) {
  const core::CampaignCellSpec cell = small_grid().front();
  core::Checker checker(core::scenario_prototype(cell.scenario));
  const core::MonitorModel& model = checker.model();
  CellProbe probe;
  const TappedStrategy tapped(core::make_scenario_strategy(cell.scenario, model), probe);
  const auto inner = core::make_scenario_strategy(cell.scenario, model);
  EXPECT_STREQ(tapped.name(), inner->name());
  EXPECT_EQ(tapped.chain_extension_limit(), inner->chain_extension_limit());
}

}  // namespace
}  // namespace avis::campaignbench
