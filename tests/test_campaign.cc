// Campaign-level parallel execution: a concurrent CampaignRunner run must
// produce cell reports bit-identical to a serial run_cell-style loop over
// the same grid, collected in deterministic grid order, regardless of the
// worker split (docs/PERFORMANCE.md, "Campaign-level parallelism").
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "baselines/random_injection.h"
#include "core/campaign.h"
#include "core/journal.h"
#include "core/sabre.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/checked.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace {

using namespace avis;

// Enough simulated budget for several SABRE waves per cell while keeping
// the whole grid quick.
constexpr sim::SimTimeMs kBudgetMs = 300 * 1000;

core::StrategyFactory sabre_factory() {
  return [](const core::MonitorModel& model, std::uint64_t) {
    return std::make_unique<core::SabreScheduler>(core::SimulationHarness::iris_suite(),
                                                  model.golden_transitions());
  };
}

core::StrategyFactory random_factory() {
  return [](const core::MonitorModel& model, std::uint64_t seed) {
    return std::make_unique<baselines::RandomInjection>(
        core::SimulationHarness::iris_suite(), model.profiling_duration_ms(), seed);
  };
}

std::vector<core::CampaignCellSpec> test_grid() {
  std::vector<core::CampaignCellSpec> grid;
  for (const char* workload : {"auto", "box-manual"}) {
    for (const bool avis_cell : {true, false}) {
      core::CampaignCellSpec spec;
      spec.scenario.approach = avis_cell ? "avis" : "random";
      spec.scenario.personality = "ardupilot";
      spec.scenario.workload = workload;
      spec.scenario.budget_ms = kBudgetMs;
      spec.scenario.seed = 100;
      spec.scenario.strategy_seed = 107;
      // Pin custom factories through the compatibility hook: the parity
      // contract must hold for non-registry strategies too.
      spec.make_strategy = avis_cell ? sabre_factory() : random_factory();
      grid.push_back(std::move(spec));
    }
  }
  return grid;
}

// The serial reference: the run_cell loop every table bench used before the
// campaign runner — one Checker, strategy, and budget per cell, run through
// the serial checker path, in grid order.
std::vector<core::CheckerReport> serial_reference(
    const std::vector<core::CampaignCellSpec>& grid) {
  std::vector<core::CheckerReport> reports;
  for (const auto& spec : grid) {
    core::Checker checker(core::scenario_prototype(spec.scenario));
    auto strategy = spec.make_strategy(checker.model(), spec.scenario.strategy_seed);
    core::BudgetClock budget(spec.scenario.budget_ms);
    reports.push_back(checker.run(*strategy, budget));
  }
  return reports;
}

TEST(WorkerBudget, SplitNeverOversubscribes) {
  for (int total = 1; total <= 16; ++total) {
    for (int cells = 1; cells <= 24; ++cells) {
      const util::WorkerBudget split = util::split_worker_budget(total, cells);
      EXPECT_GE(split.campaign_workers, 1);
      EXPECT_GE(split.experiment_workers, 1);
      EXPECT_LE(split.campaign_workers, cells);
      EXPECT_LE(split.campaign_workers * split.experiment_workers, std::max(total, 1))
          << "total=" << total << " cells=" << cells;
    }
  }
}

TEST(WorkerBudget, FavoursCellsThenExperiments) {
  // 8 workers, 4 cells: all four cells run concurrently with 2 experiment
  // workers each.
  const util::WorkerBudget split = util::split_worker_budget(8, 4);
  EXPECT_EQ(split.campaign_workers, 4);
  EXPECT_EQ(split.experiment_workers, 2);
  // More cells than workers: one worker per cell, serial experiments.
  const util::WorkerBudget wide = util::split_worker_budget(4, 16);
  EXPECT_EQ(wide.campaign_workers, 4);
  EXPECT_EQ(wide.experiment_workers, 1);
  // Degenerate inputs clamp instead of dividing by zero.
  const util::WorkerBudget degenerate = util::split_worker_budget(0, 0);
  EXPECT_EQ(degenerate.campaign_workers, 1);
  EXPECT_EQ(degenerate.experiment_workers, 1);
}

TEST(WorkerBudget, SingleSidedOverrideRederivesTheOtherHalf) {
  // Pinning one half of the split must not oversubscribe the budget: the
  // free half is re-derived from what the pinned one leaves over.
  core::CampaignOptions options;
  options.total_workers = 8;
  options.experiment_workers = 4;
  EXPECT_EQ(core::CampaignRunner(options).worker_split(16).campaign_workers, 2);

  core::CampaignOptions by_cells;
  by_cells.total_workers = 8;
  by_cells.cell_workers = 2;
  EXPECT_EQ(core::CampaignRunner(by_cells).worker_split(16).experiment_workers, 4);

  // Both pinned: the caller owns the thread count verbatim.
  core::CampaignOptions pinned;
  pinned.total_workers = 2;
  pinned.cell_workers = 3;
  pinned.experiment_workers = 2;
  const util::WorkerBudget split = core::CampaignRunner(pinned).worker_split(16);
  EXPECT_EQ(split.campaign_workers, 3);
  EXPECT_EQ(split.experiment_workers, 2);
}

TEST(Campaign, ConcurrentCellsMatchSerialRunCellLoop) {
  const auto grid = test_grid();
  const std::vector<core::CheckerReport> serial = serial_reference(grid);
  ASSERT_GE(serial[0].experiments, 3) << "budget too small to exercise the campaign";

  core::CampaignOptions options;
  options.cell_workers = 3;       // cells genuinely run concurrently
  options.experiment_workers = 2; // and each cell batches experiments too
  const core::CampaignResult result = core::CampaignRunner(options).run(grid);

  ASSERT_EQ(result.cells.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    // Deterministic grid order: cell i of the result is cell i of the grid,
    // no matter which finished first.
    EXPECT_EQ(result.cells[i].spec.scenario.approach, grid[i].scenario.approach);
    EXPECT_EQ(result.cells[i].spec.scenario.workload, grid[i].scenario.workload);
    avis::testing::expect_reports_equal(serial[i], result.cells[i].report);
  }
  EXPECT_EQ(result.split.campaign_workers, 3);
  EXPECT_EQ(result.split.experiment_workers, 2);
  EXPECT_GT(result.wall_seconds, 0.0);
  for (const auto& cell : result.cells) {
    EXPECT_GT(cell.wall_seconds, 0.0);
    EXPECT_GT(cell.experiments_per_sec(), 0.0);
    EXPECT_NE(cell.strategy, nullptr);
  }
}

TEST(Campaign, JsonReportCarriesPerCellMetrics) {
  auto grid = test_grid();
  grid.resize(2);
  core::CampaignOptions options;
  options.cell_workers = 2;
  options.experiment_workers = 1;
  const core::CampaignResult result = core::CampaignRunner(options).run(grid);
  const std::string json = core::campaign_report_json(result);

  EXPECT_NE(json.find("\"cells\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cell_workers\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"approach\": \"Avis\""), std::string::npos);
  EXPECT_NE(json.find("\"approach\": \"Random\""), std::string::npos);
  EXPECT_NE(json.find("\"experiments\": "), std::string::npos);
  EXPECT_NE(json.find("\"experiments_per_sec\": "), std::string::npos);
  EXPECT_NE(json.find("\"unsafe_count\": "), std::string::npos);
  EXPECT_NE(json.find("\"bug_first_found\": "), std::string::npos);
  EXPECT_NE(json.find("\"unsafe_by_bucket\": ["), std::string::npos);
  // Grid order is preserved in the report.
  EXPECT_LT(json.find("\"index\": 0"), json.find("\"index\": 1"));

  // The campaign header carries checkpoint totals, and they are exactly the
  // sums of the per-cell counters — the invariant a resumed campaign's merge
  // (docs/CRASH_SAFETY.md) is held to.
  const util::Json parsed = util::Json::parse(json);
  const util::Json& campaign = parsed.at("campaign");
  std::int64_t hits = 0, misses = 0, evicted = 0, skipped = 0;
  for (const util::Json& cell : parsed.at("cells").as_array()) {
    hits += cell.at("checkpoint_hits").as_int64();
    misses += cell.at("checkpoint_misses").as_int64();
    evicted += cell.at("checkpoint_evicted").as_int64();
    skipped += cell.at("checkpoint_skipped_ms").as_int64();
  }
  EXPECT_EQ(campaign.at("checkpoint_hits").as_int64(), hits);
  EXPECT_EQ(campaign.at("checkpoint_misses").as_int64(), misses);
  EXPECT_EQ(campaign.at("checkpoint_evicted").as_int64(), evicted);
  EXPECT_EQ(campaign.at("checkpoint_skipped_ms").as_int64(), skipped);
  EXPECT_EQ(campaign.at("checkpoint_hits").as_int64(), result.total_checkpoint_hits());
  EXPECT_EQ(campaign.at("checkpoint_skipped_ms").as_int64(),
            result.total_checkpoint_skipped_ms());
}

// Registry-named grid for the crash-safety tests: journal records identify
// cells by their serialized ScenarioSpec, so custom factories do not apply.
std::vector<core::CampaignCellSpec> journal_grid() {
  core::ScenarioGrid grid;
  grid.approaches = {"avis", "random"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"box-manual"};
  grid.environments = {"calm"};
  grid.budget_ms = 20000;
  grid.seed = 100;
  return core::expand_to_cells(grid);
}

// The tentpole contract: interrupt a journaled campaign partway, resume it
// from the journal, and the merged report is identical to an uninterrupted
// run — wall-clock fields aside (expect_campaign_results_equal masks them).
TEST(Campaign, ResumeFromJournalMatchesUninterruptedRun) {
  const auto grid = journal_grid();
  core::CampaignOptions base;
  base.cell_workers = 1;  // serial: should_stop cuts at a deterministic cell
  base.experiment_workers = 2;
  const core::CampaignResult reference = core::CampaignRunner(base).run(grid);

  const std::string path = ::testing::TempDir() + "avis_campaign_resume_" +
                           std::to_string(::getpid()) + ".jsonl";

  // First run: journal every completion, "SIGINT" after the first cell (the
  // stop callback is polled between cells; the first poll admits cell 0).
  {
    core::CampaignJournal journal = core::CampaignJournal::start(
        path, core::CampaignJournal::bind(grid, base.checkpoints));
    core::CampaignOptions first = base;
    first.journal = &journal;
    int polls = 0;
    first.should_stop = [&polls] { return polls++ >= 1; };
    const core::CampaignResult partial = core::CampaignRunner(first).run(grid);

    EXPECT_TRUE(partial.interrupted);
    ASSERT_EQ(partial.cells.size(), 1u);
    EXPECT_EQ(partial.cells[0].grid_index, 0);
    // The partial report says so, and keeps honest grid indices; the full
    // reference report carries no interrupted marker at all.
    const std::string partial_json = core::campaign_report_json(partial);
    EXPECT_NE(partial_json.find("\"interrupted\": true"), std::string::npos);
    EXPECT_NE(partial_json.find("\"index\": 0"), std::string::npos);
    EXPECT_EQ(core::campaign_report_json(reference).find("\"interrupted\""),
              std::string::npos);
  }

  // Resume: the journal binds this exact campaign, cell 0 is merged from the
  // journal (not re-run), and the rest complete.
  const auto loaded = core::CampaignJournal::load(path);
  EXPECT_FALSE(loaded.dropped_torn_record);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(core::CampaignJournal::header_diff(
                loaded.header,
                core::CampaignJournal::bind(grid, base.checkpoints), grid),
            "");

  core::CampaignJournal journal = core::CampaignJournal::append_to(path);
  core::CampaignOptions second = base;
  second.journal = &journal;
  second.resume = &loaded.cells;
  const core::CampaignResult resumed = core::CampaignRunner(second).run(grid);

  EXPECT_FALSE(resumed.interrupted);
  avis::testing::expect_campaign_results_equal(reference, resumed);
  ASSERT_EQ(resumed.cells.size(), grid.size());
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].grid_index, static_cast<int>(i));
  }

  // After the resumed run the journal holds the whole campaign: resuming
  // again would re-run nothing.
  const auto complete = core::CampaignJournal::load(path);
  EXPECT_EQ(complete.cells.size(), grid.size());
  std::filesystem::remove(path);
}

// A resume against a drifted grid must be refused before any simulation:
// merging cells from two different campaigns would be silent corruption.
TEST(Campaign, ResumeRefusesDriftedGrid) {
  const auto grid = journal_grid();
  const std::string path = ::testing::TempDir() + "avis_campaign_drift_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(grid, {}));
  }
  auto drifted_grid = journal_grid();
  drifted_grid[0].scenario.seed = 999;
  const auto loaded = core::CampaignJournal::load(path);
  const std::string diff = core::CampaignJournal::header_diff(
      loaded.header, core::CampaignJournal::bind(drifted_grid, {}), drifted_grid);
  EXPECT_NE(diff, "");
  EXPECT_NE(diff.find("cell 0"), std::string::npos) << diff;

  core::CheckpointConfig no_trees;
  no_trees.trees = false;
  EXPECT_NE(core::CampaignJournal::header_diff(
                loaded.header, core::CampaignJournal::bind(grid, no_trees), grid),
            "");
  std::filesystem::remove(path);
}

// Pooled path: with concurrent cell workers, a stop request still yields a
// valid partial (in-flight cells finish and are journaled; unstarted cells
// are skipped) that a resumed run completes to the identical full report.
TEST(Campaign, PooledInterruptThenResumeCompletesIdentically) {
  const auto grid = journal_grid();
  core::CampaignOptions base;
  base.cell_workers = 2;
  base.experiment_workers = 1;
  const core::CampaignResult reference = core::CampaignRunner(base).run(grid);

  const std::string path = ::testing::TempDir() + "avis_campaign_pooled_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    core::CampaignJournal journal = core::CampaignJournal::start(
        path, core::CampaignJournal::bind(grid, base.checkpoints));
    core::CampaignOptions first = base;
    first.journal = &journal;
    first.should_stop = [] { return true; };  // stop before anything starts
    const core::CampaignResult partial = core::CampaignRunner(first).run(grid);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_TRUE(partial.cells.empty());
  }

  const auto loaded = core::CampaignJournal::load(path);
  core::CampaignJournal journal = core::CampaignJournal::append_to(path);
  core::CampaignOptions second = base;
  second.journal = &journal;
  second.resume = &loaded.cells;
  const core::CampaignResult resumed = core::CampaignRunner(second).run(grid);
  EXPECT_FALSE(resumed.interrupted);
  avis::testing::expect_campaign_results_equal(reference, resumed);
  std::filesystem::remove(path);
}

TEST(Campaign, UnknownApproachFailsLoudly) {
  // A cell whose approach is not registered and that pins no custom
  // strategy factory must fail before any simulation runs, with the
  // registered-name listing.
  core::CampaignCellSpec broken;
  broken.scenario.approach = "broken";
  broken.scenario.budget_ms = 1000;
  try {
    core::CampaignRunner().run({broken});
    FAIL() << "expected UnknownNameError";
  } catch (const util::UnknownNameError& err) {
    EXPECT_NE(std::string(err.what()).find("registered approach"), std::string::npos)
        << err.what();
  }
}

}  // namespace
