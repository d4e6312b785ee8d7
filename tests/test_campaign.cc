// Campaign-level execution (docs/PERFORMANCE.md, "Campaign-level
// parallelism"): the JSON report, refusing a resume against a drifted grid,
// loud failures for unknown approaches, which cells share a calibration,
// and the one pool every group and experiment runs on. That every cell reports what a fresh serial
// run of it reports — at any split, grouped, interrupted or resumed — is
// the differential oracle's (tests/test_oracle.cc).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>

#include "core/campaign.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/checked.h"
#include "util/json.h"
#include "workload/registry.h"

namespace {

using namespace avis;

// Enough simulated budget for several SABRE waves per cell while keeping
// the whole grid quick.
constexpr sim::SimTimeMs kBudgetMs = 300 * 1000;

// Avis and Random on "auto", through the custom-factory hook.
std::vector<core::CampaignCellSpec> test_grid() {
  std::vector<core::CampaignCellSpec> grid;
  for (const bool avis_cell : {true, false}) {
    core::CampaignCellSpec spec;
    spec.scenario.approach = avis_cell ? "avis" : "random";
    spec.scenario.personality = "ardupilot";
    spec.scenario.workload = "auto";
    spec.scenario.budget_ms = kBudgetMs;
    spec.scenario.seed = 100;
    spec.scenario.strategy_seed = 107;
    spec.make_strategy = avis_cell ? avis::testing::sabre_factory()
                                   : avis::testing::random_factory();
    grid.push_back(std::move(spec));
  }
  return grid;
}

TEST(Campaign, JsonReportCarriesPerCellMetrics) {
  const auto grid = test_grid();
  core::CampaignOptions options;
  options.cell_workers = 2;
  options.experiment_workers = 1;
  const core::CampaignResult result = core::CampaignRunner(options).run(grid);
  const std::string json = core::campaign_report_json(result);

  EXPECT_NE(json.find("\"cells\": 2"), std::string::npos);
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

  core::CheckpointConfig coarser;
  coarser.interval_ms = 2000;
  EXPECT_NE(core::CampaignJournal::header_diff(
                loaded.header, core::CampaignJournal::bind(grid, coarser), grid),
            "");
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

// --- Calibration groups ----------------------------------------------------

// Blocks until `count` callers arrived, or a minute passed: a grouping bug
// then fails the assertions instead of hanging the test.
class Rendezvous {
 public:
  explicit Rendezvous(int count) : waiting_(count) {}
  void arrive_and_wait() {
    std::unique_lock lock(mutex_);
    if (--waiting_ <= 0) cv_.notify_all();
    cv_.wait_for(lock, std::chrono::minutes(1), [this] { return waiting_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_;
};

// Wraps a factory to record which MonitorModel object the cell was built
// against; `meet`, when set, holds the cell until every group's first cell
// has its model, so all those Checkers are alive at once and their models
// cannot share an address by reuse.
core::StrategyFactory recording(core::StrategyFactory inner, const core::MonitorModel** seen,
                                Rendezvous* meet) {
  return [inner = std::move(inner), seen, meet](const core::MonitorModel& model,
                                                 std::uint64_t seed) {
    *seen = &model;
    if (meet != nullptr) meet->arrive_and_wait();
    return inner(model, seed);
  };
}

// Avis and Random cells on one scenario (cells 0, 1 and 5 share a prototype;
// cell 5 also differs in budget and constraints, which the key leaves out),
// plus near misses that must calibrate alone: another seed, another
// environment, and a re-inserted bug population.
std::vector<core::CampaignCellSpec> group_grid() {
  std::vector<core::CampaignCellSpec> grid = test_grid();
  grid.push_back(grid[0]);
  grid.back().scenario.seed = 101;
  grid.push_back(grid[1]);
  grid.back().scenario.environment = "breeze";
  grid.push_back(grid[0]);
  grid.back().scenario.bugs = "current+APM-5428";
  grid.push_back(grid[1]);
  grid.back().scenario.budget_ms = kBudgetMs / 2;
  grid.back().scenario.constraints.window_start_ms = 5000;
  return grid;
}

TEST(Campaign, SamePrototypeCellsShareOneCalibration) {
  auto grid = group_grid();
  const auto key = [](const core::CampaignCellSpec& cell) { return core::prototype_key(cell); };
  EXPECT_EQ(key(grid[0]), key(grid[1]));
  EXPECT_EQ(key(grid[0]), key(grid[5]));
  for (const std::size_t miss : {2, 3, 4}) EXPECT_NE(key(grid[0]), key(grid[miss])) << miss;
  // A re-inserted-bug selector is the current population plus its bug.
  std::vector<fw::BugId> reinserted = key(grid[0]).bugs;
  reinserted.push_back(fw::BugId::kApm5428);
  std::sort(reinserted.begin(), reinserted.end());
  EXPECT_EQ(key(grid[4]).bugs, reinserted);

  // Four groups, each first cell (0, 2, 3, 4) on its own pool thread.
  std::vector<const core::MonitorModel*> seen(grid.size(), nullptr);
  Rendezvous meet(4);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool first = i == 0 || i == 2 || i == 3 || i == 4;
    grid[i].make_strategy =
        recording(grid[i].make_strategy, &seen[i], first ? &meet : nullptr);
  }
  core::CampaignOptions options;
  options.total_workers = 4;
  options.cell_workers = 4;
  options.experiment_workers = 1;
  const core::CampaignResult result = core::CampaignRunner(options).run(grid);
  ASSERT_EQ(result.cells.size(), grid.size());
  for (const auto* model : seen) ASSERT_NE(model, nullptr);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[5]);
  for (const std::size_t miss : {2, 3, 4}) EXPECT_NE(seen[0], seen[miss]) << miss;
  EXPECT_NE(seen[2], seen[3]);
  EXPECT_NE(seen[2], seen[4]);
  EXPECT_NE(seen[3], seen[4]);
}

// A typo in a group's *second* cell must throw before the group runs a
// single simulation: the counting workload below sees every one of them.
std::atomic<int> g_counted_workloads{0};

TEST(Campaign, UnknownApproachInGroupFailsBeforeProfiling) {
  auto& workloads = workload::workload_registry();
  if (!workloads.contains("counted-box-manual")) {
    workloads.add("counted-box-manual", "box-manual, counting constructions", [] {
      g_counted_workloads.fetch_add(1);
      return workload::workload_registry().at("box-manual").factory();
    });
  }
  auto grid = journal_grid();  // avis, random on one scenario
  for (auto& cell : grid) cell.scenario.workload = "counted-box-manual";
  ASSERT_EQ(core::prototype_key(grid[0]), core::prototype_key(grid[1]));
  grid[1].scenario.approach = "broken";
  for (const int cell_workers : {1, 2}) {
    g_counted_workloads = 0;
    core::CampaignOptions options;
    options.cell_workers = cell_workers;
    options.experiment_workers = 1;
    EXPECT_THROW(core::CampaignRunner(options).run(grid), util::UnknownNameError);
    EXPECT_EQ(g_counted_workloads.load(), 0) << "cell_workers " << cell_workers;
  }
  // Control: the counter does see the group's simulations once it runs.
  grid[1].scenario.approach = "random";
  core::CampaignRunner().run(grid);
  EXPECT_GT(g_counted_workloads.load(), 3);
}

// --- The campaign's pool ---------------------------------------------------

// The threads of every simulation: the workload is constructed on the
// thread that runs it. A thread-local serial, unlike std::thread::id, is
// never reused by a later thread.
std::mutex g_threads_mutex;
std::set<int> g_simulation_threads;
std::atomic<int> g_thread_serials{0};

int thread_serial() {
  thread_local const int serial = g_thread_serials.fetch_add(1);
  return serial;
}

// Three calibration groups (calm, breeze, gusty) of one cell each, on a
// box-manual workload that records its threads.
std::vector<core::CampaignCellSpec> recorded_grid() {
  auto& workloads = workload::workload_registry();
  if (!workloads.contains("threads-box-manual")) {
    workloads.add("threads-box-manual", "box-manual, recording its threads", [] {
      {
        std::lock_guard lock(g_threads_mutex);
        g_simulation_threads.insert(thread_serial());
      }
      return workload::workload_registry().at("box-manual").factory();
    });
  }
  core::ScenarioGrid grid;
  grid.approaches = {"avis"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"threads-box-manual"};
  grid.environments = {"calm", "breeze", "gusty"};
  grid.budget_ms = 60000;
  return core::expand_to_cells(grid);
}

// One group at a time with requests sized for 4 experiments: every
// group's profiling runs and experiments share the campaign's 4 threads.
TEST(Campaign, SimulationsRunOnTheCampaignPool) {
  const auto grid = recorded_grid();
  {
    std::lock_guard lock(g_threads_mutex);
    g_simulation_threads.clear();
  }
  core::CampaignOptions options;
  options.total_workers = 4;
  options.cell_workers = 1;
  options.experiment_workers = 4;
  const core::CampaignResult result = core::CampaignRunner(options).run(grid);
  ASSERT_EQ(result.cells.size(), 3u);
  std::lock_guard lock(g_threads_mutex);
  EXPECT_LE(g_simulation_threads.size(), 4u + 1u) << "threads outside the campaign's pool";
}

// Marks, per thread, the strategy whose request is in flight there. A group
// started inside another group's wait would issue its own request on that
// thread before the waiting group's feedback arrives.
thread_local const core::InjectionStrategy* t_request_owner = nullptr;
std::atomic<int> g_nested_requests{0};

class NestingProbe final : public core::InjectionStrategy {
 public:
  explicit NestingProbe(std::unique_ptr<core::InjectionStrategy> inner)
      : inner_(std::move(inner)) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    return inner_->next(budget);
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    t_request_owner = this;
    return inner_->next_batch(budget, max_plans);
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    if (t_request_owner != this) g_nested_requests.fetch_add(1);
    inner_->feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_->chain_extension_limit(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::InjectionStrategy> inner_;
};

// Fewer threads than groups, so every thread runs groups and every wait
// runs queued experiments: none of them may start another group.
TEST(Campaign, GroupsNeverNestOnOneThread) {
  auto grid = group_grid();  // 4 groups
  for (auto& cell : grid) {
    cell.make_strategy = [inner = cell.make_strategy](const core::MonitorModel& model,
                                                      std::uint64_t seed) {
      return std::make_unique<NestingProbe>(inner(model, seed));
    };
  }
  for (const int total : {1, 2}) {
    g_nested_requests = 0;
    core::CampaignOptions options;
    options.total_workers = total;
    options.experiment_workers = 3;  // pooled even on one thread
    const core::CampaignResult result = core::CampaignRunner(options).run(grid);
    ASSERT_EQ(result.cells.size(), grid.size());
    EXPECT_EQ(g_nested_requests.load(), 0) << "total_workers " << total;
  }
}

}  // namespace
