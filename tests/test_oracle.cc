// The differential oracle: every execution mode reports what Algorithm 1's
// serial loop reports (arXiv 2106.14959) — propose one plan, simulate it,
// feed the result back.
//
// One table of rows over one small grid. A row is one combination of
// execution mode (Checker::run on a reused Checker, CampaignRunner, a
// journaled campaign then --resume, a campaign read back from its dumped
// ScenarioGrid document), checkpoint config, pool size and caps (groups in
// progress x experiment width) and interruption (a stop request at three
// points, a strategy or a workload throwing mid-request, in a campaign
// while other groups share the pool). One function, run_row, runs
// every row, and its cell reports must equal, field for field and checkpoint
// counters included, one reference per (cell, checkpoint config): the cell
// run one plan per request — every plan proposed after the feedback of all
// earlier ones — serially on a fresh Checker. Only where two checkpoint
// configs' references are compared are the counters masked
// (mask_checkpoint_counters); each config's counters are then held to that
// config's own invariants.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/thread_pool.h"
#include "workload/registry.h"

namespace {

using namespace avis;
using avis::testing::expect_campaign_results_equal;
using avis::testing::mask_checkpoint_counters;

// --- The grid ---------------------------------------------------------------

// Room for several SABRE waves.
constexpr sim::SimTimeMs kRoomyMs = 600 * 1000;
// Runs out in the middle of a request at every worker count above 1
// (drive_checker asserts it), so the in-flight remainder is discarded.
constexpr sim::SimTimeMs kMidRequestMs = 250 * 1000;
constexpr sim::SimTimeMs kCustomMs = 300 * 1000;
constexpr sim::SimTimeMs kTinyMs = 20 * 1000;

// A registered workload whose factory throws once armed, so an experiment
// fails inside its pool task. Registration is idempotent.
std::atomic<bool> g_workload_armed{false};
constexpr const char* kArmedWorkload = "oracle-armed-box-manual";

void register_armed_workload() {
  auto& workloads = workload::workload_registry();
  if (workloads.contains(kArmedWorkload)) return;
  workloads.add(kArmedWorkload, "box-manual whose construction throws once armed", [] {
    if (g_workload_armed.load()) throw std::runtime_error("armed workload");
    return workload::workload_registry().at("box-manual").factory();
  });
}

// Grid indices. The document part comes first, in ScenarioGrid::expand order;
// the custom cells after it carry a make_strategy factory, which a document
// cannot express.
enum Cell : std::size_t {
  // The product: SABRE on both personalities x both paper workloads.
  kSabreApAuto, kSabreApBox, kSabrePxAuto, kSabrePxBox,
  // The explicit scenarios.
  kShortApAuto, kShortApBox, kShortPxAuto, kShortPxBox,
  kRandom, kBfi215, kBfi300, kBfi605, kStratifiedBfi,
  kTinyAvisBox, kTinyAvisAuto, kTinyRandomBox, kTinyRandomAuto,
  kArmed,
  kDocumentCells,
  kCustomSabreAuto = kDocumentCells, kCustomRandomAuto, kCustomSabreBox, kCustomRandomBox,
  // Near misses of kCustomSabreAuto's calibration group.
  kMissSeed, kMissBreeze, kMissBugs, kMissWindow,
};

const std::vector<std::size_t> kSabreCells = {kSabreApAuto, kSabreApBox, kSabrePxAuto,
                                              kSabrePxBox,  kShortApAuto, kShortApBox,
                                              kShortPxAuto, kShortPxBox};
const std::vector<std::size_t> kBaselineCells = {kRandom, kBfi215, kBfi300, kBfi605,
                                                 kStratifiedBfi};
// One calibration group ({kCustomSabreAuto, kCustomRandomAuto, kMissWindow})
// and its near misses, which calibrate alone.
const std::vector<std::size_t> kGroupCells = {kCustomSabreAuto, kCustomRandomAuto, kMissSeed,
                                              kMissBreeze,      kMissBugs,         kMissWindow};
// Groups {kTinyAvisBox, kTinyRandomBox} and {kTinyAvisAuto, kTinyRandomAuto}.
const std::vector<std::size_t> kTinyCells = {kTinyAvisBox, kTinyAvisAuto, kTinyRandomBox,
                                             kTinyRandomAuto};

core::ScenarioGrid document() {
  register_armed_workload();
  core::ScenarioGrid grid;
  grid.approaches = {"avis"};
  grid.personalities = {"ardupilot", "px4"};
  grid.workloads = {"auto", "box-manual"};
  grid.budget_ms = kRoomyMs;
  const auto add = [&grid](const char* approach, const char* personality,
                           const char* workload, sim::SimTimeMs budget_ms,
                           std::uint64_t strategy_seed = 107) {
    core::ScenarioSpec spec;
    spec.approach = approach;
    spec.personality = personality;
    spec.workload = workload;
    spec.budget_ms = budget_ms;
    spec.strategy_seed = strategy_seed;
    grid.scenarios.push_back(spec);
  };
  for (const char* personality : {"ardupilot", "px4"}) {
    for (const char* workload : {"auto", "box-manual"}) {
      add("avis", personality, workload, kMidRequestMs);
    }
  }
  add("random", "ardupilot", "auto", kRoomyMs, 42);
  // BFI charges 10 s per label while proposing: the campaign ends at
  // different points of the label/experiment interleaving.
  for (const sim::SimTimeMs budget_ms : {215000, 300000, 605000}) {
    add("bfi", "ardupilot", "auto", budget_ms, 7);
  }
  add("stratified-bfi", "ardupilot", "auto", kRoomyMs);
  // Two calibration groups of two: {box-manual} and {auto}.
  for (const char* approach : {"avis", "random"}) {
    for (const char* workload : {"box-manual", "auto"}) {
      add(approach, "ardupilot", workload, kTinyMs);
    }
  }
  add("avis", "ardupilot", kArmedWorkload, kMidRequestMs);
  return grid;
}

const std::vector<core::CampaignCellSpec>& grid() {
  static const std::vector<core::CampaignCellSpec> cells = [] {
    std::vector<core::CampaignCellSpec> cells = core::expand_to_cells(document());
    for (const char* workload : {"auto", "box-manual"}) {
      for (const bool sabre : {true, false}) {
        core::CampaignCellSpec cell;
        cell.scenario.approach = sabre ? "avis" : "random";
        cell.scenario.workload = workload;
        cell.scenario.budget_ms = kCustomMs;
        cell.make_strategy =
            sabre ? avis::testing::sabre_factory() : avis::testing::random_factory();
        cells.push_back(std::move(cell));
      }
    }
    const core::CampaignCellSpec sabre = cells[kCustomSabreAuto];
    const core::CampaignCellSpec random = cells[kCustomRandomAuto];
    cells.push_back(sabre);
    cells.back().scenario.seed = 101;
    cells.push_back(random);
    cells.back().scenario.environment = "breeze";
    cells.push_back(sabre);
    cells.back().scenario.bugs = "current+APM-5428";
    // Budget and constraints are outside the prototype: this one groups.
    cells.push_back(random);
    cells.back().scenario.budget_ms = kCustomMs / 2;
    cells.back().scenario.constraints.window_start_ms = 5000;
    return cells;
  }();
  return cells;
}

std::unique_ptr<core::InjectionStrategy> strategy_of(const core::CampaignCellSpec& cell,
                                                     const core::MonitorModel& model) {
  return cell.make_strategy ? cell.make_strategy(model, cell.scenario.strategy_seed)
                            : core::make_scenario_strategy(cell.scenario, model);
}

// --- Checkpoint configs -----------------------------------------------------

enum class Config { kDefault, kOff, kBudget512K, kBudget16K };

core::CheckpointConfig checkpoint_config(Config config) {
  core::CheckpointConfig checkpoints;
  switch (config) {
    case Config::kDefault: break;
    case Config::kOff: checkpoints.enabled = false; break;
    // Tree recordings churn behind the root.
    case Config::kBudget512K: checkpoints.byte_budget = 512 * 1024; break;
    // Too small for the root: evicted when built, every run starts cold.
    case Config::kBudget16K: checkpoints.byte_budget = 16 * 1024; break;
  }
  return checkpoints;
}

// --- The strategy probe -----------------------------------------------------

// Forwards to a cell's strategy and counts the plans it hands out: more
// proposed than applied means a request was cut short by the budget. With
// `one_at_a_time` every request is a single next() — the reference's
// execution. With `throw_at` > 0 the throw_at-th feedback call throws.
class Probe final : public core::InjectionStrategy {
 public:
  Probe(std::unique_ptr<core::InjectionStrategy> inner, bool one_at_a_time, int throw_at = 0)
      : inner_(std::move(inner)), one_at_a_time_(one_at_a_time), throw_at_(throw_at) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    auto plan = inner_->next(budget);
    if (plan) ++proposed_;
    return plan;
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    if (one_at_a_time_) return InjectionStrategy::next_batch(budget, std::min(max_plans, 1));
    auto plans = inner_->next_batch(budget, max_plans);
    proposed_ += static_cast<int>(plans.size());
    return plans;
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    if (++feedbacks_ == throw_at_) throw std::runtime_error("feedback failed");
    inner_->feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_->chain_extension_limit(); }
  const char* name() const override { return inner_->name(); }

  int proposed() const { return proposed_; }

 private:
  std::unique_ptr<core::InjectionStrategy> inner_;
  bool one_at_a_time_;
  int throw_at_;
  int proposed_ = 0;
  int feedbacks_ = 0;
};

// --- The rows ---------------------------------------------------------------

enum class Mode {
  kChecker,   // Checker::run, one Checker per (prototype, config) shared by the rows
  kCampaign,  // CampaignRunner::run
  kResume,    // a journaled CampaignRunner::run, then a run resumed from the journal
  kDocument,  // CampaignRunner::run over the grid's dumped, reparsed document
};

enum class Interruption {
  kNone,
  kStopAfterFirstCell,  // should_stop admits one cell
  kStopBeforeStart,     // should_stop admits nothing
  kStopInsideGroup,     // should_stop admits each group's first cell
  kFeedbackThrows,      // a failed run first: feedback throws mid-request
  kWorkloadThrows,      // a failed run first: the workload factory throws
};

struct Row {
  const char* name;
  Mode mode;
  Config config;
  int total;           // pool size: the campaign's, or a kChecker row's Checker's
  int cell_cap;        // campaign modes: CampaignOptions::cell_workers
  int experiment_cap;  // campaign modes: CampaignOptions::experiment_workers
  Interruption interruption;
  std::vector<std::size_t> cells;
};

const std::vector<Row>& rows() {
  using enum Mode;
  using enum Config;
  using enum Interruption;
  static const std::vector<Row> table = {
      // First on each SABRE prototype: its Checker profiles on a pool.
      {"sabre_w4", kChecker, kDefault, 4, 0, 0, kNone, kSabreCells},
      {"sabre_w1", kChecker, kDefault, 1, 0, 0, kNone, {kSabreApAuto, kShortPxBox}},
      {"sabre_w2", kChecker, kDefault, 2, 0, 0, kNone, {kSabreApBox, kShortPxAuto}},
      {"sabre_w3", kChecker, kDefault, 3, 0, 0, kNone, {kSabrePxAuto, kShortApBox}},
      {"sabre_w8", kChecker, kDefault, 8, 0, 0, kNone, {kSabrePxBox, kShortApAuto}},
      {"baselines_w4", kChecker, kDefault, 4, 0, 0, kNone, kBaselineCells},
      {"baselines_w1", kChecker, kDefault, 1, 0, 0, kNone, kBaselineCells},
      {"checkpoints_off_w3", kChecker, kOff, 3, 0, 0, kNone, {kSabreApAuto}},
      {"budget_512k_w2", kChecker, kBudget512K, 2, 0, 0, kNone, {kCustomSabreAuto}},
      {"feedback_throws_w1", kChecker, kDefault, 1, 0, 0, kFeedbackThrows, {kShortApBox}},
      {"feedback_throws_w4", kChecker, kDefault, 4, 0, 0, kFeedbackThrows, {kShortApBox}},
      {"workload_throws_w1", kChecker, kDefault, 1, 0, 0, kWorkloadThrows, {kArmed}},
      {"workload_throws_w4", kChecker, kDefault, 4, 0, 0, kWorkloadThrows, {kArmed}},
      {"custom_factories_t6_3x2", kCampaign, kDefault, 6, 3, 2, kNone,
       {kCustomSabreAuto, kCustomRandomAuto, kCustomSabreBox, kCustomRandomBox}},
      {"groups_t1_1x1", kCampaign, kDefault, 1, 1, 1, kNone, kGroupCells},
      {"groups_t3_3x1", kCampaign, kDefault, 3, 3, 1, kNone, kGroupCells},
      // Fewer threads than groups: groups wait on experiments that the
      // pool's other groups, or the waiting thread itself, run.
      {"groups_t2_uncapped", kCampaign, kDefault, 2, 0, 0, kNone, kGroupCells},
      {"three_groups_t1_uncapped", kCampaign, kDefault, 1, 0, 0, kNone,
       {kCustomSabreAuto, kCustomSabreBox, kMissSeed}},
      {"three_groups_t1_x3", kCampaign, kDefault, 1, 0, 3, kNone,
       {kCustomSabreAuto, kCustomSabreBox, kMissSeed}},
      // One group fails while another shares the pool.
      {"group_feedback_throws_t2", kCampaign, kDefault, 2, 0, 0, kFeedbackThrows,
       {kShortApBox, kShortPxAuto}},
      {"group_workload_throws_t2", kCampaign, kDefault, 2, 0, 0, kWorkloadThrows,
       {kArmed, kShortPxAuto}},
      {"groups_budget_16k_t1_1x1", kCampaign, kBudget16K, 1, 1, 1, kNone,
       {kCustomSabreAuto, kCustomRandomAuto}},
      {"document_t1_1x1", kDocument, kDefault, 1, 1, 1, kNone, {kSabreApAuto, kRandom}},
      // Every report read back from the journal, unsafe records included.
      {"journal_round_trip_t2_1x2", kResume, kDefault, 2, 1, 2, kNone, {kSabreApAuto}},
      {"stop_after_first_cell_t2_1x2", kResume, kDefault, 2, 1, 2, kStopAfterFirstCell,
       kTinyCells},
      {"stop_before_start_t2_2x1", kResume, kDefault, 2, 2, 1, kStopBeforeStart, kTinyCells},
      {"stop_inside_group_t2_2x1", kResume, kDefault, 2, 2, 1, kStopInsideGroup, kTinyCells},
  };
  return table;
}

// --- The references ---------------------------------------------------------

struct Reference {
  core::CheckerReport report;
  int proposed = 0;            // plans the strategy handed out
  bool root_survives = false;  // the store still holds the root after the run
  core::MonitorModel model;    // serially profiled
};

Reference run_reference(std::size_t index, Config config) {
  const core::CampaignCellSpec& cell = grid()[index];
  core::Checker checker(core::scenario_prototype(cell.scenario), checkpoint_config(config));
  Probe strategy(strategy_of(cell, checker.model()), /*one_at_a_time=*/true);
  core::BudgetClock budget(cell.scenario.budget_ms);
  Reference reference{checker.run(strategy, budget), strategy.proposed(), false,
                      checker.model()};
  const core::CheckpointStore* store = checker.checkpoint_store();
  reference.root_survives = store != nullptr && store->root_size() > 0;
  return reference;
}

using ReferenceKey = std::pair<std::size_t, Config>;

// Every reference the rows need — each row's (cell, config), plus the
// default config's for each of those cells — computed once, four at a time:
// each is still its own serial run on its own fresh Checker.
const std::map<ReferenceKey, Reference>& references() {
  static const std::map<ReferenceKey, Reference> book = [] {
    std::set<ReferenceKey> keys;
    for (const Row& row : rows()) {
      for (std::size_t index : row.cells) {
        keys.insert({{index, row.config}, {index, Config::kDefault}});
      }
    }
    util::ThreadPool pool(4);
    std::vector<std::pair<ReferenceKey, std::future<Reference>>> runs;
    for (const ReferenceKey& key : keys) {
      runs.emplace_back(key, pool.submit([key] { return run_reference(key.first, key.second); }));
    }
    std::map<ReferenceKey, Reference> computed;
    for (auto& [key, run] : runs) computed.emplace(key, run.get());
    return computed;
  }();
  return book;
}

const Reference& reference(std::size_t index, Config config) {
  return references().at({index, config});
}

core::CampaignResult expected_campaign(const Row& row) {
  core::CampaignResult expected;
  for (std::size_t index : row.cells) {
    core::CampaignCellResult& cell = expected.cells.emplace_back();
    cell.spec = grid()[index];
    cell.report = reference(index, row.config).report;
  }
  return expected;
}

// --- Running a row ----------------------------------------------------------

// Profiling on the pool calibrates in seed order: the model must equal the
// serial one field for field.
void expect_models_equal(const core::MonitorModel& serial, const core::MonitorModel& pooled) {
  using avis::testing::sample_fields;
  EXPECT_EQ(serial.tau(), pooled.tau());
  EXPECT_EQ(serial.max_position_spread(), pooled.max_position_spread());
  EXPECT_EQ(serial.max_accel_spread(), pooled.max_accel_spread());
  EXPECT_EQ(serial.profiling_duration_ms(), pooled.profiling_duration_ms());
  EXPECT_EQ(serial.max_home_distance(), pooled.max_home_distance());
  avis::testing::expect_results_identical(serial.golden_run(), pooled.golden_run(), "golden");
  ASSERT_EQ(serial.profiling_run_count(), pooled.profiling_run_count());
  for (std::size_t run = 0; run < serial.profiling_run_count(); ++run) {
    for (sim::SimTimeMs t = 0; t <= serial.profiling_duration_ms(); t += core::kSamplePeriodMs) {
      EXPECT_EQ(sample_fields(serial.profiling_state(run, t)),
                sample_fields(pooled.profiling_state(run, t)))
          << "run " << run << " t=" << t;
    }
  }
}

// The kChecker rows' pools, one per size, kept for the whole test: a
// Checker borrows its pool, and the cached Checkers outlive each row.
util::ThreadPool* checker_pool(int workers) {
  static std::map<int, std::unique_ptr<util::ThreadPool>> pools;
  auto& pool = pools[workers];
  if (!pool) pool = std::make_unique<util::ThreadPool>(workers);
  return pool.get();
}

// One Checker per (prototype, config), shared by every kChecker row, so
// cells run back to back on it across pool sizes and failed runs. A new
// one gets its pool before model(): its profiling fans out at sizes > 1.
core::Checker& shared_checker(std::size_t index, const Row& row) {
  static std::map<std::pair<core::PrototypeKey, Config>, std::unique_ptr<core::Checker>> cache;
  const core::CampaignCellSpec& cell = grid()[index];
  auto& checker = cache[{core::prototype_key(cell), row.config}];
  const bool fresh = !checker;
  if (fresh) {
    checker = std::make_unique<core::Checker>(core::scenario_prototype(cell.scenario),
                                              checkpoint_config(row.config));
  }
  checker->use_pool(checker_pool(row.total));
  if (fresh) expect_models_equal(reference(index, Config::kDefault).model, checker->model());
  return *checker;
}

// A run that fails part-way must reach the caller; drive_checker then runs
// the same Checker again with a fresh strategy and budget.
void expect_failed_run(core::Checker& checker, const core::CampaignCellSpec& cell,
                       Interruption interruption) {
  core::BudgetClock budget(cell.scenario.budget_ms);
  if (interruption == Interruption::kFeedbackThrows) {
    Probe failing(strategy_of(cell, checker.model()), false, /*throw_at=*/3);
    EXPECT_THROW(checker.run(failing, budget), std::runtime_error);
    EXPECT_GT(failing.proposed(), 3) << "no plan was in flight when feedback threw";
  } else {
    checker.checkpoint_store();  // model() and the root come before the arming
    Probe strategy(strategy_of(cell, checker.model()), false);
    g_workload_armed = true;
    EXPECT_THROW(checker.run(strategy, budget), std::runtime_error);
    g_workload_armed = false;
  }
}

core::CampaignResult drive_checker(const Row& row) {
  core::CampaignResult result;
  for (std::size_t index : row.cells) {
    const core::CampaignCellSpec& spec = grid()[index];
    core::Checker& checker = shared_checker(index, row);
    if (row.interruption != Interruption::kNone) {
      expect_failed_run(checker, spec, row.interruption);
    }
    Probe strategy(strategy_of(spec, checker.model()), false);
    core::BudgetClock budget(spec.scenario.budget_ms);
    core::CampaignCellResult& cell = result.cells.emplace_back();
    cell.spec = spec;
    cell.report = checker.run(strategy, budget);
    if (spec.scenario.budget_ms == kMidRequestMs && row.total > 1) {
      EXPECT_GT(strategy.proposed(), cell.report.experiments)
          << "the budget did not exhaust mid-request";
    }
  }
  return result;
}

std::vector<core::CampaignCellSpec> cells_of(const Row& row) {
  std::vector<core::CampaignCellSpec> cells;
  for (std::size_t index : row.cells) cells.push_back(grid()[index]);
  return cells;
}

core::CampaignOptions campaign_options(const Row& row) {
  core::CampaignOptions options;
  options.total_workers = row.total;
  options.cell_workers = row.cell_cap;
  options.experiment_workers = row.experiment_cap;
  options.checkpoints = checkpoint_config(row.config);
  return options;
}

core::CampaignResult run_campaign(const Row& row,
                                  const std::vector<core::CampaignCellSpec>& cells) {
  core::CampaignResult result = core::CampaignRunner(campaign_options(row)).run(cells);
  EXPECT_GT(result.wall_seconds, 0.0);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].grid_index, static_cast<int>(i));
    EXPECT_GT(result.cells[i].experiments_per_sec(), 0.0);
    EXPECT_NE(result.cells[i].strategy, nullptr);
  }
  return result;
}

// The campaign JSON report without its wall-clock lines.
std::string report_without_timing(const core::CampaignResult& result) {
  std::string out;
  std::istringstream lines(core::campaign_report_json(result));
  for (std::string line; std::getline(lines, line);) {
    if (line.find("wall_seconds") == std::string::npos &&
        line.find("experiments_per_sec") == std::string::npos) {
      out += line + "\n";
    }
  }
  return out;
}

// The --scenario-file path: the dumped document parses back to itself, its
// expansion is the grid's document part, and the row's cells run from it.
core::CampaignResult drive_document(const Row& row) {
  const core::ScenarioGrid reparsed = core::ScenarioGrid::from_json(document().to_json());
  EXPECT_EQ(reparsed, document());
  const std::vector<core::CampaignCellSpec> expanded = core::expand_to_cells(reparsed);
  EXPECT_EQ(expanded.size(), static_cast<std::size_t>(kDocumentCells));
  std::vector<core::CampaignCellSpec> cells;
  for (std::size_t index : row.cells) {
    EXPECT_EQ(expanded.at(index).scenario, grid()[index].scenario) << "cell " << index;
    cells.push_back(expanded.at(index));
  }
  core::CampaignResult result = run_campaign(row, cells);
  // The JSON reports agree line for line once wall-clock lines are dropped.
  core::CampaignResult expected = expected_campaign(row);
  expected.checkpoints_enabled = result.checkpoints_enabled;
  expected.checkpoint_budget_bytes = result.checkpoint_budget_bytes;
  EXPECT_EQ(report_without_timing(expected), report_without_timing(result));
  return result;
}

// A stop request: should_stop admits `admitted` polls, and the stopped run
// completes the cells at these grid indices.
struct Stop {
  int admitted;
  std::vector<int> completed;
};

std::optional<Stop> stop_of(Interruption interruption) {
  switch (interruption) {
    case Interruption::kStopAfterFirstCell: return Stop{1, {0}};
    case Interruption::kStopBeforeStart: return Stop{0, {}};
    case Interruption::kStopInsideGroup: return Stop{2, {0, 1}};  // each group's first
    default: return std::nullopt;
  }
}

// Journal every completion (stopping as the row says), then resume from the
// journal: journaled cells are merged verbatim, the rest run.
core::CampaignResult drive_resume(const Row& row) {
  const std::vector<core::CampaignCellSpec> cells = cells_of(row);
  const core::CampaignOptions base = campaign_options(row);
  const auto binding = core::CampaignJournal::bind(cells, base.checkpoints);
  const std::string path = ::testing::TempDir() + "avis_oracle_" + row.name + "_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    core::CampaignJournal journal = core::CampaignJournal::start(path, binding);
    core::CampaignOptions first = base;
    first.journal = &journal;
    const std::optional<Stop> stop = stop_of(row.interruption);
    if (stop) {
      auto polls = std::make_shared<std::atomic<int>>(0);
      first.should_stop = [polls, admitted = stop->admitted] {
        return polls->fetch_add(1) >= admitted;
      };
    }
    const core::CampaignResult partial = core::CampaignRunner(first).run(cells);
    EXPECT_EQ(partial.interrupted, stop.has_value());
    std::vector<int> indices;
    for (const auto& cell : partial.cells) indices.push_back(cell.grid_index);
    if (stop) {
      EXPECT_EQ(indices, stop->completed);
    }
    // A partial report says so and keeps honest grid indices.
    const std::string json = core::campaign_report_json(partial);
    EXPECT_EQ(json.find("\"interrupted\": true") != std::string::npos, partial.interrupted);
    for (int index : indices) {
      EXPECT_NE(json.find("\"index\": " + std::to_string(index)), std::string::npos);
    }
  }
  const auto loaded = core::CampaignJournal::load(path);
  EXPECT_FALSE(loaded.dropped_torn_record);
  EXPECT_EQ(core::CampaignJournal::header_diff(loaded.header, binding, cells), "");

  core::CampaignJournal journal = core::CampaignJournal::append_to(path);
  core::CampaignOptions second = base;
  second.journal = &journal;
  second.resume = &loaded.cells;
  core::CampaignResult resumed = core::CampaignRunner(second).run(cells);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(core::campaign_report_json(resumed).find("\"interrupted\""), std::string::npos);
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].grid_index, static_cast<int>(i));
  }
  // The journal now holds the whole campaign: resuming again runs nothing.
  EXPECT_EQ(core::CampaignJournal::load(path).cells.size(), cells.size());
  std::filesystem::remove(path);
  return resumed;
}

// A campaign whose first group fails — its strategy's feedback or its
// workload throws — while the other groups share the pool: the error
// reaches the caller, and a re-run on the same options runs clean.
core::CampaignResult drive_failed_campaign(const Row& row) {
  std::vector<core::CampaignCellSpec> cells = cells_of(row);
  if (row.interruption == Interruption::kFeedbackThrows) {
    cells.front().make_strategy = [cell = cells.front()](const core::MonitorModel& model,
                                                         std::uint64_t) {
      return std::make_unique<Probe>(strategy_of(cell, model), false, /*throw_at=*/3);
    };
  }
  g_workload_armed = row.interruption == Interruption::kWorkloadThrows;
  EXPECT_THROW(core::CampaignRunner(campaign_options(row)).run(cells), std::runtime_error);
  g_workload_armed = false;
  return run_campaign(row, cells_of(row));
}

core::CampaignResult run_row(const Row& row) {
  switch (row.mode) {
    case Mode::kChecker: return drive_checker(row);
    case Mode::kCampaign:
      return row.interruption == Interruption::kNone ? run_campaign(row, cells_of(row))
                                                     : drive_failed_campaign(row);
    case Mode::kResume: return drive_resume(row);
    case Mode::kDocument: return drive_document(row);
  }
  return {};
}

class Oracle : public ::testing::TestWithParam<Row> {};

TEST_P(Oracle, RowReportsEqualTheSerialReference) {
  const Row& row = GetParam();
  const core::CampaignResult expected = expected_campaign(row);
  expect_campaign_results_equal(expected, run_row(row));
}

INSTANTIATE_TEST_SUITE_P(Rows, Oracle, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

// --- The references themselves ----------------------------------------------

int root_hits(const core::CheckerReport& report) {
  return report.checkpoint_hits_by_level.empty() ? 0 : report.checkpoint_hits_by_level[0];
}

// A checkpoint config changes what is restored, never what is found: every
// non-default config's reference equals the default config's with the
// counters masked, and the counters obey the config's own invariants.
TEST(OracleReferences, CheckpointConfigsAgreeModuloTheirCounters) {
  for (const auto& [key, ref] : references()) {
    const auto [index, config] = key;
    SCOPED_TRACE("cell " + std::to_string(index) + " config " +
                 std::to_string(static_cast<int>(config)));
    const core::CheckerReport& report = ref.report;
    int by_level = 0;
    for (int hits : report.checkpoint_hits_by_level) by_level += hits;
    EXPECT_EQ(by_level, report.checkpoint_hits);
    if (config == Config::kOff) {
      EXPECT_EQ(report.checkpoint_hits + report.checkpoint_misses, 0);
      EXPECT_TRUE(report.checkpoint_hits_by_level.empty());
    } else {
      EXPECT_EQ(report.checkpoint_hits + report.checkpoint_misses, report.experiments);
    }
    if (config == Config::kBudget512K || config == Config::kBudget16K) {
      EXPECT_GT(report.checkpoint_evicted, 0);
      EXPECT_EQ(ref.root_survives, config == Config::kBudget512K);
    }
    if (config == Config::kBudget16K) {
      EXPECT_EQ(report.checkpoint_hits, 0);
    }
    if (config != Config::kDefault) {
      avis::testing::expect_reports_equal(
          mask_checkpoint_counters(reference(index, Config::kDefault).report),
          mask_checkpoint_counters(report));
    }
  }
  // The chain-heavy SABRE cell restores from the root and from the tree.
  const core::CheckerReport& sabre = reference(kSabreApAuto, Config::kDefault).report;
  EXPECT_GT(sabre.checkpoint_skipped_ms, 0);
  EXPECT_GT(sabre.checkpoint_hits, root_hits(sabre));
  // Every cell of the group grid restores from the root, a group's later
  // cells included.
  for (std::size_t index : kGroupCells) {
    EXPECT_GT(root_hits(reference(index, Config::kDefault).report), 0) << index;
  }
  // Under a root-evicting budget, a group's second cell reports the root's
  // install-time evictions only, none of the first cell's.
  EXPECT_GT(reference(kCustomSabreAuto, Config::kBudget16K).report.checkpoint_evicted,
            reference(kCustomRandomAuto, Config::kBudget16K).report.checkpoint_evicted);
}

// Algorithm 1 applies every plan it proposes — even one whose proposal (a
// BFI label) crossed the budget — so a one-plan-per-request run discards
// nothing.
TEST(OracleReferences, SerialLoopAppliesEveryPlanItProposes) {
  for (const auto& [key, ref] : references()) {
    EXPECT_EQ(ref.proposed, ref.report.experiments) << "cell " << key.first;
  }
}

// The preconditions that give the rows their power.
TEST(OracleReferences, GridExercisesEveryAxis) {
  // The journal round trip carries unsafe records with transitions.
  const core::CheckerReport& unsafe = reference(kSabreApAuto, Config::kDefault).report;
  ASSERT_GT(unsafe.unsafe_count(), 0);
  EXPECT_FALSE(unsafe.unsafe.front().transitions.empty());
  // BFI labels while proposing at every budget.
  for (std::size_t index : {kBfi215, kBfi300, kBfi605, kStratifiedBfi}) {
    EXPECT_GT(reference(index, Config::kDefault).report.labels, 0) << index;
  }
  // Every cell outside the tiny interrupt grid runs several requests' worth.
  for (const auto& [key, ref] : references()) {
    if (key.first < kTinyAvisBox || key.first > kTinyRandomAuto) {
      EXPECT_GE(ref.report.experiments, 3) << "cell " << key.first;
    }
  }
}

}  // namespace
