#include "core/campaign.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <sstream>

#include "core/journal.h"
#include "util/checked.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace avis::core {

// One cell, end to end: resolve the scenario through the registries,
// calibrate, build the strategy, run the campaign loop. Everything the cell
// touches is constructed here, so cells are safe to run on pool threads.
CampaignCellResult run_cell(const CampaignCellSpec& spec, int experiment_workers,
                            const CheckpointConfig& checkpoints) {
  CampaignCellResult result;
  result.spec = spec;
  const auto start = std::chrono::steady_clock::now();
  // Resolve the approach name before calibration: a typo must throw before
  // the cell burns its three profiling simulations (the header's "before
  // any simulation starts" promise). Cells with a pinned factory skip the
  // registry entirely.
  if (!spec.make_strategy) approach_registry().at(spec.scenario.approach);
  ExperimentSpec prototype = scenario_prototype(spec.scenario);
  if (spec.bugs_override) prototype.bugs = *spec.bugs_override;
  Checker checker(std::move(prototype), checkpoints);
  const MonitorModel& model = checker.model();
  result.strategy = spec.make_strategy
                        ? spec.make_strategy(model, spec.scenario.strategy_seed)
                        : make_scenario_strategy(spec.scenario, model);
  util::expects(result.strategy != nullptr, "campaign cell produced no strategy");
  BudgetClock budget(spec.scenario.budget_ms);
  result.report = checker.run_parallel(*result.strategy, budget, experiment_workers);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

std::vector<CampaignCellSpec> expand_to_cells(const ScenarioGrid& grid) {
  std::vector<CampaignCellSpec> cells;
  for (ScenarioSpec& scenario : grid.expand()) {
    // Resolve every name up front so a typo fails before any cell has
    // burned budget.
    scenario.validate();
    CampaignCellSpec cell;
    cell.scenario = std::move(scenario);
    cells.push_back(std::move(cell));
  }
  util::expects(!cells.empty(), "scenario grid expands to an empty campaign");
  return cells;
}

util::WorkerBudget CampaignRunner::worker_split(std::size_t cells) const {
  const int total = std::max(1, options_.total_workers);
  util::WorkerBudget split = util::split_worker_budget(total, static_cast<int>(cells));
  if (options_.cell_workers > 0 && options_.experiment_workers > 0) {
    // Both halves pinned: the caller explicitly owns the thread count.
    split.campaign_workers = options_.cell_workers;
    split.experiment_workers = options_.experiment_workers;
  } else if (options_.cell_workers > 0) {
    // Re-derive the free half from the pinned one so a single-sided
    // override still honours the no-oversubscription budget.
    split.campaign_workers = options_.cell_workers;
    split.experiment_workers = std::max(1, total / options_.cell_workers);
  } else if (options_.experiment_workers > 0) {
    split.experiment_workers = options_.experiment_workers;
    split.campaign_workers = std::max(
        1, std::min(static_cast<int>(std::max<std::size_t>(cells, 1)),
                    total / options_.experiment_workers));
  }
  return split;
}

CampaignResult CampaignRunner::run(const std::vector<CampaignCellSpec>& grid) const {
  CampaignResult result;
  result.split = worker_split(grid.size());
  result.checkpoints_enabled = options_.checkpoints.enabled;
  result.checkpoint_trees = options_.checkpoints.enabled && options_.checkpoints.trees;
  result.checkpoint_budget_bytes = options_.checkpoints.byte_budget;
  result.cells.reserve(grid.size());
  const auto start = std::chrono::steady_clock::now();

  // Resume bookkeeping: a journaled cell is merged at its grid position
  // instead of re-running (cells are pure functions of their spec, so the
  // journaled report equals what the re-run would have produced).
  std::vector<const JournalCellRecord*> resumed(grid.size(), nullptr);
  if (options_.resume != nullptr) {
    for (const JournalCellRecord& record : *options_.resume) {
      if (record.index >= 0 && static_cast<std::size_t>(record.index) < grid.size()) {
        resumed[static_cast<std::size_t>(record.index)] = &record;
      }
    }
  }
  const auto from_journal = [&grid](const JournalCellRecord& record) {
    CampaignCellResult cell;
    cell.spec = grid[static_cast<std::size_t>(record.index)];
    cell.report = record.report;
    cell.wall_seconds = record.wall_seconds;
    cell.grid_index = record.index;
    return cell;
  };
  const auto stopped = [this] { return options_.should_stop && options_.should_stop(); };
  // Journal at collection time: the calling thread collects in grid order,
  // so the journal is written in grid order and fsync'd before the result
  // becomes visible to the caller.
  const auto journal_cell = [this, &grid](const CampaignCellResult& cell, std::size_t index) {
    if (options_.journal == nullptr) return;
    JournalCellRecord record;
    record.index = static_cast<int>(index);
    record.spec_hash = cell_identity_hash(grid[index]);
    record.wall_seconds = cell.wall_seconds;
    record.report = cell.report;
    options_.journal->append(record);
  };

  if (result.split.campaign_workers <= 1 || grid.size() <= 1) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (resumed[i] != nullptr) {
        result.cells.push_back(from_journal(*resumed[i]));
        continue;
      }
      if (stopped()) {
        result.interrupted = true;
        break;
      }
      CampaignCellResult cell =
          run_cell(grid[i], result.split.experiment_workers, options_.checkpoints);
      cell.grid_index = static_cast<int>(i);
      journal_cell(cell, i);
      result.cells.push_back(std::move(cell));
    }
  } else {
    util::ThreadPool pool(result.split.campaign_workers);
    // One future per *fresh* cell, keyed by grid index. A task that finds
    // the stop flag raised before it starts returns nullopt — that is the
    // "stop assigning new cells" semantics; cells already simulating run to
    // completion (and get journaled).
    std::vector<std::pair<std::size_t, std::future<std::optional<CampaignCellResult>>>> in_flight;
    in_flight.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (resumed[i] != nullptr) continue;
      in_flight.emplace_back(
          i, pool.submit([&spec = grid[i], workers = result.split.experiment_workers,
                          checkpoints = options_.checkpoints,
                          &stopped]() -> std::optional<CampaignCellResult> {
            if (stopped()) return std::nullopt;
            return run_cell(spec, workers, checkpoints);
          }));
    }
    // Collection in submission order keeps the result vector in grid order
    // no matter which cell finishes first.
    std::size_t next_fresh = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (resumed[i] != nullptr) {
        result.cells.push_back(from_journal(*resumed[i]));
        continue;
      }
      std::optional<CampaignCellResult> cell = in_flight[next_fresh++].second.get();
      if (!cell) {
        result.interrupted = true;
        continue;
      }
      cell->grid_index = static_cast<int>(i);
      journal_cell(*cell, i);
      result.cells.push_back(std::move(*cell));
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

namespace {

// {"12->34@w3": 2, ...} — one line, deterministic (CoverageMap iterates in
// key order).
void p_append_coverage_object(std::ostream& os, const CoverageMap& coverage) {
  os << "{";
  bool first = true;
  for (const auto& [key, count] : coverage) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << coverage_key_string(key) << "\": " << count;
  }
  os << "}";
}

}  // namespace

std::string campaign_report_json(const CampaignResult& result) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n";
  os << "  \"campaign\": {\n";
  os << "    \"cells\": " << result.cells.size() << ",\n";
  // Emitted only for partial reports so complete runs — resumed or not —
  // stay byte-identical to the pre-journal format.
  if (result.interrupted) os << "    \"interrupted\": true,\n";
  os << "    \"cell_workers\": " << result.split.campaign_workers << ",\n";
  os << "    \"experiment_workers\": " << result.split.experiment_workers << ",\n";
  // The checkpoint knobs the campaign ran with (CLI: --no-checkpoints,
  // --no-checkpoint-trees, --checkpoint-budget-mb). Deliberately inside the
  // checkpoint_* prefix: the smoke diff masks that prefix when comparing
  // checkpoint modes, and these keys (like the counters) legitimately
  // differ across modes.
  os << "    \"checkpoint_enabled\": " << (result.checkpoints_enabled ? "true" : "false")
     << ",\n";
  os << "    \"checkpoint_trees\": " << (result.checkpoint_trees ? "true" : "false") << ",\n";
  os << "    \"checkpoint_budget_bytes\": " << result.checkpoint_budget_bytes << ",\n";
  os << "    \"wall_seconds\": " << result.wall_seconds << ",\n";
  os << "    \"total_experiments\": " << result.total_experiments() << ",\n";
  os << "    \"stalled_runs\": " << result.total_stalled_runs() << ",\n";
  // Campaign-wide edge-coverage union (core/coverage.h). Derived from
  // transitions, so — unlike the checkpoint block below — it is part of the
  // report-identity contract across worker counts and checkpoint modes, and
  // the fuzzer's "does this mutant reach anything new" reference.
  const CoverageMap coverage_union = result.coverage_union();
  os << "    \"edge_coverage_keys\": " << coverage_union.size() << ",\n";
  os << "    \"edge_coverage\": ";
  p_append_coverage_object(os, coverage_union);
  os << ",\n";
  // Campaign-wide checkpoint totals: the merge path (--resume) must
  // reproduce the uninterrupted sums exactly, so they are part of the
  // report-identity contract rather than derived downstream.
  os << "    \"checkpoint_hits\": " << result.total_checkpoint_hits() << ",\n";
  os << "    \"checkpoint_misses\": " << result.total_checkpoint_misses() << ",\n";
  os << "    \"checkpoint_evicted\": " << result.total_checkpoint_evicted() << ",\n";
  os << "    \"checkpoint_tree_evicted\": " << result.total_checkpoint_tree_evicted() << ",\n";
  os << "    \"checkpoint_skipped_ms\": " << result.total_checkpoint_skipped_ms() << "\n";
  os << "  },\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CampaignCellResult& cell = result.cells[i];
    const CheckerReport& report = cell.report;
    const ScenarioSpec& scenario = cell.spec.scenario;
    os << "    {\n";
    // grid_index keeps cell identity stable when the result is a partial
    // (interrupted) subset of the grid; -1 (single-process full runs)
    // falls back to the vector position, which is the grid position.
    os << "      \"index\": " << (cell.grid_index >= 0 ? cell.grid_index : static_cast<int>(i))
       << ",\n";
    os << "      \"approach\": \"" << util::json_escape(cell.spec.display_label()) << "\",\n";
    os << "      \"approach_key\": \"" << util::json_escape(scenario.approach) << "\",\n";
    os << "      \"strategy\": \"" << util::json_escape(report.strategy_name) << "\",\n";
    os << "      \"personality\": \"" << util::json_escape(scenario.personality) << "\",\n";
    os << "      \"workload\": \"" << util::json_escape(scenario.workload) << "\",\n";
    os << "      \"environment\": \"" << util::json_escape(scenario.environment) << "\",\n";
    // A bugs_override replaced the scenario's named population with an
    // ad-hoc one (table 5's re-inserted bugs); don't misreport it as the
    // selector name.
    os << "      \"bugs\": \""
       << util::json_escape(cell.spec.bugs_override ? std::string("custom") : scenario.bugs)
       << "\",\n";
    os << "      \"budget_ms\": " << scenario.budget_ms << ",\n";
    os << "      \"budget_used_ms\": " << report.budget_used_ms << ",\n";
    os << "      \"seed\": " << scenario.seed << ",\n";
    os << "      \"experiments\": " << report.experiments << ",\n";
    os << "      \"labels\": " << report.labels << ",\n";
    os << "      \"unsafe_count\": " << report.unsafe_count() << ",\n";
    const auto buckets = report.unsafe_by_bucket();
    os << "      \"unsafe_by_bucket\": [" << buckets[0] << ", " << buckets[1] << ", "
       << buckets[2] << ", " << buckets[3] << "],\n";
    os << "      \"bug_first_found\": {";
    bool first = true;
    for (const auto& [bug, index] : report.bug_first_found) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << fw::bug_info(bug).report_name << "\": " << index;
    }
    os << "},\n";
    // Checkpointed prefix forking: the bench-trajectory consumer should see
    // the hit rate and skipped sim time, not just wall time.
    os << "      \"edge_coverage_keys\": " << report.edge_coverage.size() << ",\n";
    os << "      \"edge_coverage\": ";
    p_append_coverage_object(os, report.edge_coverage);
    os << ",\n";
    os << "      \"checkpoint_hits\": " << report.checkpoint_hits << ",\n";
    os << "      \"checkpoint_misses\": " << report.checkpoint_misses << ",\n";
    os << "      \"checkpoint_hit_rate\": " << report.checkpoint_hit_rate() << ",\n";
    os << "      \"checkpoint_hits_by_level\": [";
    for (std::size_t j = 0; j < report.checkpoint_hits_by_level.size(); ++j) {
      if (j) os << ", ";
      os << report.checkpoint_hits_by_level[j];
    }
    os << "],\n";
    os << "      \"checkpoint_evicted\": " << report.checkpoint_evicted << ",\n";
    os << "      \"checkpoint_tree_evicted\": " << report.checkpoint_tree_evicted << ",\n";
    os << "      \"checkpoint_skipped_ms\": " << report.checkpoint_skipped_ms << ",\n";
    os << "      \"stalled_runs\": " << report.stalled_runs << ",\n";
    os << "      \"wall_seconds\": " << cell.wall_seconds << ",\n";
    os << "      \"experiments_per_sec\": " << cell.experiments_per_sec() << "\n";
    os << "    }" << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

// --- CheckerReport serialization ------------------------------------------
//
// Lossless: every field expect_reports_equal compares survives the round
// trip, so cells resumed from the journal are indistinguishable from cells
// run in-process. Enum-valued fields travel as integers and are
// range-checked on the way back in — the writer may be a mismatched binary.

namespace {

// Range-checked narrowing for serialized integers; JsonError (not
// InvariantError) so the journal loader's torn/corrupt-record handling
// catches it.
std::int64_t p_wire_int(const util::Json& json, std::int64_t lo, std::int64_t hi,
                        const char* what) {
  const std::int64_t v = json.as_int64();
  if (v < lo || v > hi) {
    throw util::JsonError(std::string(what) + " out of range: " + std::to_string(v));
  }
  return v;
}

fw::BugId p_bug_from_wire(const util::Json& json) {
  return static_cast<fw::BugId>(
      p_wire_int(json, 0, static_cast<std::int64_t>(fw::kAllBugs.size()) - 1, "bug id"));
}

ModeTransition p_transition_from_wire(const util::Json& json) {
  ModeTransition t;
  t.time_ms = json.at("time_ms").as_int64();
  t.mode_id = static_cast<std::uint16_t>(p_wire_int(json.at("mode_id"), 0, 0xffff, "mode id"));
  t.mode_name = json.at("name").as_string();
  return t;
}

void p_append_transition(std::ostream& os, const ModeTransition& t) {
  os << "{\"time_ms\": " << t.time_ms << ", \"mode_id\": " << t.mode_id << ", \"name\": \""
     << util::json_escape(t.mode_name) << "\"}";
}

}  // namespace

std::string checker_report_json(const CheckerReport& report, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"strategy\": \"" << util::json_escape(report.strategy_name) << "\",\n";
  os << pad << "  \"experiments\": " << report.experiments << ",\n";
  os << pad << "  \"labels\": " << report.labels << ",\n";
  os << pad << "  \"budget_used_ms\": " << report.budget_used_ms << ",\n";
  os << pad << "  \"checkpoint_hits\": " << report.checkpoint_hits << ",\n";
  os << pad << "  \"checkpoint_misses\": " << report.checkpoint_misses << ",\n";
  os << pad << "  \"checkpoint_hits_by_level\": [";
  for (std::size_t i = 0; i < report.checkpoint_hits_by_level.size(); ++i) {
    if (i) os << ", ";
    os << report.checkpoint_hits_by_level[i];
  }
  os << "],\n";
  os << pad << "  \"checkpoint_evicted\": " << report.checkpoint_evicted << ",\n";
  os << pad << "  \"checkpoint_tree_evicted\": " << report.checkpoint_tree_evicted << ",\n";
  os << pad << "  \"checkpoint_skipped_ms\": " << report.checkpoint_skipped_ms << ",\n";
  os << pad << "  \"stalled_runs\": " << report.stalled_runs << ",\n";
  os << pad << "  \"edge_coverage\": [";
  {
    bool first = true;
    for (const auto& [key, count] : report.edge_coverage) {
      if (!first) os << ", ";
      first = false;
      os << "{\"from\": " << key.from_mode << ", \"to\": " << key.to_mode
         << ", \"window\": " << key.window << ", \"count\": " << count << "}";
    }
  }
  os << "],\n";
  os << pad << "  \"bug_first_found\": [";
  bool first = true;
  for (const auto& [bug, index] : report.bug_first_found) {
    if (!first) os << ", ";
    first = false;
    os << "{\"bug\": " << static_cast<int>(bug) << ", \"experiment\": " << index << "}";
  }
  os << "],\n";
  os << pad << "  \"unsafe\": [";
  for (std::size_t i = 0; i < report.unsafe.size(); ++i) {
    const UnsafeRecord& record = report.unsafe[i];
    os << (i ? "," : "") << "\n" << pad << "    {\n";
    os << pad << "      \"seed\": " << record.seed << ",\n";
    os << pad << "      \"experiment_index\": " << record.experiment_index << ",\n";
    os << pad << "      \"plan\": [";
    for (std::size_t j = 0; j < record.plan.events.size(); ++j) {
      const FaultEvent& e = record.plan.events[j];
      if (j) os << ", ";
      os << "{\"time_ms\": " << e.time_ms
         << ", \"type\": " << static_cast<int>(e.sensor.type)
         << ", \"instance\": " << static_cast<int>(e.sensor.instance) << "}";
    }
    os << "],\n";
    os << pad << "      \"violation\": {\"type\": " << static_cast<int>(record.violation.type)
       << ", \"time_ms\": " << record.violation.time_ms
       << ", \"mode_id\": " << record.violation.mode_id << ", \"details\": \""
       << util::json_escape(record.violation.details) << "\"},\n";
    os << pad << "      \"fired_bugs\": [";
    for (std::size_t j = 0; j < record.fired_bugs.size(); ++j) {
      if (j) os << ", ";
      os << static_cast<int>(record.fired_bugs[j]);
    }
    os << "],\n";
    os << pad << "      \"transitions\": [";
    for (std::size_t j = 0; j < record.transitions.size(); ++j) {
      if (j) os << ", ";
      p_append_transition(os, record.transitions[j]);
    }
    os << "]\n";
    os << pad << "    }";
  }
  if (!report.unsafe.empty()) os << "\n" << pad << "  ";
  os << "]\n";
  os << pad << "}";
  return os.str();
}

CheckerReport checker_report_from_json(const util::Json& json) {
  CheckerReport report;
  report.strategy_name = json.at("strategy").as_string();
  report.experiments = static_cast<int>(json.at("experiments").as_int64());
  report.labels = static_cast<int>(json.at("labels").as_int64());
  report.budget_used_ms = json.at("budget_used_ms").as_int64();
  report.checkpoint_hits = static_cast<int>(json.at("checkpoint_hits").as_int64());
  report.checkpoint_misses = static_cast<int>(json.at("checkpoint_misses").as_int64());
  for (const util::Json& level : json.at("checkpoint_hits_by_level").as_array()) {
    report.checkpoint_hits_by_level.push_back(static_cast<int>(level.as_int64()));
  }
  report.checkpoint_evicted = static_cast<int>(json.at("checkpoint_evicted").as_int64());
  report.checkpoint_tree_evicted =
      static_cast<int>(json.at("checkpoint_tree_evicted").as_int64());
  report.checkpoint_skipped_ms = json.at("checkpoint_skipped_ms").as_int64();
  report.stalled_runs = static_cast<int>(json.at("stalled_runs").as_int64());
  for (const util::Json& entry : json.at("edge_coverage").as_array()) {
    CoverageKey key;
    key.from_mode =
        static_cast<std::uint16_t>(p_wire_int(entry.at("from"), 0, 0xffff, "mode id"));
    key.to_mode = static_cast<std::uint16_t>(p_wire_int(entry.at("to"), 0, 0xffff, "mode id"));
    key.window = static_cast<std::int32_t>(
        p_wire_int(entry.at("window"), -1, std::numeric_limits<std::int32_t>::max(),
                   "coverage window"));
    report.edge_coverage[key] =
        static_cast<int>(p_wire_int(entry.at("count"), 0, std::numeric_limits<int>::max(),
                                    "coverage count"));
  }
  for (const util::Json& entry : json.at("bug_first_found").as_array()) {
    report.bug_first_found[p_bug_from_wire(entry.at("bug"))] =
        static_cast<int>(entry.at("experiment").as_int64());
  }
  for (const util::Json& entry : json.at("unsafe").as_array()) {
    UnsafeRecord record;
    record.seed = entry.at("seed").as_uint64();
    record.experiment_index = static_cast<int>(entry.at("experiment_index").as_int64());
    for (const util::Json& event : entry.at("plan").as_array()) {
      FaultEvent e;
      e.time_ms = event.at("time_ms").as_int64();
      e.sensor.type = static_cast<sensors::SensorType>(
          p_wire_int(event.at("type"), 0,
                     static_cast<std::int64_t>(sensors::kAllSensorTypes.size()) - 1,
                     "sensor type"));
      e.sensor.instance =
          static_cast<std::uint8_t>(p_wire_int(event.at("instance"), 0, 0xff, "instance"));
      // Events were emitted in normalized order; append verbatim to keep the
      // plan signature byte-identical.
      record.plan.events.push_back(e);
    }
    const util::Json& violation = entry.at("violation");
    record.violation.type =
        static_cast<ViolationType>(p_wire_int(violation.at("type"), 0, 3, "violation type"));
    record.violation.time_ms = violation.at("time_ms").as_int64();
    record.violation.mode_id =
        static_cast<std::uint16_t>(p_wire_int(violation.at("mode_id"), 0, 0xffff, "mode id"));
    record.violation.details = violation.at("details").as_string();
    for (const util::Json& bug : entry.at("fired_bugs").as_array()) {
      record.fired_bugs.push_back(p_bug_from_wire(bug));
    }
    for (const util::Json& transition : entry.at("transitions").as_array()) {
      record.transitions.push_back(p_transition_from_wire(transition));
    }
    report.unsafe.push_back(std::move(record));
  }
  return report;
}

}  // namespace avis::core
