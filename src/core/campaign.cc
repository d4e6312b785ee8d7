#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <sstream>

#include "core/journal.h"
#include "util/checked.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace avis::core {

namespace {

// A calibration group's results, one slot per member cell; nullopt for a
// cell a stop request kept from starting.
using GroupResult = std::vector<std::optional<CampaignCellResult>>;

// Runs a calibration group's cells back to back on one Checker; the first
// pays for profiling and the checkpoint root. Checker::run clears the tree
// per campaign, so each report equals a run on a fresh Checker. Approaches
// resolve first: a typo must throw before the group simulates anything.
GroupResult p_run_group(const std::vector<const CampaignCellSpec*>& cells,
                        util::ThreadPool& pool, int experiment_workers,
                        const CheckpointConfig& checkpoints,
                        const std::function<bool()>& should_stop) {
  auto start = std::chrono::steady_clock::now();
  for (const CampaignCellSpec* cell : cells) {
    if (!cell->make_strategy) approach_registry().at(cell->scenario.approach);
  }
  Checker checker(scenario_prototype(cells.front()->scenario), checkpoints);
  checker.use_pool(&pool, experiment_workers);
  GroupResult results(cells.size());
  for (std::size_t i = 0; i < cells.size() && !should_stop(); ++i) {
    const CampaignCellSpec& spec = *cells[i];
    CampaignCellResult& result = results[i].emplace();
    result.spec = spec;
    const MonitorModel& model = checker.model();
    result.strategy = spec.make_strategy
                          ? spec.make_strategy(model, spec.scenario.strategy_seed)
                          : make_scenario_strategy(spec.scenario, model);
    util::expects(result.strategy != nullptr, "campaign cell produced no strategy");
    BudgetClock budget(spec.scenario.budget_ms);
    result.report = checker.run(*result.strategy, budget);
    const auto end = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(end - start).count();
    start = end;
  }
  return results;
}

}  // namespace

PrototypeKey prototype_key(const CampaignCellSpec& cell) {
  const ScenarioSpec& s = cell.scenario;
  PrototypeKey key{s.personality, s.workload, s.environment, s.seed, {}};
  key.bugs = resolve_bugs(s.bugs).enabled_bugs();
  std::sort(key.bugs.begin(), key.bugs.end());
  return key;
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

CampaignResult CampaignRunner::run(const std::vector<CampaignCellSpec>& grid) const {
  CampaignResult result;
  result.checkpoints_enabled = options_.checkpoints.enabled;
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

  // Calibration groups over the fresh cells, numbered in order of their
  // first cell; slot[i] is cell i's (group, member) position.
  std::vector<std::vector<const CampaignCellSpec*>> groups;
  std::vector<std::pair<std::size_t, std::size_t>> slot(grid.size());
  std::map<PrototypeKey, std::size_t> group_of;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (resumed[i] != nullptr) continue;
    const auto [it, added] = group_of.try_emplace(prototype_key(grid[i]), groups.size());
    if (added) groups.emplace_back();
    slot[i] = {it->second, groups[it->second].size()};
    groups[it->second].push_back(&grid[i]);
  }
  // One pool for the whole campaign: `lanes` outer tasks each run groups
  // one after another, and the groups' profiling runs and experiments are
  // leaf tasks that idle lanes and waiting groups pick up. A group polls
  // `stop` before each cell: running cells finish, no new one starts.
  std::atomic<bool> failed = false;
  const std::function<bool()> stop = [this, &failed] {
    return failed.load() || (options_.should_stop && options_.should_stop());
  };
  std::vector<std::packaged_task<GroupResult()>> tasks;
  std::vector<std::future<GroupResult>> futures;
  std::atomic<std::size_t> next_group = 0;
  // Declared after everything its tasks reference: destroyed (joined) first.
  util::ThreadPool pool(std::max(1, options_.total_workers));
  for (const auto& cells : groups) {
    tasks.emplace_back([this, &cells, &pool, &stop, &failed] {
      try {
        return p_run_group(cells, pool, options_.experiment_workers, options_.checkpoints, stop);
      } catch (...) {
        failed = true;  // the other groups start no further cell
        throw;
      }
    });
    futures.push_back(tasks.back().get_future());
  }
  const int cap = options_.cell_workers > 0 ? options_.cell_workers : pool.worker_count();
  const std::size_t lanes =
      std::min(groups.size(), static_cast<std::size_t>(std::min(cap, pool.worker_count())));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit_outer([&tasks, &next_group] {
      for (std::size_t g; (g = next_group++) < tasks.size();) tasks[g]();
    });
  }
  // Collection in grid order keeps the result vector (and the journal) in
  // grid order no matter which group finishes first. A failure, in a group
  // or in the journal, stops the other groups, and its rethrow waits them
  // out: their tasks reference this frame.
  std::vector<GroupResult> done(groups.size());
  try {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (resumed[i] != nullptr) {
        result.cells.push_back(from_journal(*resumed[i]));
        continue;
      }
      const auto [group, member] = slot[i];
      if (futures[group].valid()) done[group] = futures[group].get();
      std::optional<CampaignCellResult>& cell = done[group][member];
      if (!cell) {
        result.interrupted = true;
        continue;
      }
      cell->grid_index = static_cast<int>(i);
      journal_cell(*cell, i);
      result.cells.push_back(std::move(*cell));
    }
  } catch (...) {
    failed = true;
    for (auto& future : futures) {
      if (future.valid()) future.wait();
    }
    throw;
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
  // The checkpoint knobs the campaign ran with (CLI: --no-checkpoints,
  // --checkpoint-budget-mb). Deliberately inside the checkpoint_* prefix:
  // the smoke diff masks that prefix when comparing checkpoint modes, and
  // these keys (like the counters) legitimately differ across modes.
  os << "    \"checkpoint_enabled\": " << (result.checkpoints_enabled ? "true" : "false")
     << ",\n";
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
    // The bug population's selector name; Table V's re-inserted bugs are
    // selectors too ("current+APM-4679").
    os << "      \"bugs\": \"" << util::json_escape(scenario.bugs) << "\",\n";
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

fw::BugId p_bug_from_wire(const util::Json& json) {
  return static_cast<fw::BugId>(
      json.as_int("bug id", 0, static_cast<int>(fw::kAllBugs.size()) - 1));
}

ModeTransition p_transition_from_wire(const util::Json& json) {
  ModeTransition t;
  t.time_ms = json.at("time_ms").as_int64();
  t.mode_id = json.at("mode_id").as_int<std::uint16_t>("mode id");
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
  report.experiments = json.at("experiments").as_int("experiments");
  report.labels = json.at("labels").as_int("labels");
  report.budget_used_ms = json.at("budget_used_ms").as_int64();
  report.checkpoint_hits = json.at("checkpoint_hits").as_int("checkpoint_hits");
  report.checkpoint_misses = json.at("checkpoint_misses").as_int("checkpoint_misses");
  for (const util::Json& level : json.at("checkpoint_hits_by_level").as_array()) {
    report.checkpoint_hits_by_level.push_back(level.as_int("checkpoint_hits_by_level"));
  }
  report.checkpoint_evicted = json.at("checkpoint_evicted").as_int("checkpoint_evicted");
  report.checkpoint_skipped_ms = json.at("checkpoint_skipped_ms").as_int64();
  report.stalled_runs = json.at("stalled_runs").as_int("stalled_runs");
  for (const util::Json& entry : json.at("edge_coverage").as_array()) {
    CoverageKey key;
    key.from_mode = entry.at("from").as_int<std::uint16_t>("mode id");
    key.to_mode = entry.at("to").as_int<std::uint16_t>("mode id");
    key.window = entry.at("window").as_int<std::int32_t>("coverage window", -1);
    report.edge_coverage[key] = entry.at("count").as_int("coverage count", 0);
  }
  for (const util::Json& entry : json.at("bug_first_found").as_array()) {
    report.bug_first_found[p_bug_from_wire(entry.at("bug"))] =
        entry.at("experiment").as_int("experiment");
  }
  for (const util::Json& entry : json.at("unsafe").as_array()) {
    UnsafeRecord record;
    record.seed = entry.at("seed").as_uint64();
    record.experiment_index = entry.at("experiment_index").as_int("experiment_index");
    for (const util::Json& event : entry.at("plan").as_array()) {
      FaultEvent e;
      e.time_ms = event.at("time_ms").as_int64();
      e.sensor.type = static_cast<sensors::SensorType>(event.at("type").as_int(
          "sensor type", 0, static_cast<int>(sensors::kAllSensorTypes.size()) - 1));
      e.sensor.instance = event.at("instance").as_int<std::uint8_t>("instance");
      // Events were emitted in normalized order; append verbatim to keep the
      // plan signature byte-identical.
      record.plan.events.push_back(e);
    }
    const util::Json& violation = entry.at("violation");
    record.violation.type =
        static_cast<ViolationType>(violation.at("type").as_int("violation type", 0, 3));
    record.violation.time_ms = violation.at("time_ms").as_int64();
    record.violation.mode_id = violation.at("mode_id").as_int<std::uint16_t>("mode id");
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
