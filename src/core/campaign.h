// Campaign-level parallel execution (ROADMAP: "shard whole campaigns").
//
// A campaign is a grid of cells, each a declarative ScenarioSpec
// (core/scenario.h). Cells with equal prototype_key() form a calibration
// group: one Checker runs them back to back, so they share its profiling
// runs, monitor model and root checkpoint store, while each cell keeps its
// own strategy, BudgetClock and checkpoint tree. Groups share nothing
// mutable, so the runner executes them concurrently on one ThreadPool per
// campaign, which also runs every group's profiling runs and experiments,
// and collects results in deterministic grid order. Every cell report is
// bit-identical to a run of the same cell on a fresh Checker at any pool
// size and cap (tests/test_oracle.cc; docs/PERFORMANCE.md has the full
// contract).
#pragma once

#include <compare>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/scenario.h"
#include "util/concurrency.h"

namespace avis::core {

// Write-ahead journal (core/journal.h); forward-declared because journal.h
// includes this header for the cell/report types.
class CampaignJournal;
struct JournalCellRecord;

// Compatibility/extension hook: builds a cell's strategy once its monitor
// model is calibrated. The second argument is the cell's strategy seed.
using StrategyFactory =
    std::function<std::unique_ptr<InjectionStrategy>(const MonitorModel&, std::uint64_t)>;

struct CampaignCellSpec {
  // The declarative description; registry names resolve when the cell runs.
  ScenarioSpec scenario;

  // Display label for reports; empty means the approach registry's label
  // ("Avis" for "avis"), or the raw approach name for non-registry cells.
  std::string label;

  // Escape hatch for strategies that are not registry entries: the
  // ablation bench runs SABRE with per-cell pruning configs, and the parity
  // tests pin custom factories. When set, it replaces the approach's
  // factory; everything else (personality, workload, environment, bugs,
  // budget, seeds) still resolves from the scenario — Table V's re-inserted
  // bugs are bug_selector_registry() names ("current+APM-4679").
  StrategyFactory make_strategy;

  std::string display_label() const {
    return !label.empty() ? label : approach_label(scenario.approach);
  }
};

// What defines a cell's ExperimentSpec prototype, and so its calibration:
// personality, workload, environment, seed and the resolved bug set (the
// sorted ids of the named population). Approach, strategy seed, budget,
// constraints and label are deliberately left out. Throws
// util::UnknownNameError for an unregistered population.
struct PrototypeKey {
  std::string personality, workload, environment;
  std::uint64_t seed = 0;
  std::vector<fw::BugId> bugs;
  auto operator<=>(const PrototypeKey&) const = default;
};
PrototypeKey prototype_key(const CampaignCellSpec& cell);

// The grid a ScenarioGrid document describes, as runnable cells.
std::vector<CampaignCellSpec> expand_to_cells(const ScenarioGrid& grid);

struct CampaignCellResult {
  CampaignCellSpec spec;
  CheckerReport report;
  // The cell's strategy, kept alive for post-run inspection (the ablation
  // benches read SABRE's pruning counters through it). Cells merged back
  // from a resumed journal carry no strategy object.
  std::unique_ptr<InjectionStrategy> strategy;
  // The cell's own wall time. The first cell of a calibration group also
  // carries the group's profiling runs and the checkpoint root; later cells
  // time only their own campaign.
  double wall_seconds = 0.0;

  // Position in the requested grid (-1 = "my position in the results
  // vector", the single-process default). A resumed or interrupted campaign
  // reports a subset or reordering of the grid, so the report writer needs
  // the original index to keep cell identity stable across runs.
  int grid_index = -1;

  double experiments_per_sec() const {
    return wall_seconds > 0.0 ? report.experiments / wall_seconds : 0.0;
  }
};

struct CampaignResult {
  // Checkpoint knobs the cells ran with, echoed into the report JSON so an
  // archived report is self-describing.
  bool checkpoints_enabled = true;
  std::size_t checkpoint_budget_bytes = 0;
  double wall_seconds = 0.0;      // whole-campaign wall time
  // True when the campaign was stopped early (SIGINT/SIGTERM): cells holds
  // only what completed, and the report is a valid partial — the journal
  // plus --resume turns it into the full report later.
  bool interrupted = false;
  std::vector<CampaignCellResult> cells;  // deterministic grid order

  int total_experiments() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.experiments;
    return total;
  }

  // Campaign-wide checkpoint accounting, summed over cells in grid order.
  // Part of the deterministic report contract: a resumed campaign must
  // reproduce the uninterrupted totals exactly (tests/test_oracle.cc).
  int total_checkpoint_hits() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.checkpoint_hits;
    return total;
  }
  int total_checkpoint_misses() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.checkpoint_misses;
    return total;
  }
  int total_checkpoint_evicted() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.checkpoint_evicted;
    return total;
  }
  sim::SimTimeMs total_checkpoint_skipped_ms() const {
    sim::SimTimeMs total = 0;
    for (const auto& cell : cells) total += cell.report.checkpoint_skipped_ms;
    return total;
  }
  int total_stalled_runs() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.stalled_runs;
    return total;
  }

  // Campaign-wide (mode-graph edge x injection-window) coverage union, counts
  // summed over cells in grid order (core/coverage.h). Deterministic like the
  // per-cell maps it merges, so a resumed campaign must reproduce it
  // exactly; the report header carries its key count.
  CoverageMap coverage_union() const {
    CoverageMap unioned;
    for (const auto& cell : cells) merge_coverage(unioned, cell.report.edge_coverage);
    return unioned;
  }
};

struct CampaignOptions {
  // Threads in the campaign's one pool, shared by its groups and their
  // experiments.
  int total_workers = util::default_worker_count();
  // Caps that only lower concurrency (0 = none): the groups in progress at
  // once, and the parallel width a group's requests are sized for (1 runs
  // its experiments inline on the group's thread; Checker::use_pool).
  int cell_workers = 0;
  int experiment_workers = 0;
  // Checkpointed prefix forking, per calibration group (each group's Checker
  // builds one fault-free root, from its golden profiling run). On by default; the CLI's
  // --no-checkpoints and parity tests turn it off.
  CheckpointConfig checkpoints;

  // Crash safety (core/journal.h; docs/CRASH_SAFETY.md). When `journal` is
  // set, every completed cell is appended (write + fsync) as soon as it is
  // collected, in grid order. When `resume` is set, the listed cells are
  // not re-run: their journaled reports are merged into the result at their
  // grid positions. Both are borrowed, not owned; the caller (the CLI)
  // keeps them alive across run().
  CampaignJournal* journal = nullptr;
  const std::vector<JournalCellRecord>* resume = nullptr;

  // Cooperative interrupt (SIGINT/SIGTERM): polled before each cell. When it
  // returns true the runner stops starting new cells, finishes (and
  // journals) the ones already running, and returns a partial result with
  // interrupted = true.
  std::function<bool()> should_stop;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {}) : options_(options) {}

  // Runs every cell of the grid and returns their results in grid order.
  // Groups start in order of their first cell. An exception thrown inside a
  // cell stops every group before its next cell, and surfaces on the
  // calling thread once all have stopped; unregistered scenario names throw
  // util::UnknownNameError before their group simulates.
  CampaignResult run(const std::vector<CampaignCellSpec>& grid) const;

  // Convenience: expand a scenario grid and run it.
  CampaignResult run(const ScenarioGrid& grid) const { return run(expand_to_cells(grid)); }

 private:
  CampaignOptions options_;
};

// Machine-readable campaign report for the bench trajectory: one object per
// cell in grid order with its scenario identity (registry names), throughput
// (experiments/sec), unsafe counts, and bug-first-found simulation indices.
std::string campaign_report_json(const CampaignResult& result);

// Full CheckerReport serialization — the report payload of every journal
// record (core/journal.h). Unlike the campaign report above (which carries
// derived aggregates), this is a lossless round trip: plans, violations,
// transitions and checkpoint counters all survive, so a report merged from
// the journal on --resume is field-identical to one computed in-process.
// from_json throws util::JsonError on malformed or out-of-range input (the
// journal may be damaged or written by a mismatched binary).
std::string checker_report_json(const CheckerReport& report, int indent = 0);
CheckerReport checker_report_from_json(const util::Json& json);

}  // namespace avis::core
