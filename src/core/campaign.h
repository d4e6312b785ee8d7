// Campaign-level parallel execution (ROADMAP: "shard whole campaigns").
//
// A campaign is a grid of independent cells, each described by a
// declarative ScenarioSpec (core/scenario.h): registry names for approach,
// personality, workload, environment and bug population, plus budget and
// seeds. Each cell owns its own Checker (and therefore its own profiling
// runs and monitor model), its own strategy, and its own BudgetClock. Cells
// share nothing mutable, so the runner executes them concurrently on a
// cell-level ThreadPool layered on top of each cell's in-process experiment
// pool, and collects results in deterministic grid order. Every cell report
// is bit-identical to a serial run of the same cell regardless of either
// worker count (tests/test_campaign.cc; docs/PERFORMANCE.md has the full
// contract).
#pragma once

#include <functional>
#include <memory>
#include <optional>
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

  // Escape hatches for cells that are not registry entries: the ablation
  // bench runs SABRE with per-cell pruning configs, table 5 re-inserts one
  // known bug per cell, and the parity tests pin custom factories. When
  // set, they override the corresponding scenario field; everything else
  // (personality, workload, environment, budget, seeds) still resolves from
  // the scenario.
  StrategyFactory make_strategy;
  std::optional<fw::BugRegistry> bugs_override;

  std::string display_label() const {
    return !label.empty() ? label : approach_label(scenario.approach);
  }
};

// The grid a ScenarioGrid document describes, as runnable cells.
std::vector<CampaignCellSpec> expand_to_cells(const ScenarioGrid& grid);

struct CampaignCellResult {
  CampaignCellSpec spec;
  CheckerReport report;
  // The cell's strategy, kept alive for post-run inspection (the ablation
  // benches read SABRE's pruning counters through it). Cells merged back
  // from a resumed journal carry no strategy object.
  std::unique_ptr<InjectionStrategy> strategy;
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
  util::WorkerBudget split;       // worker split the campaign actually ran with
  // Checkpoint knobs the cells ran with, echoed into the report JSON so an
  // archived report is self-describing.
  bool checkpoints_enabled = true;
  bool checkpoint_trees = true;
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
  // reproduce the uninterrupted totals exactly (tests/test_campaign.cc).
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
  int total_checkpoint_tree_evicted() const {
    int total = 0;
    for (const auto& cell : cells) total += cell.report.checkpoint_tree_evicted;
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

// One cell, end to end, on the calling thread (plus the cell's experiment
// pool): resolve the scenario through the registries, calibrate, build the
// strategy, run the checker loop. This is the unit the campaign pool
// executes; cells touch nothing shared, so it is safe to call concurrently.
CampaignCellResult run_cell(const CampaignCellSpec& spec, int experiment_workers,
                            const CheckpointConfig& checkpoints);

struct CampaignOptions {
  // Hardware budget divided between the two pool levels via
  // util::split_worker_budget; an explicit cell_workers / experiment_workers
  // (> 0) overrides the corresponding half of the split.
  int total_workers = util::default_worker_count();
  int cell_workers = 0;
  int experiment_workers = 0;
  // Checkpointed prefix forking, per cell (each cell's Checker records its
  // own fault-free prefix). On by default; the CLI's --no-checkpoints and
  // parity tests turn it off.
  CheckpointConfig checkpoints;

  // Crash safety (core/journal.h; docs/CRASH_SAFETY.md). When `journal` is
  // set, every completed cell is appended (write + fsync) as soon as it is
  // collected, in grid order. When `resume` is set, the listed cells are
  // not re-run: their journaled reports are merged into the result at their
  // grid positions. Both are borrowed, not owned; the caller (the CLI)
  // keeps them alive across run().
  CampaignJournal* journal = nullptr;
  const std::vector<JournalCellRecord>* resume = nullptr;

  // Cooperative interrupt (SIGINT/SIGTERM): polled between cells. When it
  // returns true the runner stops starting new cells, finishes (and
  // journals) the ones already running, and returns a partial result with
  // interrupted = true.
  std::function<bool()> should_stop;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {}) : options_(options) {}

  // Runs every cell of the grid and returns their results in grid order.
  // Exceptions thrown inside a cell (propagated through the pool's futures)
  // surface on the calling thread; unregistered scenario names throw
  // util::UnknownNameError before any simulation starts.
  CampaignResult run(const std::vector<CampaignCellSpec>& grid) const;

  // Convenience: expand a scenario grid and run it.
  CampaignResult run(const ScenarioGrid& grid) const { return run(expand_to_cells(grid)); }

  // The worker split `run` would use for a grid of this size.
  util::WorkerBudget worker_split(std::size_t cells) const;

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
