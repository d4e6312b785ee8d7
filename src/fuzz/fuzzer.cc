#include "fuzz/fuzzer.h"

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "util/checked.h"
#include "util/json.h"
#include "util/rng.h"

namespace avis::fuzz {
namespace {

// One scenario, end to end, with the campaign options' per-cell knobs. Cell
// reports are bit-identical at any worker count, so evaluating a mutant here
// or inside a whole-generation CampaignRunner::run yields the same report.
core::CheckerReport p_evaluate_one(const core::ScenarioSpec& spec,
                                   const core::CampaignOptions& options) {
  core::CampaignCellSpec cell;
  cell.scenario = spec;
  const util::WorkerBudget split = util::split_worker_budget(options.total_workers, 1);
  const int experiment_workers =
      options.experiment_workers > 0 ? options.experiment_workers : split.experiment_workers;
  return core::run_cell(cell, experiment_workers, options.checkpoints).report;
}

bool p_finds_all(const core::CheckerReport& report, const std::vector<fw::BugId>& bugs) {
  for (fw::BugId bug : bugs) {
    if (!report.bug_first_found.contains(bug)) return false;
  }
  return true;
}

// Greedy one-pass minimization: revert each mutated field (in a fixed order)
// toward the generation-0 ancestor and keep the reversion when every
// discovered bug still reproduces. Bounded by options.minimize_budget
// evaluations; `evaluations` counts what was spent.
core::ScenarioSpec p_minimize(const core::ScenarioSpec& spec, const core::ScenarioSpec& root,
                              const std::vector<fw::BugId>& bugs, const FuzzOptions& options,
                              int& evaluations) {
  core::ScenarioSpec minimized = spec;
  int budget = options.minimize_budget;
  const auto try_revert = [&](auto&& revert) {
    if (budget <= 0) return;
    core::ScenarioSpec candidate = minimized;
    revert(candidate);
    if (candidate == minimized) return;
    --budget;
    ++evaluations;
    if (p_finds_all(p_evaluate_one(candidate, options.campaign), bugs)) {
      minimized = std::move(candidate);
    }
  };
  try_revert([&](core::ScenarioSpec& s) { s.workload = root.workload; });
  try_revert([&](core::ScenarioSpec& s) { s.environment = root.environment; });
  try_revert([&](core::ScenarioSpec& s) { s.personality = root.personality; });
  try_revert([&](core::ScenarioSpec& s) {
    s.constraints.max_set_size = root.constraints.max_set_size;
  });
  try_revert([&](core::ScenarioSpec& s) {
    s.constraints.max_plan_events = root.constraints.max_plan_events;
  });
  try_revert([&](core::ScenarioSpec& s) {
    s.constraints.window_start_ms = root.constraints.window_start_ms;
    s.constraints.window_end_ms = root.constraints.window_end_ms;
  });
  try_revert([&](core::ScenarioSpec& s) { s.constraints.fault_types = root.constraints.fault_types; });
  return minimized;
}

void p_append_key_array(std::ostream& os, const std::vector<core::CoverageKey>& keys) {
  os << "[";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << core::coverage_key_string(keys[i]) << "\"";
  }
  os << "]";
}

}  // namespace

FuzzResult run_fuzz(const core::ScenarioGrid& seed_grid, const FuzzOptions& options) {
  util::expects(options.generations >= 1, "fuzz: generations must be >= 1");
  util::expects(options.mutants_per_generation >= 1,
                "fuzz: mutants_per_generation must be >= 1");
  seed_grid.validate();

  const auto started = std::chrono::steady_clock::now();
  FuzzResult result;
  util::Rng rng(options.seed);
  const core::CampaignRunner runner(options.campaign);

  // Generation 0: the seed grid, through the ordinary campaign path.
  const std::vector<core::CampaignCellSpec> seed_cells = core::expand_to_cells(seed_grid);
  core::CampaignResult seed_run = runner.run(seed_cells);

  std::set<std::string> seen_specs;   // spec JSON — never evaluate a spec twice
  std::set<fw::BugId> known_bugs;     // bugs any scenario has manifested so far
  // Mutation parents when the corpus is empty: a micro-budget seed grid can
  // produce zero coverage (every run bricks on the pad with one mode), and
  // the loop must still make progress — a mutated injection window often
  // reaches edges the unconstrained seeds never do.
  std::vector<core::ScenarioSpec> seed_specs;
  FuzzGenerationStats seed_stats;
  for (std::size_t i = 0; i < seed_run.cells.size(); ++i) {
    core::CampaignCellResult& cell = seed_run.cells[i];
    core::merge_coverage(result.baseline_coverage, cell.report.edge_coverage);
    for (const auto& [bug, index] : cell.report.bug_first_found) known_bugs.insert(bug);
    seen_specs.insert(cell.spec.scenario.to_json());
    seed_specs.push_back(cell.spec.scenario);
    CorpusEntry entry;
    entry.spec = cell.spec.scenario;
    entry.root = cell.spec.scenario;
    entry.coverage = cell.report.edge_coverage;
    entry.generation = 0;
    entry.report = std::move(cell.report);
    seed_stats.admitted += result.corpus.consider(std::move(entry)) ? 1 : 0;
  }
  result.evaluations += static_cast<int>(seed_run.cells.size());
  seed_stats.generation = 0;
  seed_stats.evaluated = static_cast<int>(seed_run.cells.size());
  seed_stats.corpus_size = static_cast<int>(result.corpus.entries().size());
  seed_stats.coverage_keys = static_cast<int>(result.corpus.coverage_union().size());
  seed_stats.new_bugs = static_cast<int>(known_bugs.size());
  result.curve.push_back(seed_stats);

  for (int generation = 1; generation <= options.generations; ++generation) {
    // Draw this generation's batch: parent picked uniformly from the corpus,
    // mutants deduped (across the whole run) by spec identity. The attempt
    // bound keeps a saturated space from spinning forever.
    std::vector<core::CampaignCellSpec> batch;
    std::vector<core::ScenarioSpec> roots;
    const int max_attempts = 20 * options.mutants_per_generation;
    for (int attempt = 0;
         attempt < max_attempts &&
         static_cast<int>(batch.size()) < options.mutants_per_generation;
         ++attempt) {
      const auto& entries = result.corpus.entries();
      const core::ScenarioSpec* parent_spec = nullptr;
      const core::ScenarioSpec* parent_root = nullptr;
      if (!entries.empty()) {
        const CorpusEntry& parent = entries[rng.next_below(entries.size())];
        parent_spec = &parent.spec;
        parent_root = &parent.root;
      } else {
        const core::ScenarioSpec& seed = seed_specs[rng.next_below(seed_specs.size())];
        parent_spec = &seed;
        parent_root = &seed;
      }
      core::ScenarioSpec mutant = mutate(rng, *parent_spec, options.mutation);
      if (!seen_specs.insert(mutant.to_json()).second) continue;
      core::CampaignCellSpec cell;
      cell.scenario = std::move(mutant);
      batch.push_back(std::move(cell));
      roots.push_back(*parent_root);
    }

    FuzzGenerationStats stats;
    stats.generation = generation;
    stats.evaluated = static_cast<int>(batch.size());
    if (!batch.empty()) {
      core::CampaignResult run = runner.run(batch);
      result.evaluations += static_cast<int>(run.cells.size());
      for (std::size_t i = 0; i < run.cells.size(); ++i) {
        core::CampaignCellResult& cell = run.cells[i];
        std::vector<fw::BugId> fresh;
        for (const auto& [bug, index] : cell.report.bug_first_found) {
          if (known_bugs.insert(bug).second) fresh.push_back(bug);
        }
        CorpusEntry entry;
        entry.spec = cell.spec.scenario;
        entry.root = roots[i];
        entry.coverage = cell.report.edge_coverage;
        entry.generation = generation;
        entry.report = std::move(cell.report);
        stats.admitted += result.corpus.consider(std::move(entry)) ? 1 : 0;
        if (!fresh.empty()) {
          FuzzDiscovery discovery;
          discovery.generation = generation;
          discovery.new_bugs = fresh;
          discovery.spec = cell.spec.scenario;
          discovery.minimized = p_minimize(cell.spec.scenario, roots[i], fresh, options,
                                           result.evaluations);
          stats.new_bugs += static_cast<int>(fresh.size());
          result.discoveries.push_back(std::move(discovery));
        }
      }
    }
    stats.corpus_size = static_cast<int>(result.corpus.entries().size());
    stats.coverage_keys = static_cast<int>(result.corpus.coverage_union().size());
    result.curve.push_back(stats);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

std::string fuzz_report_json(const FuzzResult& result, const FuzzOptions& options) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"fuzz\": {\n";
  os << "    \"generations\": " << options.generations << ",\n";
  os << "    \"mutants_per_generation\": " << options.mutants_per_generation << ",\n";
  os << "    \"seed\": " << options.seed << ",\n";
  os << "    \"minimize_budget\": " << options.minimize_budget << ",\n";
  os << "    \"evaluations\": " << result.evaluations << ",\n";
  os << "    \"wall_seconds\": " << result.wall_seconds << ",\n";
  os << "    \"baseline_coverage_keys\": " << result.baseline_coverage.size() << ",\n";
  os << "    \"coverage_keys\": " << result.corpus.coverage_union().size() << ",\n";
  os << "    \"corpus_evicted\": " << result.corpus.evicted() << ",\n";
  os << "    \"coverage_curve\": [\n";
  for (std::size_t i = 0; i < result.curve.size(); ++i) {
    const FuzzGenerationStats& row = result.curve[i];
    os << "      {\"generation\": " << row.generation << ", \"evaluated\": " << row.evaluated
       << ", \"admitted\": " << row.admitted << ", \"corpus_size\": " << row.corpus_size
       << ", \"coverage_keys\": " << row.coverage_keys << ", \"new_bugs\": " << row.new_bugs
       << "}";
    if (i + 1 < result.curve.size()) os << ",";
    os << "\n";
  }
  os << "    ]\n";
  os << "  },\n";
  os << "  \"corpus\": [\n";
  const auto& entries = result.corpus.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "    {\n";
    os << "      \"generation\": " << entries[i].generation << ",\n";
    os << "      \"new_keys\": ";
    p_append_key_array(os, entries[i].new_keys);
    os << ",\n";
    os << "      \"scenario\":\n" << entries[i].spec.to_json(6) << "\n";
    os << "    }";
    if (i + 1 < entries.size()) os << ",";
    os << "\n";
  }
  os << "  ],\n";
  os << "  \"discoveries\": [\n";
  for (std::size_t i = 0; i < result.discoveries.size(); ++i) {
    const FuzzDiscovery& discovery = result.discoveries[i];
    os << "    {\n";
    os << "      \"generation\": " << discovery.generation << ",\n";
    os << "      \"new_bugs\": [";
    for (std::size_t b = 0; b < discovery.new_bugs.size(); ++b) {
      if (b) os << ", ";
      os << "\"" << util::json_escape(fw::bug_info(discovery.new_bugs[b]).report_name)
         << "\"";
    }
    os << "],\n";
    os << "      \"scenario\":\n" << discovery.spec.to_json(6) << ",\n";
    os << "      \"minimized\":\n" << discovery.minimized.to_json(6) << "\n";
    os << "    }";
    if (i + 1 < result.discoveries.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace avis::fuzz
