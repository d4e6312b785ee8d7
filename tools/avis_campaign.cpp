// Campaign CLI: run an (approach x personality x workload x environment)
// scenario grid through core::CampaignRunner and emit the machine-readable
// JSON report the bench trajectory tracks (per-cell experiments/sec, unsafe
// counts, bug-first-found simulation indices).
//
// Grids are declarative core::ScenarioGrid documents (docs/SCENARIOS.md).
// The CSV flags are sugar that builds a grid through the registries; the
// same grid can be written out with --dump-scenario and run later (or on
// another host) with --scenario-file, producing a report identical to the
// flag-built run modulo wall-clock timing fields. --journal/--resume make a
// long run crash-safe (docs/CRASH_SAFETY.md).
//
// Examples (one command each; continuation lines are indented):
//   avis_campaign                                   # full 4x2x2 grid, 2 h budget
//   avis_campaign --approaches avis,random --personalities ardupilot
//                 --workloads box-manual,fence-mission
//                 --budget-ms 60000 --out report.json   # CI smoke grid
//   avis_campaign --workloads wind-gust-box --environments gusty
//                 --dump-scenario grid.json             # write, don't run
//   avis_campaign --scenario-file grid.json --out report.json
//   avis_campaign --list                                # registry listing
//
// Unknown approach/personality/workload/environment/bug names (and unknown
// flags) exit non-zero with a "did you mean ...? registered ... are: ..."
// diagnostic sourced from the registries.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/common.h"
#include "core/campaign.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "fuzz/fuzzer.h"
#include "sim/environment_presets.h"
#include "util/table.h"
#include "workload/registry.h"

using namespace avis;

namespace {

// Human-readable build identity, printed by --version.
constexpr const char* kBuildVersion = "avis-campaign 0.6";

struct Options {
  core::ScenarioGrid grid;
  bool grid_flag_seen = false;  // any CSV/grid-shaping flag present
  int total_workers = util::default_worker_count();
  int cell_workers = 0;        // 0 = derive from total via split_worker_budget
  int experiment_workers = 0;  // 0 = derive
  std::string scenario_file;   // load the grid from this JSON document
  std::string dump_scenario;   // write the grid JSON here and exit ('-' = stdout)
  std::string out;             // JSON report path; "-" = stdout; empty = no JSON
  core::CheckpointConfig checkpoints;
  bool quiet = false;
  bool list = false;

  // Coverage-guided scenario fuzzing (docs/FUZZING.md). --fuzz N treats the
  // grid as the seed corpus and runs N mutation generations instead of a
  // plain campaign.
  long long fuzz_generations = 0;  // 0 = fuzzing off
  long long fuzz_mutants = 8;
  std::uint64_t fuzz_seed = 1;
  bool fuzz_flag_seen = false;  // any --fuzz-* satellite flag present
  std::string fuzz_corpus;      // corpus document path ('-' = stdout)
  std::string fuzz_report;      // fuzz report path ('-' = stdout)

  // Crash-safe campaigns (docs/CRASH_SAFETY.md).
  std::string journal_path;  // write-ahead cell journal for a fresh run
  std::string resume_path;   // continue a journaled run, skipping done cells
};

// SIGINT/SIGTERM request a graceful stop: finish in-flight cells, flush the
// journal, write a partial report, exit 3. Only a flag is set here — all the
// work happens on the normal paths via the should_stop callback.
volatile std::sig_atomic_t g_stop_signal = 0;
void handle_stop_signal(int sig) { g_stop_signal = sig; }

std::vector<std::string> split_csv(const std::string& arg) {
  std::vector<std::string> parts;
  std::istringstream is(arg);
  std::string part;
  while (std::getline(is, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// Whole-string numeric parse: trailing garbage ("60s") is an error, not a
// silent zero that would make every cell's budget start exhausted, and so
// is a value past the range of long long, which strtoll clamps.
bool parse_number(const char* text, long long& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text, &end, 10);
  return errno != ERANGE && end != nullptr && *end == '\0';
}

// Largest --checkpoint-budget-mb whose byte count fits in std::size_t.
constexpr long long kMaxBudgetMb =
    static_cast<long long>(std::min<std::size_t>(LLONG_MAX, SIZE_MAX >> 20));

// Validate a CSV list against a registry up front so the diagnostic names
// the flag that carried the typo.
template <typename Factory>
bool check_names(const std::vector<std::string>& names,
                 const util::Registry<Factory>& registry, const char* flag) {
  for (const std::string& name : names) {
    if (!registry.contains(name)) {
      std::cerr << flag << ": "
                << util::unknown_name_message(registry.what(), registry.plural(), name,
                                              registry.names())
                << "\n";
      return false;
    }
  }
  return true;
}

template <typename Factory>
void print_registry(std::ostream& os, const util::Registry<Factory>& registry) {
  os << registry.plural() << ":\n";
  for (const auto& entry : registry.entries()) {
    os << "  " << entry.name;
    for (std::size_t pad = entry.name.size(); pad < 16; ++pad) os << ' ';
    os << " " << entry.description << "\n";
  }
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --scenario-file FILE     run the ScenarioGrid JSON document (docs/SCENARIOS.md);\n"
      << "                           exclusive with the grid-shaping flags below\n"
      << "  --dump-scenario FILE     write the grid the flags describe as JSON and exit\n"
      << "                           ('-' = stdout)\n"
      << "  --budget-ms N            per-cell simulated budget (default 7200000 = 2 h)\n"
      << "  --seed N                 checker seed per cell (default 100)\n"
      << "  --approaches LIST        csv of registered approaches (default all four)\n"
      << "  --personalities LIST     csv of registered personalities (default both)\n"
      << "  --workloads LIST         csv of registered workloads\n"
      << "                           (default box-manual,fence-mission)\n"
      << "  --environments LIST      csv of registered environment presets (default calm)\n"
      << "  --bugs NAME              bug population selector (default current)\n"
      << "  --workers N              total hardware budget for the worker split\n"
      << "  --cell-workers N         override: cells run concurrently (0 = derive)\n"
      << "  --experiment-workers N   override: experiment pool size per cell (0 = derive)\n"
      << "  --no-checkpoints         disable checkpointed prefix forking (A/B timing;\n"
      << "                           reports are bit-identical either way)\n"
      << "  --no-checkpoint-trees    keep the fault-free root but disable faulty-prefix\n"
      << "                           snapshots (A/B timing; reports identical modulo\n"
      << "                           checkpoint counters)\n"
      << "  --checkpoint-interval-ms N  snapshot cadence for the prefix run (default 1000)\n"
      << "  --checkpoint-budget-mb N retained snapshot budget, root + tree combined\n"
      << "                           (default 64)\n"
      << "  --out FILE               write the JSON report to FILE ('-' = stdout)\n"
      << "fuzz mode (docs/FUZZING.md):\n"
      << "  --fuzz N                 run N coverage-guided mutation generations seeded\n"
      << "                           from the grid instead of a plain campaign\n"
      << "  --fuzz-mutants N         mutants evaluated per generation (default 8)\n"
      << "  --fuzz-seed N            mutation rng seed (default 1; same seed =>\n"
      << "                           byte-identical corpus)\n"
      << "  --fuzz-corpus FILE       write the corpus as a replayable ScenarioGrid\n"
      << "                           document ('-' = stdout; rerun via --scenario-file)\n"
      << "  --fuzz-report FILE       write the fuzz report (coverage growth curve,\n"
      << "                           corpus, discoveries) as JSON ('-' = stdout)\n"
      << "  --list                   print every registry (names + descriptions) and exit\n"
      << "  --quiet                  suppress the text table and status notes\n"
      << "  --version                print the build version and exit\n"
      << "crash safety (docs/CRASH_SAFETY.md):\n"
      << "  --journal FILE           write-ahead cell journal: one fsync'd record per\n"
      << "                           completed cell, so a crash loses at most the\n"
      << "                           in-flight cells\n"
      << "  --resume FILE            continue the campaign journaled in FILE: verify the\n"
      << "                           grid matches, skip journaled cells, run the rest,\n"
      << "                           and emit the same merged report an uninterrupted\n"
      << "                           run would have (modulo wall-clock fields)\n"
      << "exit codes: 0 complete, 1 runtime failure, 2 bad flags or --resume grid\n"
      << "mismatch, 3 interrupted by SIGINT/SIGTERM (partial report written)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  // The CLI default grid is the paper evaluation grid: ScenarioGrid's
  // defaults already carry it (all four approaches, both personalities,
  // both default workloads, calm environment).
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto number = [&](long long& out) {
      const char* v = value();
      if (!parse_number(v, out)) {
        std::cerr << "bad numeric value for " << arg << ": " << (v ? v : "(missing)") << "\n";
        return false;
      }
      return true;
    };
    // A numeric value that must lie in [lo, hi], so it also fits the type
    // it is stored in.
    auto bounded = [&](long long& out, long long lo, long long hi) {
      if (!number(out)) return false;
      if (out < lo || out > hi) {
        std::cerr << arg << " must be in [" << lo << ", " << hi << "] (got " << out << ")\n";
        return false;
      }
      return true;
    };
    // A seed follows a scenario file's rule (util::Json::as_uint64): an
    // unsigned 64-bit integer, with no sign to wrap a negative around.
    auto seed = [&](std::uint64_t& out) {
      const char* v = value();
      char* end = nullptr;
      errno = 0;
      if (v != nullptr && *v >= '0' && *v <= '9') out = std::strtoull(v, &end, 10);
      if (end == nullptr || *end != '\0' || errno == ERANGE) {
        std::cerr << arg << " must be an unsigned 64-bit integer (got " << (v ? v : "(missing)")
                  << ")\n";
        return false;
      }
      return true;
    };
    auto csv_list = [&](std::vector<std::string>& out) {
      const char* v = value();
      if (v == nullptr) return false;
      out = split_csv(v);
      options.grid_flag_seen = true;
      return !out.empty();
    };
    long long n = 0;
    if (arg == "--budget-ms") {
      if (!number(n)) return usage(argv[0]);
      if (n <= 0) {
        std::cerr << "--budget-ms must be positive (got " << n << ")\n";
        return usage(argv[0]);
      }
      options.grid.budget_ms = n;
      options.grid_flag_seen = true;
    } else if (arg == "--seed") {
      if (!seed(options.grid.seed)) return usage(argv[0]);
      options.grid_flag_seen = true;
    } else if (arg == "--workers") {
      if (!bounded(n, 1, INT_MAX)) return usage(argv[0]);
      options.total_workers = static_cast<int>(n);
    } else if (arg == "--cell-workers") {
      // 0 keeps the derived split.
      if (!bounded(n, 0, INT_MAX)) return usage(argv[0]);
      options.cell_workers = static_cast<int>(n);
    } else if (arg == "--experiment-workers") {
      if (!bounded(n, 0, INT_MAX)) return usage(argv[0]);
      options.experiment_workers = static_cast<int>(n);
    } else if (arg == "--approaches") {
      if (!csv_list(options.grid.approaches)) return usage(argv[0]);
      if (!check_names(options.grid.approaches, core::approach_registry(), "--approaches")) {
        return 2;
      }
    } else if (arg == "--personalities") {
      if (!csv_list(options.grid.personalities)) return usage(argv[0]);
      if (!check_names(options.grid.personalities, core::personality_registry(),
                       "--personalities")) {
        return 2;
      }
    } else if (arg == "--workloads") {
      if (!csv_list(options.grid.workloads)) return usage(argv[0]);
      if (!check_names(options.grid.workloads, workload::workload_registry(), "--workloads")) {
        return 2;
      }
    } else if (arg == "--environments") {
      if (!csv_list(options.grid.environments)) return usage(argv[0]);
      if (!check_names(options.grid.environments, sim::environment_registry(),
                       "--environments")) {
        return 2;
      }
    } else if (arg == "--bugs") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.grid.bugs = v;
      options.grid_flag_seen = true;
      if (!check_names({options.grid.bugs}, core::bug_selector_registry(), "--bugs")) {
        return 2;
      }
    } else if (arg == "--scenario-file") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.scenario_file = v;
    } else if (arg == "--dump-scenario") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.dump_scenario = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.out = v;
    } else if (arg == "--no-checkpoints") {
      options.checkpoints.enabled = false;
    } else if (arg == "--no-checkpoint-trees") {
      options.checkpoints.trees = false;
    } else if (arg == "--checkpoint-budget-mb") {
      if (!bounded(n, 1, kMaxBudgetMb)) return usage(argv[0]);
      options.checkpoints.byte_budget =
          static_cast<std::size_t>(n) * std::size_t{1024} * std::size_t{1024};
    } else if (arg == "--checkpoint-interval-ms") {
      if (!number(n)) return usage(argv[0]);
      if (n <= 0) {
        std::cerr << "--checkpoint-interval-ms must be positive (got " << n << ")\n";
        return usage(argv[0]);
      }
      options.checkpoints.interval_ms = n;
    } else if (arg == "--fuzz") {
      if (!bounded(n, 1, INT_MAX)) return usage(argv[0]);
      options.fuzz_generations = n;
    } else if (arg == "--fuzz-mutants") {
      if (!bounded(n, 1, INT_MAX)) return usage(argv[0]);
      options.fuzz_mutants = n;
      options.fuzz_flag_seen = true;
    } else if (arg == "--fuzz-seed") {
      if (!seed(options.fuzz_seed)) return usage(argv[0]);
      options.fuzz_flag_seen = true;
    } else if (arg == "--fuzz-corpus") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.fuzz_corpus = v;
      options.fuzz_flag_seen = true;
    } else if (arg == "--fuzz-report") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.fuzz_report = v;
      options.fuzz_flag_seen = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--version") {
      std::cout << kBuildVersion << "\n";
      return 0;
    } else if (arg == "--journal") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.journal_path = v;
    } else if (arg == "--resume") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.resume_path = v;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    }
  }

  if (options.list) {
    print_registry(std::cout, core::approach_registry());
    print_registry(std::cout, core::personality_registry());
    print_registry(std::cout, workload::workload_registry());
    print_registry(std::cout, sim::environment_registry());
    print_registry(std::cout, core::bug_selector_registry());
    return 0;
  }

  // Fuzz flag combinations are rejected here, before any simulation budget
  // burns: the check needs nothing but the parsed flags.
  if (options.fuzz_generations == 0 && options.fuzz_flag_seen) {
    std::cerr << "--fuzz-mutants/--fuzz-seed/--fuzz-corpus/--fuzz-report only apply in "
                 "fuzz mode; add --fuzz N (docs/FUZZING.md)\n";
    return 2;
  }
  if (options.fuzz_generations > 0 && (!options.out.empty() || !options.dump_scenario.empty())) {
    std::cerr << "--fuzz writes --fuzz-corpus/--fuzz-report documents; --out and "
                 "--dump-scenario do not apply\n";
    return 2;
  }

  if (!options.journal_path.empty() && !options.resume_path.empty()) {
    std::cerr << "--journal starts a fresh journal and --resume continues one; pass "
                 "exactly one\n";
    return 2;
  }
  if ((!options.journal_path.empty() || !options.resume_path.empty()) &&
      (options.fuzz_generations > 0 || !options.dump_scenario.empty())) {
    std::cerr << "--journal/--resume apply to campaign runs; they do not combine with "
                 "--fuzz or --dump-scenario\n";
    return 2;
  }

  if (!options.scenario_file.empty() && options.grid_flag_seen) {
    std::cerr << "--scenario-file carries the whole grid; combining it with grid-shaping "
                 "flags (--approaches/--personalities/--workloads/--environments/--bugs/"
                 "--budget-ms/--seed) is ambiguous\n";
    return 2;
  }

  if (!options.scenario_file.empty()) {
    std::ifstream file(options.scenario_file);
    if (!file) {
      std::cerr << "cannot open scenario file " << options.scenario_file << "\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    try {
      options.grid = core::ScenarioGrid::from_json(text.str());
    } catch (const std::exception& err) {
      std::cerr << options.scenario_file << ": " << err.what() << "\n";
      return 2;
    }
  }

  // Resolve every registry name before running (or dumping): a scenario
  // file with a typo fails here with the registered-name listing.
  std::vector<core::CampaignCellSpec> grid;
  try {
    grid = core::expand_to_cells(options.grid);
  } catch (const std::exception& err) {
    std::cerr << err.what() << "\n";
    return 2;
  }

  if (!options.dump_scenario.empty()) {
    const std::string json = options.grid.to_json();
    if (options.dump_scenario == "-") {
      std::cout << json;
    } else {
      std::ofstream file(options.dump_scenario);
      if (!file) {
        std::cerr << "cannot open " << options.dump_scenario << " for writing\n";
        return 1;
      }
      file << json;
      if (!options.quiet) {
        std::cout << "scenario grid (" << grid.size() << " cells) written to "
                  << options.dump_scenario << "\n";
      }
    }
    return 0;
  }

  if (options.fuzz_generations > 0) {
    fuzz::FuzzOptions fuzz_options;
    fuzz_options.generations = static_cast<int>(options.fuzz_generations);
    fuzz_options.mutants_per_generation = static_cast<int>(options.fuzz_mutants);
    fuzz_options.seed = options.fuzz_seed;
    fuzz_options.campaign.total_workers = options.total_workers;
    fuzz_options.campaign.cell_workers = options.cell_workers;
    fuzz_options.campaign.experiment_workers = options.experiment_workers;
    fuzz_options.campaign.checkpoints = options.checkpoints;
    fuzz::FuzzResult fuzz_result;
    try {
      fuzz_result = fuzz::run_fuzz(options.grid, fuzz_options);
    } catch (const std::exception& err) {
      std::cerr << "fuzz failed: " << err.what() << "\n";
      return 1;
    }
    if (!options.quiet) {
      util::TextTable t({"gen", "evaluated", "admitted", "corpus", "cov keys", "new bugs"});
      for (const auto& row : fuzz_result.curve) {
        t.add(row.generation, row.evaluated, row.admitted, row.corpus_size,
              row.coverage_keys, row.new_bugs);
      }
      t.render(std::cout);
      std::cout << "coverage keys: " << fuzz_result.baseline_coverage.size()
                << " (seed grid) -> " << fuzz_result.corpus.coverage_union().size()
                << " (corpus), " << fuzz_result.evaluations << " evaluations\n";
      for (const auto& discovery : fuzz_result.discoveries) {
        std::cout << "new bug (gen " << discovery.generation << "):";
        for (fw::BugId bug : discovery.new_bugs) {
          std::cout << " " << fw::bug_info(bug).report_name;
        }
        std::cout << " via " << discovery.minimized.personality << "/"
                  << discovery.minimized.workload << "/" << discovery.minimized.environment
                  << "\n";
      }
    }
    const auto write_document = [&](const std::string& path, const std::string& json,
                                    const char* what) {
      if (path.empty()) return true;
      if (path == "-") {
        std::cout << json;
        return true;
      }
      std::ofstream file(path);
      if (!file) {
        std::cerr << "cannot open " << path << " for writing\n";
        return false;
      }
      file << json;
      if (!options.quiet) std::cout << what << " written to " << path << "\n";
      return true;
    };
    if (!write_document(options.fuzz_corpus, fuzz_result.corpus.to_scenario_grid_json(),
                        "fuzz corpus")) {
      return 1;
    }
    if (!write_document(options.fuzz_report, fuzz::fuzz_report_json(fuzz_result, fuzz_options),
                        "fuzz report")) {
      return 1;
    }
    return 0;
  }

  const std::size_t grid_cells = grid.size();

  // Journal / resume setup. On --resume the loaded header must bind the
  // exact campaign the flags describe — any drift (different grid, different
  // checkpoint knobs) would merge reports from two different campaigns, so
  // a mismatch is a usage error (exit 2) with a field-by-field diff.
  std::optional<core::CampaignJournal> journal;
  core::CampaignJournal::Loaded loaded;
  const bool resuming = !options.resume_path.empty();
  if (resuming) {
    try {
      loaded = core::CampaignJournal::load(options.resume_path);
    } catch (const core::JournalError& err) {
      std::cerr << "--resume: " << err.what() << "\n";
      return 2;
    }
    const core::CampaignJournal::Header requested =
        core::CampaignJournal::bind(grid, options.checkpoints);
    const std::string diff =
        core::CampaignJournal::header_diff(loaded.header, requested, grid);
    if (!diff.empty()) {
      std::cerr << "--resume: journal " << options.resume_path
                << " was written by a different campaign:\n"
                << diff;
      return 2;
    }
    if (!options.quiet) {
      if (loaded.dropped_torn_record) {
        std::cerr << "[journal] dropped a torn final record (crash mid-append); "
                     "that cell re-runs\n";
      }
      std::cerr << "[journal] " << loaded.cells.size() << "/" << grid_cells
                << " cells already journaled in " << options.resume_path << "\n";
    }
    try {
      journal.emplace(core::CampaignJournal::append_to(options.resume_path));
    } catch (const core::JournalError& err) {
      std::cerr << "--resume: " << err.what() << "\n";
      return 2;
    }
  } else if (!options.journal_path.empty()) {
    try {
      journal.emplace(core::CampaignJournal::start(
          options.journal_path,
          core::CampaignJournal::bind(grid, options.checkpoints)));
    } catch (const core::JournalError& err) {
      std::cerr << "--journal: " << err.what() << "\n";
      return 1;
    }
  }

  // Graceful interruption: the handlers only raise a flag, which the
  // runner's should_stop callback polls between cells.
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  core::CampaignOptions campaign_options;
  campaign_options.total_workers = options.total_workers;
  campaign_options.cell_workers = options.cell_workers;
  campaign_options.experiment_workers = options.experiment_workers;
  campaign_options.checkpoints = options.checkpoints;
  campaign_options.journal = journal ? &*journal : nullptr;
  campaign_options.resume = resuming ? &loaded.cells : nullptr;
  campaign_options.should_stop = [] { return g_stop_signal != 0; };
  core::CampaignResult result;
  try {
    result = core::CampaignRunner(campaign_options).run(grid);
  } catch (const core::JournalError& err) {
    std::cerr << "journal write failed: " << err.what() << "\n";
    return 1;
  }

  if (result.interrupted && !options.quiet) {
    std::cerr << "campaign interrupted (signal " << static_cast<int>(g_stop_signal)
              << "): " << result.cells.size() << "/" << grid_cells
              << " cells completed; partial report written"
              << (journal ? " and journaled — finish with --resume " + journal->path()
                          : "")
              << "\n";
  }

  if (!options.quiet) {
    util::TextTable t({"#", "approach", "firmware", "workload", "environment", "sims",
                       "labels", "unsafe #", "bugs", "ckpt hit", "exp/s"});
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const auto& cell = result.cells[i];
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.2f", cell.experiments_per_sec());
      char hit_rate[32];
      std::snprintf(hit_rate, sizeof(hit_rate), "%.0f%%",
                    100.0 * cell.report.checkpoint_hit_rate());
      t.add(static_cast<int>(i), cell.spec.display_label(), cell.spec.scenario.personality,
            cell.spec.scenario.workload, cell.spec.scenario.environment,
            cell.report.experiments, cell.report.labels, cell.report.unsafe_count(),
            static_cast<int>(cell.report.bug_first_found.size()), hit_rate, rate);
    }
    t.render(std::cout);
    bench::print_campaign_footer(std::cout, result);
  }

  if (!options.out.empty()) {
    const std::string json = core::campaign_report_json(result);
    if (options.out == "-") {
      std::cout << json;
    } else {
      std::ofstream file(options.out);
      if (!file) {
        std::cerr << "cannot open " << options.out << " for writing\n";
        return 1;
      }
      file << json;
      if (!options.quiet) std::cout << "JSON report written to " << options.out << "\n";
    }
  }
  return result.interrupted ? 3 : 0;
}
