// Campaign CLI: run an (approach x personality x workload x environment)
// scenario grid through core::CampaignRunner and emit the machine-readable
// JSON report the bench trajectory tracks (per-cell experiments/sec, unsafe
// counts, bug-first-found simulation indices). `avis_campaign --help` lists
// every flag; docs/SCENARIOS.md, docs/FUZZING.md and docs/CRASH_SAFETY.md
// describe grids, fuzz mode and --journal/--resume.
//
// Each flag is one row of p_flags(), which drives parsing, validation,
// --help and the cross-flag rules; numbers follow util::parse_integer, as
// in scenario files and journals. Nothing runs until the whole command
// line parses. Output paths are checked before any simulation, and a file
// is replaced only by a finished document. A document sent to stdout ('-')
// moves the text table and notes to stderr. Bad flags, unknown registry
// names ("did you mean ...?") and conflicting flags exit 2.
//
// --explain PLAN replays one experiment of a one-scenario grid exactly as
// the checker runs it and prints why it was safe or unsafe (p_explain).
//
// Examples:
//   avis_campaign                                # full 4x2x2 grid, 2 h budget
//   avis_campaign --workloads wind-gust-box --environments gusty
//                 --dump-scenario grid.json          # write the grid, don't run
//   avis_campaign --scenario-file grid.json --out report.json
//   avis_campaign --approaches avis --personalities ardupilot
//                 --workloads fence-mission --explain '{barometer#0@3520ms}'
#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "../bench/common.h"
#include "core/campaign.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "fuzz/fuzzer.h"
#include "sim/environment_presets.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/registry.h"

using namespace avis;

namespace {

// Human-readable build identity, printed by --version.
constexpr const char* kBuildVersion = "avis-campaign 0.6";

// Everything the command line sets, parsed straight into the structs the
// run consumes. The grid defaults are the paper evaluation grid.
struct Cli {
  Cli() { fuzz.generations = 0; }  // 0 = a plain campaign, not fuzz mode
  core::ScenarioGrid grid;
  core::CampaignOptions campaign;
  fuzz::FuzzOptions fuzz;
  std::string scenario_file, out, dump_scenario, fuzz_corpus, fuzz_report, journal, resume;
  std::optional<core::FaultPlan> explain;
  bool quiet = false, list = false, version = false, help = false;
};

// A row's group places it in --help and in the cross-flag rules: grid rows
// conflict with --scenario-file, fuzz rows need --fuzz.
enum Group { kGrid, kRun, kOutput, kAction, kFuzz, kCrashSafety };
constexpr const char* kHeadings[] = {"", "", "", "", "fuzz mode (docs/FUZZING.md):",
                                     "crash safety (docs/CRASH_SAFETY.md):"};

// Parses a flag's value (nullptr for a switch) into its target; prints the
// diagnostic and returns false when the value is refused.
using Apply = std::function<bool(const char* flag, const char* value)>;

struct Flag {
  const char* name;
  const char* metavar;  // nullptr: a switch, which takes no value
  Group group;
  const char* help;  // nullptr: an alias, documented on its long form
  Apply apply;
  const std::string* document = nullptr;  // a JSON output path ('-' = stdout)
};

// --- Value kinds ------------------------------------------------------------

Apply set(bool& target, bool value = true) {
  return [&target, value](const char*, const char*) {
    target = value;
    return true;
  };
}

Apply path(std::string& target) {
  return [&target](const char*, const char* value) {
    target = value;
    return true;
  };
}

// A CSV list of registered names, or for a string target one name taken
// whole. The diagnostic names the flag that carried the typo.
template <typename Target, typename Factory>
Apply names(Target& target, const util::Registry<Factory>& registry) {
  return [&target, &registry](const char* flag, const char* value) {
    constexpr bool kList = std::is_same_v<Target, std::vector<std::string>>;
    std::vector<std::string> names;
    std::istringstream csv(value);
    for (std::string name; std::getline(csv, name, ',');) {
      if (!name.empty()) names.push_back(name);
    }
    if constexpr (!kList) names = {value};
    try {
      for (const std::string& name : names) registry.at(name);
    } catch (const util::UnknownNameError& err) {
      std::cerr << flag << ": " << err.what() << "\n";
      return false;
    }
    if constexpr (kList) {
      target = std::move(names);
    } else {
      target = value;
    }
    return !target.empty();
  };
}

// A signed integer in [lo, hi], stored shifted left by `shift` bits (20
// turns MB into bytes); hi = kPositive reads as "must be positive".
constexpr std::int64_t kPositive = INT64_MAX;
template <typename T>
Apply integer(T& target, std::int64_t lo, std::int64_t hi, int shift = 0) {
  return [&target, lo, hi, shift](const char* flag, const char* value) {
    const std::optional<std::int64_t> n = util::parse_integer<std::int64_t>(value);
    if (!n) {
      std::cerr << "bad numeric value for " << flag << ": " << value << "\n";
      return false;
    }
    if (*n < lo || *n > hi) {
      if (hi == kPositive) {
        std::cerr << flag << " must be positive (got " << *n << ")\n";
      } else {
        std::cerr << flag << " must be in [" << lo << ", " << hi << "] (got " << *n << ")\n";
      }
      return false;
    }
    target = static_cast<T>(*n) << shift;
    return true;
  };
}

// A seed follows a scenario file's rule: an unsigned 64-bit integer, with
// no sign to wrap a negative around.
Apply seed(std::uint64_t& target) {
  return [&target](const char* flag, const char* value) {
    const std::optional<std::uint64_t> n = util::parse_integer<std::uint64_t>(value);
    if (!n) std::cerr << flag << " must be an unsigned 64-bit integer (got " << value << ")\n";
    target = n.value_or(target);
    return n.has_value();
  };
}

// A fault plan exactly as FaultPlan::to_string prints it: "{}" or
// "{barometer#0@3520ms, GPS#0@9000ms}", every instance on the iris suite.
Apply plan(std::optional<core::FaultPlan>& target) {
  return [&target](const char* flag, const char* value) {
    const auto refuse = [&](const char* why) {
      std::cerr << flag << ": " << why << " (got '" << value
                << "'; e.g. '{barometer#0@3520ms, GPS#0@9000ms}')\n";
      return false;
    };
    const std::string_view text = value;
    if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
      return refuse("a plan is a braced list");
    }
    const sensors::SuiteConfig suite = core::SimulationHarness::iris_suite();
    core::FaultPlan parsed;
    for (std::string_view rest = text.substr(1, text.size() - 2); !rest.empty();) {
      const std::size_t comma = rest.find(", ");
      const std::string_view event = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view() : rest.substr(comma + 2);
      const std::size_t hash = event.find('#'), at = event.find('@');
      if ((comma != std::string_view::npos && rest.empty()) || hash == std::string_view::npos ||
          at == std::string_view::npos || at < hash || !event.ends_with("ms")) {
        return refuse("each event is SENSOR#INSTANCE@Tms, separated by ', '");
      }
      sensors::SensorType type;
      try {
        type = core::resolve_fault_type(event.substr(0, hash));
      } catch (const util::UnknownNameError& err) {
        std::cerr << flag << ": " << err.what() << "\n";
        return false;
      }
      const auto instance = util::parse_integer<int>(event.substr(hash + 1, at - hash - 1));
      const auto time_ms =
          util::parse_integer<sim::SimTimeMs>(event.substr(at + 1, event.size() - at - 3));
      if (!instance || *instance < 0 || *instance >= suite.count(type)) {
        return refuse("no such sensor instance on the iris suite");
      }
      if (!time_ms || *time_ms < 0) return refuse("a time is a non-negative integer in ms");
      parsed.add(*time_ms, {type, static_cast<std::uint8_t>(*instance)});
    }
    target = std::move(parsed);
    return true;
  };
}

// Largest --checkpoint-budget-mb whose byte count fits in std::size_t.
constexpr std::int64_t kMaxBudgetMb = SIZE_MAX >> 20;

std::vector<Flag> p_flags(Cli& cli) {
  core::ScenarioGrid& grid = cli.grid;
  core::CampaignOptions& run = cli.campaign;
  core::CheckpointConfig& checkpoints = cli.campaign.checkpoints;
  return {
      {"--approaches", "LIST", kGrid, "csv of registered approaches (default all four)",
       names(grid.approaches, core::approach_registry())},
      {"--personalities", "LIST", kGrid, "csv of registered personalities (default both)",
       names(grid.personalities, core::personality_registry())},
      {"--workloads", "LIST", kGrid, "csv of workloads (default box-manual,fence-mission)",
       names(grid.workloads, workload::workload_registry())},
      {"--environments", "LIST", kGrid, "csv of registered environment presets (default calm)",
       names(grid.environments, sim::environment_registry())},
      {"--bugs", "NAME", kGrid, "bug population selector (default current)",
       names(grid.bugs, core::bug_selector_registry())},
      {"--budget-ms", "N", kGrid, "per-cell simulated budget (default 7200000 = 2 h)",
       integer(grid.budget_ms, 1, kPositive)},
      {"--seed", "N", kGrid, "checker seed per cell (default 100)", seed(grid.seed)},
      {"--scenario-file", "FILE", kRun, "run a ScenarioGrid JSON file, not the grid flags",
       path(cli.scenario_file)},
      {"--workers", "N", kRun, "threads in the campaign's pool",
       integer(run.total_workers, 1, INT_MAX)},
      {"--no-checkpoints", nullptr, kRun, "disable prefix forking (A/B timing; same report)",
       set(checkpoints.enabled, false)},
      {"--checkpoint-budget-mb", "N", kRun, "retained snapshot budget (default 64)",
       integer(checkpoints.byte_budget, 1, kMaxBudgetMb, 20)},
      {"--out", "FILE", kOutput, "write the JSON report to FILE ('-' = stdout)", path(cli.out),
       &cli.out},
      {"--dump-scenario", "FILE", kOutput, "write the grid as JSON and exit ('-' = stdout)",
       path(cli.dump_scenario), &cli.dump_scenario},
      {"--quiet", nullptr, kOutput, "suppress the text table and status notes", set(cli.quiet)},
      {"--list", nullptr, kAction, "print every registry and exit", set(cli.list)},
      {"--version", nullptr, kAction, "print the build version and exit", set(cli.version)},
      {"--help", nullptr, kAction, "print this help to stdout and exit (also -h)", set(cli.help)},
      {"-h", nullptr, kAction, nullptr, set(cli.help)},
      {"--fuzz", "N", kAction, "run N coverage-guided mutation generations",
       integer(cli.fuzz.generations, 1, INT_MAX)},
      {"--explain", "PLAN", kAction, "replay one plan on a one-scenario grid, print why",
       plan(cli.explain)},
      {"--fuzz-mutants", "N", kFuzz, "mutants evaluated per generation (default 8)",
       integer(cli.fuzz.mutants_per_generation, 1, INT_MAX)},
      {"--fuzz-seed", "N", kFuzz, "mutation rng seed (default 1; fixes the corpus)",
       seed(cli.fuzz.seed)},
      {"--fuzz-corpus", "FILE", kFuzz, "write the corpus as a ScenarioGrid ('-' = stdout)",
       path(cli.fuzz_corpus), &cli.fuzz_corpus},
      {"--fuzz-report", "FILE", kFuzz, "write the fuzz report as JSON ('-' = stdout)",
       path(cli.fuzz_report), &cli.fuzz_report},
      {"--journal", "FILE", kCrashSafety, "write-ahead journal: one fsync'd record per cell",
       path(cli.journal)},
      {"--resume", "FILE", kCrashSafety, "finish the campaign journaled in FILE",
       path(cli.resume)},
  };
}

int usage(std::ostream& os, const std::vector<Flag>& flags, const char* argv0) {
  os << "usage: " << argv0 << " [options]\n";
  std::string_view heading;
  for (const Flag& flag : flags) {
    if (flag.help == nullptr) continue;
    if (heading != kHeadings[flag.group]) {
      heading = kHeadings[flag.group];
      os << heading << "\n";
    }
    std::string lead = std::string("  ") + flag.name;
    if (flag.metavar != nullptr) lead += std::string(" ") + flag.metavar;
    lead.resize(std::max<std::size_t>(lead.size() + 1, 27), ' ');
    os << lead << flag.help << "\n";
  }
  os << "exit codes: 0 complete, 1 runtime failure, 2 bad flags or --resume grid\n"
        "mismatch, 3 interrupted by SIGINT/SIGTERM (partial report written)\n";
  return 2;
}

// "--a/--b/..." over a group's rows, for the conflict messages.
std::string p_group_names(const std::vector<Flag>& flags, Group group) {
  std::string names;
  for (const Flag& flag : flags) {
    if (flag.group != group) continue;
    if (!names.empty()) names += "/";
    names += flag.name;
  }
  return names;
}

// Checks a document path before any simulation starts, without truncating
// a file already there: a run that fails must leave it as it was. A file
// the check creates is removed again.
bool p_writable(const std::string& path) {
  if (path.empty() || path == "-") return true;
  std::error_code ignored;
  const bool existed = std::filesystem::exists(path, ignored);
  if (!std::ofstream(path, std::ios::app)) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  if (!existed) std::filesystem::remove(path, ignored);
  return true;
}

// The one writer for every JSON document, after p_writable passed. A file
// is truncated only here, once its document is complete; a stream that
// fails during the open, the write or the close is a runtime failure.
bool p_write_document(const std::string& path, const std::string& json, const std::string& what,
                      std::ostream& notes, bool quiet) {
  if (path.empty()) return true;
  std::ofstream file;
  if (path != "-") file.open(path);
  std::ostream& os = path == "-" ? std::cout : file;
  os << json << std::flush;
  if (path != "-") file.close();
  if (!os) {
    std::cerr << "cannot write the " << what << " to " << (path == "-" ? "stdout" : path) << "\n";
    return false;
  }
  if (!quiet && path != "-") notes << what << " written to " << path << "\n";
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

// SIGINT/SIGTERM request a graceful stop: finish in-flight cells, flush the
// journal, write a partial report, exit 3. Only a flag is set here — all the
// work happens on the normal paths via the should_stop callback.
volatile std::sig_atomic_t g_stop_signal = 0;
void handle_stop_signal(int sig) { g_stop_signal = sig; }

int p_run_fuzz(const Cli& cli, std::ostream& text) {
  fuzz::FuzzOptions options = cli.fuzz;
  options.campaign = cli.campaign;
  fuzz::FuzzResult result;
  try {
    result = fuzz::run_fuzz(cli.grid, options);
  } catch (const std::exception& err) {
    std::cerr << "fuzz failed: " << err.what() << "\n";
    return 1;
  }
  if (!cli.quiet) {
    util::TextTable t({"gen", "evaluated", "admitted", "corpus", "cov keys", "new bugs"});
    for (const auto& row : result.curve) {
      t.add(row.generation, row.evaluated, row.admitted, row.corpus_size, row.coverage_keys,
            row.new_bugs);
    }
    t.render(text);
    text << "coverage keys: " << result.baseline_coverage.size() << " (seed grid) -> "
         << result.corpus.coverage_union().size() << " (corpus), " << result.evaluations
         << " evaluations\n";
    for (const auto& discovery : result.discoveries) {
      text << "new bug (gen " << discovery.generation << "):";
      for (fw::BugId bug : discovery.new_bugs) text << " " << fw::bug_info(bug).report_name;
      text << " via " << discovery.minimized.personality << "/" << discovery.minimized.workload
           << "/" << discovery.minimized.environment << "\n";
    }
  }
  const bool written = p_write_document(cli.fuzz_corpus, result.corpus.to_scenario_grid_json(),
                                        "fuzz corpus", text, cli.quiet) &&
                       p_write_document(cli.fuzz_report, fuzz::fuzz_report_json(result, options),
                                        "fuzz report", text, cli.quiet);
  return written ? 0 : 1;
}

// --explain: the checker's own experiment for `plan` (Checker::
// experiment_spec: the campaign's seed, duration cap, monitor and stop at
// the first violation), simulated from scratch — bit-identical to a
// checkpoint-restored run — so its verdict is the UnsafeRecord a campaign
// journals for the plan. Prints the calibration, the verdict, the
// transitions, and per monitor sample the truth, the firmware's estimate,
// the distance to the nearest profiling run against tau and the golden run:
// every 100 ms from 2 s before a violation to where the run stopped, every
// 1 s for a safe run.
int p_explain(const core::FaultPlan& plan, const std::vector<core::CampaignCellSpec>& grid,
              int workers) {
  const core::PrototypeKey key = core::prototype_key(grid.front());
  if (!std::all_of(grid.begin(), grid.end(), [&key](const core::CampaignCellSpec& cell) {
        return core::prototype_key(cell) == key;
      })) {
    std::cerr << "--explain needs a grid of one calibration group: one personality, workload, "
                 "environment, bug population and seed\n";
    return 2;
  }
  const core::ScenarioSpec& scenario = grid.front().scenario;
  core::CheckpointConfig cold;
  cold.enabled = false;
  util::ThreadPool pool(std::min(workers, core::Checker::kProfilingRuns));
  core::Checker checker(core::scenario_prototype(scenario), cold);
  checker.use_pool(&pool);
  std::map<sim::SimTimeMs, geo::Vec3> estimate;  // by sample time
  core::SimulationHarness harness;
  // The hook sees the world after the step that ends at t: the sample at t - 1.
  harness.set_step_hook([&estimate](sim::SimTimeMs t, const sim::VehicleState&,
                                    const fw::Firmware& firmware) {
    if ((t - 1) % core::kSamplePeriodMs == 0) estimate[t - 1] = firmware.estimate().position;
  });
  core::ExperimentResult result;
  try {
    const core::MonitorModel& model = checker.model();
    result = harness.run(checker.experiment_spec(plan), &model);
  } catch (const std::exception& err) {
    std::cerr << "--explain failed: " << err.what() << "\n";
    return 1;
  }
  const core::MonitorModel& model = checker.model();
  const auto mode_name = [](std::uint16_t id) { return fw::CompositeMode::from_id(id).name(); };
  std::printf("scenario: %s/%s/%s, bugs %s, seed %llu\n", scenario.personality.c_str(),
              scenario.workload.c_str(), scenario.environment.c_str(), scenario.bugs.c_str(),
              static_cast<unsigned long long>(scenario.seed));
  std::printf("calibration: tau=%.3f P=%.3f A=%.3f D=%d profiling=%lld ms\n", model.tau(),
              model.max_position_spread(), model.max_accel_spread(),
              model.mode_graph().diameter(),
              static_cast<long long>(model.profiling_duration_ms()));
  std::printf("plan: %s\n", plan.to_string().c_str());
  const std::optional<core::Violation>& violation = result.violation;
  if (violation) {
    std::printf("verdict: %s at %lld ms in %s\ndetails: %s\n", core::to_string(violation->type),
                static_cast<long long>(violation->time_ms), mode_name(violation->mode_id).c_str(),
                violation->details.c_str());
  } else {
    std::printf("verdict: passed after %lld ms (workload %s)\n",
                static_cast<long long>(result.duration_ms),
                result.workload_passed ? "passed" : "did not pass");
  }
  std::printf("crash: %s\nfired:", sim::to_string(result.crash_cause));
  for (fw::BugId id : result.fired_bugs) std::printf(" %s", fw::bug_info(id).report_name);
  std::printf("%s\ntransitions:", result.fired_bugs.empty() ? " none" : "");
  for (const core::ModeTransition& t : result.transitions) {
    std::printf(" %s@%lld", t.mode_name.c_str(), static_cast<long long>(t.time_ms));
  }
  std::printf("\n%8s  %-14s %-24s  %-24s  %-13s %-14s %6s\n", "t ms", "mode", "truth x y alt (m)",
              "estimate x y alt (m)", "d/tau", "golden mode", "alt");
  for (const core::StateSample& s : result.trace) {
    if (violation ? s.time_ms < violation->time_ms - 2000 : s.time_ms % 1000 != 0) continue;
    double nearest = std::numeric_limits<double>::infinity();
    for (std::size_t run = 0; run < model.profiling_run_count(); ++run) {
      nearest = std::min(nearest, model.state_distance(s, model.profiling_state(run, s.time_ms)));
    }
    const geo::Vec3& est = estimate.at(s.time_ms);
    const core::StateSample& golden = model.profiling_state(0, s.time_ms);
    std::printf("%8lld  %-14s (%7.2f %7.2f %6.2f)  (%7.2f %7.2f %6.2f)  %6.2f/%-5.2f%s %-14s",
                static_cast<long long>(s.time_ms), mode_name(s.mode_id).c_str(), s.position.x,
                s.position.y, -s.position.z, est.x, est.y, -est.z, nearest, model.tau(),
                nearest > model.tau() ? "*" : " ", mode_name(golden.mode_id).c_str());
    std::printf(" %6.2f\n", -golden.position.z);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  const std::vector<Flag> flags = p_flags(cli);
  bool seen[std::size(kHeadings)] = {};  // per group: was one of its flags given
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& row) { return arg == row.name; });
    if (flag == flags.end()) {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(std::cerr, flags, argv[0]);
    }
    if (flag->metavar != nullptr && i + 1 == argc) {
      std::cerr << arg << " needs a value: " << arg << " " << flag->metavar << "\n";
      return usage(std::cerr, flags, argv[0]);
    }
    if (!flag->apply(flag->name, flag->metavar != nullptr ? argv[++i] : nullptr)) {
      return usage(std::cerr, flags, argv[0]);
    }
    seen[flag->group] = true;
  }

  if (cli.help) {
    usage(std::cout, flags, argv[0]);
    return 0;
  }
  if (cli.version) {
    std::cout << kBuildVersion << "\n";
    return 0;
  }
  if (cli.list) {
    print_registry(std::cout, core::approach_registry());
    print_registry(std::cout, core::personality_registry());
    print_registry(std::cout, workload::workload_registry());
    print_registry(std::cout, sim::environment_registry());
    print_registry(std::cout, core::bug_selector_registry());
    return 0;
  }

  // Cross-flag rules, checked before any simulation budget burns.
  std::string to_stdout;  // the flags that send a document to '-', " and "-joined
  for (const Flag& flag : flags) {
    if (flag.document == nullptr || *flag.document != "-") continue;
    to_stdout += (to_stdout.empty() ? "" : " and ") + std::string(flag.name);
  }
  const bool fuzzing = cli.fuzz.generations > 0;
  const std::pair<bool, std::string> rules[] = {
      {!fuzzing && seen[kFuzz],
       p_group_names(flags, kFuzz) +
           " only apply in fuzz mode; add --fuzz N (docs/FUZZING.md)"},
      {fuzzing && (!cli.out.empty() || !cli.dump_scenario.empty()),
       "--fuzz writes --fuzz-corpus/--fuzz-report documents; --out and --dump-scenario do "
       "not apply"},
      {!cli.journal.empty() && !cli.resume.empty(),
       "--journal starts a fresh journal and --resume continues one; pass exactly one"},
      {(!cli.journal.empty() || !cli.resume.empty()) && (fuzzing || !cli.dump_scenario.empty()),
       "--journal/--resume apply to campaign runs; they do not combine with --fuzz or "
       "--dump-scenario"},
      {cli.explain && (fuzzing || !cli.journal.empty() || !cli.resume.empty() ||
                       !cli.out.empty() || !cli.dump_scenario.empty()),
       "--explain prints one experiment; it does not combine with --fuzz, --journal, "
       "--resume, --out or --dump-scenario"},
      {!cli.scenario_file.empty() && seen[kGrid],
       "--scenario-file carries the whole grid; combining it with grid-shaping flags (" +
           p_group_names(flags, kGrid) + ") is ambiguous"},
      {to_stdout.find(" and ") != std::string::npos,
       to_stdout + " both write to stdout ('-'); send at most one document there"},
  };
  for (const auto& [broken, message] : rules) {
    if (!broken) continue;
    std::cerr << message << "\n";
    return 2;
  }
  // A document on stdout keeps it machine-readable: text goes to stderr.
  std::ostream& text = to_stdout.empty() ? std::cout : std::cerr;

  if (!cli.scenario_file.empty()) {
    std::ifstream file(cli.scenario_file);
    if (!file) {
      std::cerr << "cannot open scenario file " << cli.scenario_file << "\n";
      return 2;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    try {
      cli.grid = core::ScenarioGrid::from_json(contents.str());
    } catch (const std::exception& err) {
      std::cerr << cli.scenario_file << ": " << err.what() << "\n";
      return 2;
    }
  }

  // Resolve every registry name before running (or dumping): a scenario
  // file with a typo fails here with the registered-name listing.
  std::vector<core::CampaignCellSpec> grid;
  try {
    grid = core::expand_to_cells(cli.grid);
  } catch (const std::exception& err) {
    std::cerr << err.what() << "\n";
    return 2;
  }

  if (cli.explain) return p_explain(*cli.explain, grid, cli.campaign.total_workers);

  // On --resume the loaded header must bind the exact campaign the flags
  // describe — any drift (different grid, different checkpoint knobs) would
  // merge reports from two different campaigns, so a mismatch is a usage
  // error (exit 2) with a field-by-field diff.
  core::CampaignJournal::Loaded loaded;
  const bool resuming = !cli.resume.empty();
  if (resuming) {
    try {
      loaded = core::CampaignJournal::load(cli.resume);
    } catch (const core::JournalError& err) {
      std::cerr << "--resume: " << err.what() << "\n";
      return 2;
    }
    const std::string diff = core::CampaignJournal::header_diff(
        loaded.header, core::CampaignJournal::bind(grid, cli.campaign.checkpoints), grid);
    if (!diff.empty()) {
      std::cerr << "--resume: journal " << cli.resume << " was written by a different campaign:\n"
                << diff;
      return 2;
    }
    if (!cli.quiet) {
      if (loaded.dropped_torn_record) {
        std::cerr << "[journal] dropped a torn final record (crash mid-append); "
                     "that cell re-runs\n";
      }
      std::cerr << "[journal] " << loaded.cells.size() << "/" << grid.size()
                << " cells already journaled in " << cli.resume << "\n";
    }
  }

  for (const Flag& flag : flags) {
    if (flag.document != nullptr && !p_writable(*flag.document)) return 1;
  }

  if (!cli.dump_scenario.empty()) {
    const std::string what = "scenario grid (" + std::to_string(grid.size()) + " cells)";
    return p_write_document(cli.dump_scenario, cli.grid.to_json(), what, text, cli.quiet) ? 0 : 1;
  }

  if (fuzzing) return p_run_fuzz(cli, text);

  std::optional<core::CampaignJournal> journal;
  try {
    if (resuming) journal.emplace(core::CampaignJournal::append_to(cli.resume));
    if (!cli.journal.empty()) {
      journal.emplace(core::CampaignJournal::start(
          cli.journal, core::CampaignJournal::bind(grid, cli.campaign.checkpoints)));
    }
  } catch (const core::JournalError& err) {
    std::cerr << (resuming ? "--resume: " : "--journal: ") << err.what() << "\n";
    return resuming ? 2 : 1;
  }

  // Graceful interruption: the handlers only raise a flag, which the
  // runner's should_stop callback polls between cells.
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  cli.campaign.journal = journal ? &*journal : nullptr;
  cli.campaign.resume = resuming ? &loaded.cells : nullptr;
  cli.campaign.should_stop = [] { return g_stop_signal != 0; };
  core::CampaignResult result;
  try {
    result = core::CampaignRunner(cli.campaign).run(grid);
  } catch (const core::JournalError& err) {
    std::cerr << "journal write failed: " << err.what() << "\n";
    return 1;
  }

  if (result.interrupted && !cli.quiet) {
    std::cerr << "campaign interrupted (signal " << static_cast<int>(g_stop_signal)
              << "): " << result.cells.size() << "/" << grid.size()
              << " cells completed; partial report written"
              << (journal ? " and journaled — finish with --resume " + journal->path() : "")
              << "\n";
  }

  if (!cli.quiet) {
    util::TextTable t({"#", "approach", "firmware", "workload", "environment", "sims",
                       "labels", "unsafe #", "bugs", "ckpt hit", "exp/s"});
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const auto& cell = result.cells[i];
      char hit_rate[32];
      std::snprintf(hit_rate, sizeof(hit_rate), "%.0f%%",
                    100.0 * cell.report.checkpoint_hit_rate());
      t.add(static_cast<int>(i), cell.spec.display_label(), cell.spec.scenario.personality,
            cell.spec.scenario.workload, cell.spec.scenario.environment,
            cell.report.experiments, cell.report.labels, cell.report.unsafe_count(),
            static_cast<int>(cell.report.bug_first_found.size()), hit_rate,
            cell.experiments_per_sec());
    }
    t.render(text);
    bench::print_campaign_footer(text, result, cli.campaign.total_workers);
  }

  if (!p_write_document(cli.out, core::campaign_report_json(result), "JSON report", text,
                        cli.quiet)) {
    return 1;
  }
  return result.interrupted ? 3 : 0;
}
