// Contract test for the avis_campaign binary (tools/avis_campaign.cpp):
// exit codes, the first line of stderr, and what reaches stdout and the
// file system. The binary is the one the build produced (AVIS_CAMPAIGN_BIN).
// The last tests replay a journaled unsafe run through --explain and hold
// its plan argument to the same rule for bad input.
//
// kContract rows pin behaviour the table-driven parser kept from the
// if/else parser before it: each expected line was captured from that
// build. kChanged rows pin the deliberate changes: strict numbers, a
// missing value that names its flag, parsing before acting, at most one
// document on stdout, and the retired worker-split and checkpoint-cadence
// flags. Every bad flag exits 2 before any simulation.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/journal.h"
#include "fw/modes.h"
#include "util/json.h"

namespace {

using avis::util::Json;

const std::string kBinary = AVIS_CAMPAIGN_BIN;
// A one-cell grid that simulates in well under a second.
const std::string kTinyGrid =
    "--approaches random --personalities ardupilot --workloads box-manual --budget-ms 1000";

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avis_cli_" + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
}

struct Outcome {
  int code = -1;
  std::string out, err;
  std::string first_err_line() const { return err.substr(0, err.find('\n')); }
};

// Runs the binary through the shell, so `args` may quote.
Outcome run(const std::string& args) {
  const std::string out = temp_path("stdout"), err = temp_path("stderr");
  const std::string command = kBinary + " " + args + " >" + out + " 2>" + err;
  const int status = std::system(command.c_str());
  Outcome result;
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  result.out = read_file(out);
  result.err = read_file(err);
  std::filesystem::remove(out);
  std::filesystem::remove(err);
  return result;
}

struct Row {
  const char* args;
  int code;
  const char* first_err_line;  // "$0" stands for the binary's path
};

void expect_rows(const Row* begin, const Row* end) {
  for (const Row* row = begin; row != end; ++row) {
    SCOPED_TRACE(row->args);
    std::string expected = row->first_err_line;
    if (const auto at = expected.find("$0"); at != std::string::npos) {
      expected.replace(at, 2, kBinary);
    }
    const Outcome result = run(row->args);
    EXPECT_EQ(result.code, row->code);
    EXPECT_EQ(result.first_err_line(), expected);
  }
}

const Row kContract[] = {
    // Out-of-range numbers: past int64, zero or negative worker counts, past
    // int, a byte budget past size_t, and seeds negative or past 64 bits.
    {"--budget-ms 99999999999999999999 --quiet", 2,
     "bad numeric value for --budget-ms: 99999999999999999999"},
    {"--workers 0 --quiet", 2, "--workers must be in [1, 2147483647] (got 0)"},
    {"--workers -3 --quiet", 2, "--workers must be in [1, 2147483647] (got -3)"},
    {"--workers 4294967297 --quiet", 2,
     "--workers must be in [1, 2147483647] (got 4294967297)"},
    {"--checkpoint-budget-mb 17592186044416 --quiet", 2,
     "--checkpoint-budget-mb must be in [1, 17592186044415] (got 17592186044416)"},
    {"--checkpoint-budget-mb 0", 2,
     "--checkpoint-budget-mb must be in [1, 17592186044415] (got 0)"},
    {"--seed -1 --quiet", 2, "--seed must be an unsigned 64-bit integer (got -1)"},
    {"--fuzz-seed -1 --quiet", 2, "--fuzz-seed must be an unsigned 64-bit integer (got -1)"},
    {"--seed 18446744073709551616 --quiet", 2,
     "--seed must be an unsigned 64-bit integer (got 18446744073709551616)"},
    {"--budget-ms 0", 2, "--budget-ms must be positive (got 0)"},
    {"--budget-ms -5", 2, "--budget-ms must be positive (got -5)"},
    {"--budget-ms 60s", 2, "bad numeric value for --budget-ms: 60s"},
    {"--fuzz 0", 2, "--fuzz must be in [1, 2147483647] (got 0)"},
    {"--fuzz 2147483648", 2, "--fuzz must be in [1, 2147483647] (got 2147483648)"},
    // Unknown flags, including the retired distributed-service ones.
    {"--bogus", 2, "unknown option: --bogus"},
    {"--bogus --version", 2, "unknown option: --bogus"},
    {"--serve 1", 2, "unknown option: --serve"},
    {"--worker h:1", 2, "unknown option: --worker"},
    // Registry names: the diagnostic names the flag and lists the registry.
    {"--workloads surveey", 2,
     "--workloads: unknown workload: 'surveey'; did you mean 'survey'? registered workloads "
     "are: auto, box-manual, fence-mission, wind-gust-box, survey"},
    {"--workloads no-such-workload", 2,
     "--workloads: unknown workload: 'no-such-workload' registered workloads are: auto, "
     "box-manual, fence-mission, wind-gust-box, survey"},
    {"--approaches avis,nope", 2,
     "--approaches: unknown approach: 'nope' registered approaches are: avis, stratified-bfi, "
     "bfi, random"},
    {"--approaches ,", 2, "usage: $0 [options]"},
    // Cross-flag rules.
    {"--fuzz-mutants 4", 2,
     "--fuzz-mutants/--fuzz-seed/--fuzz-corpus/--fuzz-report only apply in fuzz mode; add "
     "--fuzz N (docs/FUZZING.md)"},
    {"--fuzz 1 --out r.json", 2,
     "--fuzz writes --fuzz-corpus/--fuzz-report documents; --out and --dump-scenario do not "
     "apply"},
    {"--fuzz 1 --dump-scenario -", 2,
     "--fuzz writes --fuzz-corpus/--fuzz-report documents; --out and --dump-scenario do not "
     "apply"},
    {"--journal j.jsonl --resume j.jsonl", 2,
     "--journal starts a fresh journal and --resume continues one; pass exactly one"},
    {"--journal j.jsonl --fuzz 1", 2,
     "--journal/--resume apply to campaign runs; they do not combine with --fuzz or "
     "--dump-scenario"},
    {"--resume j.jsonl --dump-scenario -", 2,
     "--journal/--resume apply to campaign runs; they do not combine with --fuzz or "
     "--dump-scenario"},
    {"--scenario-file grid.json --approaches avis", 2,
     "--scenario-file carries the whole grid; combining it with grid-shaping flags "
     "(--approaches/--personalities/--workloads/--environments/--bugs/--budget-ms/--seed) is "
     "ambiguous"},
    {"--scenario-file /nonexistent/grid.json", 2,
     "cannot open scenario file /nonexistent/grid.json"},
    // Unwritable outputs are runtime failures.
    {"--dump-scenario /nonexistent/grid.json", 1,
     "cannot open /nonexistent/grid.json for writing"},
};

const Row kChanged[] = {
    // Signed flags take util::parse_integer's rule: no blank, no '+'.
    {"--budget-ms ' 5'", 2, "bad numeric value for --budget-ms:  5"},
    {"--budget-ms +5", 2, "bad numeric value for --budget-ms: +5"},
    {"--workers ' 2'", 2, "bad numeric value for --workers:  2"},
    // A missing value names its flag.
    {"--out", 2, "--out needs a value: --out FILE"},
    {"--budget-ms", 2, "--budget-ms needs a value: --budget-ms N"},
    {"--seed", 2, "--seed needs a value: --seed N"},
    {"--approaches", 2, "--approaches needs a value: --approaches LIST"},
    // Nothing runs until the whole command line parses.
    {"--version --bogus", 2, "unknown option: --bogus"},
    {"--version --workers 0", 2, "--workers must be in [1, 2147483647] (got 0)"},
    // At most one document on stdout.
    {"--out - --dump-scenario -", 2,
     "--out and --dump-scenario both write to stdout ('-'); send at most one document there"},
    {"--fuzz 1 --fuzz-corpus - --fuzz-report -", 2,
     "--fuzz-corpus and --fuzz-report both write to stdout ('-'); send at most one document "
     "there"},
    // The split flags are gone: the campaign runs on one pool of --workers.
    {"--experiment-workers -2 --quiet", 2, "unknown option: --experiment-workers"},
    {"--cell-workers -1 --quiet", 2, "unknown option: --cell-workers"},
    {"--experiment-workers 2147483648 --quiet", 2, "unknown option: --experiment-workers"},
    // The snapshot cadence is a constant (core::kCheckpointIntervalMs).
    {"--checkpoint-interval-ms 99999999999999999999 --quiet", 2,
     "unknown option: --checkpoint-interval-ms"},
    {"--checkpoint-interval-ms 0", 2, "unknown option: --checkpoint-interval-ms"},
    // The bug-population listing names the re-inserted-bug selectors.
    {"--bugs nope", 2,
     "--bugs: unknown bug population: 'nope' registered bug populations are: current, "
     "patched, all, current+APM-4455, current+APM-4679, current+APM-5428, current+APM-9349, "
     "current+PX4-13291"},
};

TEST(Cli, BadFlagsKeepTheirExitCodeAndFirstLine) {
  expect_rows(std::begin(kContract), std::end(kContract));
}

TEST(Cli, DeliberateChanges) { expect_rows(std::begin(kChanged), std::end(kChanged)); }

TEST(Cli, HelpPrintsUsageToStdout) {
  for (const char* flag : {"--help", "-h"}) {
    SCOPED_TRACE(flag);
    const Outcome result = run(flag);
    EXPECT_EQ(result.code, 0);
    EXPECT_EQ(result.err, "");
    EXPECT_EQ(result.out.rfind("usage: " + kBinary + " [options]\n", 0), 0u) << result.out;
    // Every row renders, under the three headings and the exit-code footer.
    for (const char* text : {"--budget-ms N", "--fuzz-report FILE", "--resume FILE",
                             "--explain PLAN",
                             "fuzz mode (docs/FUZZING.md):",
                             "crash safety (docs/CRASH_SAFETY.md):", "exit codes: 0 complete"}) {
      EXPECT_NE(result.out.find(text), std::string::npos) << text;
    }
  }
}

TEST(Cli, VersionAndList) {
  const Outcome version = run("--version");
  EXPECT_EQ(version.code, 0);
  EXPECT_EQ(version.out, "avis-campaign 0.6\n");
  const Outcome list = run("--list");
  EXPECT_EQ(list.code, 0);
  EXPECT_EQ(list.out.rfind("approaches:\n  avis ", 0), 0u) << list.out;
}

// Seeds follow the scenario file's unsigned 64-bit rule: the largest is
// accepted and written back verbatim.
TEST(Cli, LargestSeedRoundTripsThroughDumpScenario) {
  const Outcome result = run("--seed 18446744073709551615 --dump-scenario -");
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("\"seed\": 18446744073709551615"), std::string::npos);
}

// Integers in scenario files and journals are range-checked, not wrapped
// through a cast.
TEST(Cli, OutOfRangeJsonIntegersAreRefused) {
  const std::string grid = temp_path("grid.json");
  write_file(grid, R"({"constraints": {"max_set_size": 4294967297}})");
  Outcome result = run("--scenario-file " + grid);
  EXPECT_EQ(result.code, 2);
  EXPECT_EQ(result.first_err_line(),
            grid + ": max_set_size must be an integer in [-2147483648, 2147483647] (got "
                   "4294967297)");
  std::filesystem::remove(grid);

  const std::string journal = temp_path("journal.jsonl");
  // 2^32 + kVersion: a cast to int would read this build's version.
  const std::string wrapped =
      std::to_string((1LL << 32) + avis::core::CampaignJournal::kVersion);
  write_file(journal, "{\"type\": \"avis_campaign_journal\", \"version\": " + wrapped + "}\n");
  result = run(kTinyGrid + " --resume " + journal);
  EXPECT_EQ(result.code, 2);
  EXPECT_EQ(result.first_err_line(),
            "--resume: " + journal + ": journal format version " + wrapped + ", but this build " +
                "reads version " + std::to_string(avis::core::CampaignJournal::kVersion) +
                " — rerun the campaign with a fresh --journal");
  std::filesystem::remove(journal);
}

// An unwritable output fails before any cell runs: the journal records no
// cell.
TEST(Cli, UnwritableOutputFailsBeforeTheRun) {
  const std::string journal = temp_path("fail_fast.jsonl");
  const Outcome result = run(kTinyGrid + " --journal " + journal + " --out /nonexistent/r.json");
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.first_err_line(), "cannot open /nonexistent/r.json for writing");
  EXPECT_EQ(read_file(journal).find("\"type\": \"cell\""), std::string::npos);
  std::filesystem::remove(journal);

  for (const char* flag : {"--fuzz-corpus", "--fuzz-report"}) {
    SCOPED_TRACE(flag);
    const Outcome fuzz = run(kTinyGrid + " --fuzz 1 " + flag + " /nonexistent/f.json");
    EXPECT_EQ(fuzz.code, 1);
    EXPECT_EQ(fuzz.out, "");  // no generation table: nothing ran
    EXPECT_EQ(fuzz.first_err_line(), "cannot open /nonexistent/f.json for writing");
  }
}

// A run that fails leaves an existing report file as it was, and the
// writability check does not leave a file behind either.
TEST(Cli, FailedRunDoesNotClobberOrCreateTheReport) {
  const std::string report = temp_path("kept.json");
  write_file(report, "keep me");
  Outcome result = run(kTinyGrid + " --journal /nonexistent/j.jsonl --out " + report);
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(read_file(report), "keep me");
  std::filesystem::remove(report);

  result = run(kTinyGrid + " --journal /nonexistent/j.jsonl --out " + report);
  EXPECT_EQ(result.code, 1);
  EXPECT_FALSE(std::filesystem::exists(report));
}

TEST(Cli, StreamFailureDuringTheWriteIsAnError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Outcome result = run(kTinyGrid + " --quiet --out /dev/full");
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.first_err_line(), "cannot write the JSON report to /dev/full");
}

// A document on stdout leaves stdout machine-readable: the text table and
// footer move to stderr.
TEST(Cli, StdoutDocumentParsesAsJson) {
  const Outcome result = run(kTinyGrid + " --out -");
  EXPECT_EQ(result.code, 0);
  const Json report = Json::parse(result.out);
  EXPECT_EQ(report.at("cells").as_array().size(), 1u);
  EXPECT_EQ(result.err.rfind("| # ", 0), 0u) << result.err;
  EXPECT_NE(result.err.find("campaign: 1 cells"), std::string::npos);
}

// One Avis cell: a single calibration group, which --explain needs.
const std::string kFenceCell =
    "--approaches avis --personalities ardupilot --workloads fence-mission --seed 100";

// The rest of the first stdout line that starts with `prefix`.
std::string line_of(const std::string& out, const std::string& prefix) {
  const std::size_t at = out.rfind(prefix, 0) == 0 ? 0 : out.find("\n" + prefix);
  if (at == std::string::npos) return "<no '" + prefix + "' line>";
  const std::size_t begin = out.find(prefix, at) + prefix.size();
  return out.substr(begin, out.find('\n', begin) - begin);
}

// --explain replays a campaign's experiment: the first unsafe record a
// journaled cell holds comes back with the same violation and fired bugs.
TEST(Cli, ExplainReplaysTheJournaledUnsafeRecord) {
  const std::string journal = temp_path("explain.jsonl");
  const Outcome campaign = run(kFenceCell + " --budget-ms 600000 --quiet --journal " + journal);
  ASSERT_EQ(campaign.code, 0) << campaign.err;
  const auto loaded = avis::core::CampaignJournal::load(journal);
  std::filesystem::remove(journal);
  ASSERT_EQ(loaded.cells.size(), 1u);
  ASSERT_FALSE(loaded.cells[0].report.unsafe.empty());
  const avis::core::UnsafeRecord& record = loaded.cells[0].report.unsafe.front();

  const Outcome explain = run(kFenceCell + " --explain '" + record.plan.to_string() + "'");
  ASSERT_EQ(explain.code, 0) << explain.err;
  EXPECT_EQ(line_of(explain.out, "plan: "), record.plan.to_string());
  const avis::core::Violation& violation = record.violation;
  EXPECT_EQ(line_of(explain.out, "verdict: "),
            std::string(avis::core::to_string(violation.type)) + " at " +
                std::to_string(violation.time_ms) + " ms in " +
                avis::fw::CompositeMode::from_id(violation.mode_id).name());
  std::string fired;
  for (const avis::fw::BugId id : record.fired_bugs) {
    fired += std::string(" ") + avis::fw::bug_info(id).report_name;
  }
  EXPECT_EQ(line_of(explain.out, "fired:"), fired.empty() ? " none" : fired);
  // Sample lines start 2 s before the violation.
  char first_sample[32];
  std::snprintf(first_sample, sizeof(first_sample), "\n%8lld  ",
                static_cast<long long>(std::max<std::int64_t>(0, violation.time_ms - 2000)));
  EXPECT_NE(explain.out.find(first_sample), std::string::npos) << explain.out;
}

// The plan line is FaultPlan::to_string of the parsed plan: a normalized
// plan round-trips, and '{}' is a fault-free run.
TEST(Cli, ExplainPrintsThePlanItRan) {
  for (const auto& [plan, verdict] : {std::pair{"{barometer#0@3520ms, GPS#0@9000ms}", "liveliness"},
                                      std::pair{"{}", "passed"}}) {
    SCOPED_TRACE(plan);
    const Outcome result = run(kFenceCell + " --explain '" + plan + "'");
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_EQ(line_of(result.out, "plan: "), plan);
    EXPECT_EQ(line_of(result.out, "verdict: ").rfind(verdict, 0), 0u) << result.out;
  }
}

// A bad plan, a grid of more than one calibration group, or a flag that
// writes or runs something else exits 2 before anything calibrates.
TEST(Cli, ExplainRefusesBadInputBeforeCalibrating) {
  const std::string kRefused =
      "--explain prints one experiment; it does not combine with --fuzz, --journal, --resume, "
      "--out or --dump-scenario";
  const std::pair<std::string, std::string> cases[] = {
      {kFenceCell + " --explain '{gyroscope#2@0ms}'",
       "--explain: no such sensor instance on the iris suite"},
      {kFenceCell + " --explain '{gyro#0@0ms}'",
       "--explain: unknown fault type: 'gyro'; did you mean 'gyroscope'?"},
      {kFenceCell + " --explain '{barometer#0@-1ms}'",
       "--explain: a time is a non-negative integer in ms"},
      {kFenceCell + " --explain 'barometer#0@3520ms'", "--explain: a plan is a braced list"},
      {"--explain '{}'", "--explain needs a grid of one calibration group"},
      {kFenceCell + " --explain '{}' --fuzz 1", kRefused},
      {kFenceCell + " --explain '{}' --resume j.jsonl", kRefused},
      {kFenceCell + " --explain '{}' --journal j.jsonl", kRefused},
      {kFenceCell + " --explain '{}' --out r.json", kRefused},
      {kFenceCell + " --explain '{}' --dump-scenario -", kRefused},
  };
  for (const auto& [args, message] : cases) {
    SCOPED_TRACE(args);
    const Outcome result = run(args);
    EXPECT_EQ(result.code, 2);
    EXPECT_EQ(result.out, "");
    EXPECT_EQ(result.first_err_line().rfind(message, 0), 0u) << result.err;
  }
  EXPECT_FALSE(std::filesystem::exists("j.jsonl"));
  EXPECT_FALSE(std::filesystem::exists("r.json"));
}

}  // namespace
