// Write-ahead cell journal (core/journal.h).
//
// The journal's contract is narrow and strict: after SIGKILL at any instant
// the file holds every acknowledged cell plus at most one torn final line.
// These tests pin the pieces the crash-safety argument rests on:
//   - the header binds the campaign (grid identity hashes + report-affecting
//     config), and header_diff names every field that drifted;
//   - records round-trip losslessly (the resumed report is built from them);
//   - a torn FINAL line is dropped, not fatal — the cell simply re-runs;
//   - corruption anywhere else cannot be produced by a crash and is fatal;
//   - duplicate indices keep the first copy (determinism makes them equal);
//   - a journal written in another format version is refused by name.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/scenario.h"
#include "test_helpers.h"
#include "util/json.h"

namespace {

using namespace avis;

std::vector<core::CampaignCellSpec> small_grid(std::uint64_t seed = 100) {
  core::ScenarioGrid grid;
  grid.approaches = {"avis", "random"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"box-manual"};
  grid.environments = {"calm"};
  grid.budget_ms = 20000;
  grid.seed = seed;
  return core::expand_to_cells(grid);
}

// A report with enough non-default structure to catch lossy encoding; the
// full CheckerReport round trip of a real cell (unsafe records, coverage,
// transitions) is the journal_round_trip row of tests/test_oracle.cc.
core::CheckerReport synthetic_report(int salt) {
  core::CheckerReport report;
  report.strategy_name = "Avis";
  report.experiments = 40 + salt;
  report.labels = 3 + salt;
  report.budget_used_ms = 20000;
  report.checkpoint_hits = 5;
  report.checkpoint_misses = 2;
  report.checkpoint_hits_by_level = {4, 1};
  report.checkpoint_skipped_ms = 1234;
  report.stalled_runs = salt % 2;
  return report;
}

core::JournalCellRecord record_for(const std::vector<core::CampaignCellSpec>& grid,
                                   int index, int salt) {
  core::JournalCellRecord record;
  record.index = index;
  record.spec_hash = core::cell_identity_hash(grid[static_cast<std::size_t>(index)]);
  record.wall_seconds = 1.5 + salt;
  record.report = synthetic_report(salt);
  return record;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avis_journal_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

TEST(Journal, CellIdentityHashIsStableAndSpecSensitive) {
  const auto grid = small_grid();
  const std::string hash = core::cell_identity_hash(grid[0]);
  EXPECT_EQ(hash.size(), 16u);  // 64 bits as hex
  EXPECT_EQ(hash, core::cell_identity_hash(grid[0]));   // deterministic
  EXPECT_NE(hash, core::cell_identity_hash(grid[1]));   // approach differs

  // Any report-affecting knob changes the hash: a journal can never resume
  // a cell whose spec drifted.
  EXPECT_NE(core::cell_identity_hash(small_grid(100)[0]),
            core::cell_identity_hash(small_grid(101)[0]));
}

// Table V's pattern: cells that differ only in a re-inserted bug
// (bug selectors "current+APM-5428", "current+APM-9349") are different
// cells, so a resume must not graft one's record onto the other. Cells on
// "current" keep the hashes journals already carry.
TEST(Journal, CellIdentityHashSeesReinsertedBugs) {
  const auto plain = small_grid();
  EXPECT_EQ(core::cell_identity_hash(plain[0]), "149686358d63cf5c");
  EXPECT_EQ(core::cell_identity_hash(plain[1]), "7cc690232669a7d8");

  const auto with_bugs = [&plain](const char* selector) {
    auto grid = plain;
    for (auto& cell : grid) cell.scenario.bugs = selector;
    return grid;
  };
  const auto a = with_bugs("current+APM-5428");
  const auto b = with_bugs("current+APM-9349");
  EXPECT_NE(core::cell_identity_hash(a[0]), core::cell_identity_hash(b[0]));
  EXPECT_NE(core::cell_identity_hash(a[0]), core::cell_identity_hash(plain[0]));
  EXPECT_NE(core::cell_identity_hash(b[0]), core::cell_identity_hash(plain[0]));

  const std::string diff = core::CampaignJournal::header_diff(
      core::CampaignJournal::bind(a, {}), core::CampaignJournal::bind(b, {}), b);
  EXPECT_NE(diff.find("cell 0"), std::string::npos) << diff;
  EXPECT_NE(diff.find("cell 1"), std::string::npos) << diff;
}

TEST(Journal, RoundTripsHeaderAndRecords) {
  const auto grid = small_grid();
  core::CheckpointConfig checkpoints;
  checkpoints.interval_ms = 2500;
  const auto header = core::CampaignJournal::bind(grid, checkpoints);

  // Cell 1 as an older build wrote version-2 records, with the execution
  // provenance keys of the retired distributed service. load() reads only
  // the keys it names, so such a journal resumes exactly like a new one.
  std::string legacy_report = core::checker_report_json(synthetic_report(1));
  std::erase(legacy_report, '\n');
  const std::string legacy_record =
      "{\"type\": \"cell\", \"index\": 1, \"spec_hash\": \"" +
      core::cell_identity_hash(grid[1]) +
      "\", \"attempts\": 2, \"completed_by\": \"worker-a\", \"reassigned_from\": "
      "[\"worker-b\"], \"wall_seconds\": 2.5, \"report\": " +
      legacy_report + "}\n";

  for (const bool legacy : {false, true}) {
    SCOPED_TRACE(legacy ? "legacy record" : "current record");
    const std::string path = temp_path("roundtrip");
    {
      core::CampaignJournal journal = core::CampaignJournal::start(path, header);
      journal.append(record_for(grid, 0, 0));
      if (!legacy) journal.append(record_for(grid, 1, 1));
    }
    if (legacy) write_file(path, read_file(path) + legacy_record);

    const auto loaded = core::CampaignJournal::load(path);
    EXPECT_FALSE(loaded.dropped_torn_record);
    EXPECT_EQ(loaded.header.version, core::CampaignJournal::kVersion);
    EXPECT_EQ(loaded.header.cells, grid.size());
    EXPECT_TRUE(loaded.header.checkpoints_enabled);
    EXPECT_EQ(loaded.header.checkpoint_interval_ms, 2500);
    EXPECT_EQ(loaded.header.checkpoint_budget_bytes, checkpoints.byte_budget);
    ASSERT_EQ(loaded.header.cell_hashes.size(), grid.size());
    EXPECT_EQ(loaded.header.cell_hashes[0], core::cell_identity_hash(grid[0]));

    ASSERT_EQ(loaded.cells.size(), 2u);
    const core::JournalCellRecord& second = loaded.cells[1];
    EXPECT_EQ(second.index, 1);
    EXPECT_EQ(second.spec_hash, core::cell_identity_hash(grid[1]));
    EXPECT_DOUBLE_EQ(second.wall_seconds, 2.5);
    avis::testing::expect_reports_equal(synthetic_report(1), second.report);
    std::filesystem::remove(path);
  }
}

TEST(Journal, HeaderDiffIsEmptyForTheSameCampaign) {
  const auto grid = small_grid();
  const auto header = core::CampaignJournal::bind(grid, {});
  EXPECT_EQ(core::CampaignJournal::header_diff(
                header, core::CampaignJournal::bind(small_grid(), {}), grid),
            "");
}

TEST(Journal, HeaderDiffNamesEveryDriftedField) {
  const auto grid = small_grid();
  const auto header = core::CampaignJournal::bind(grid, {});

  core::CheckpointConfig no_checkpoints;
  no_checkpoints.enabled = false;
  const auto config_drift = core::CampaignJournal::bind(grid, no_checkpoints);
  const std::string config_diff =
      core::CampaignJournal::header_diff(header, config_drift, grid);
  EXPECT_NE(config_diff.find("checkpoints_enabled"), std::string::npos) << config_diff;

  // A different grid seed keeps the shape but changes every cell hash; the
  // diff names the cells (with their registry coordinates), not just "hash".
  const auto reseeded = small_grid(777);
  const auto grid_drift = core::CampaignJournal::bind(reseeded, {});
  const std::string grid_diff =
      core::CampaignJournal::header_diff(header, grid_drift, reseeded);
  EXPECT_NE(grid_diff.find("cell 0"), std::string::npos) << grid_diff;
  EXPECT_NE(grid_diff.find("ardupilot"), std::string::npos) << grid_diff;
}

TEST(Journal, TornFinalRecordIsDroppedNotFatal) {
  const auto grid = small_grid();
  const std::string path = temp_path("torn");
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(grid, {}));
    journal.append(record_for(grid, 0, 0));
    journal.append(record_for(grid, 1, 1));
  }

  // Cut into the final line: what SIGKILL between write() and completion
  // looks like. The surviving prefix must load; the torn cell re-runs.
  const std::string contents = read_file(path);
  write_file(path, contents.substr(0, contents.size() - 10));

  const auto loaded = core::CampaignJournal::load(path);
  EXPECT_TRUE(loaded.dropped_torn_record);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells[0].index, 0);
  std::filesystem::remove(path);
}

TEST(Journal, CorruptNonFinalRecordIsFatal) {
  const auto grid = small_grid();
  const std::string path = temp_path("corrupt");
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(grid, {}));
    journal.append(record_for(grid, 0, 0));
    journal.append(record_for(grid, 1, 1));
  }

  // Mangle the FIRST record while the second stays intact. A crash cannot
  // produce this shape (appends are ordered, fsync'd writes), so load must
  // refuse loudly rather than silently resume from half a journal.
  std::istringstream in(read_file(path));
  std::string header_line, first, second;
  std::getline(in, header_line);
  std::getline(in, first);
  std::getline(in, second);
  write_file(path, header_line + "\n" + first.substr(0, first.size() / 2) + "\n" +
                       second + "\n");
  EXPECT_THROW(core::CampaignJournal::load(path), core::JournalError);
  std::filesystem::remove(path);
}

TEST(Journal, RecordDisagreeingWithHeaderIsCorruption) {
  const auto grid = small_grid();
  const std::string path = temp_path("hash_mismatch");
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(grid, {}));
    // Wrong hash for index 0: the record claims a cell this campaign never
    // had. Followed by a valid record so the lie is not on the final line.
    core::JournalCellRecord lie = record_for(grid, 0, 0);
    lie.spec_hash = std::string(16, 'f');
    journal.append(lie);
    journal.append(record_for(grid, 1, 1));
  }
  EXPECT_THROW(core::CampaignJournal::load(path), core::JournalError);
  std::filesystem::remove(path);
}

TEST(Journal, DuplicateIndexKeepsFirstRecord) {
  const auto grid = small_grid();
  const std::string path = temp_path("duplicate");
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(grid, {}));
    journal.append(record_for(grid, 0, 0));
    // A crash between fsync and "cell done" can journal the same completion
    // twice after resume; determinism makes the copies equal, so keeping the
    // first is sound. Salt the second copy to prove which one wins.
    core::JournalCellRecord again = record_for(grid, 0, 0);
    again.report.experiments = 9999;
    journal.append(again);
  }
  const auto loaded = core::CampaignJournal::load(path);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells[0].report.experiments, synthetic_report(0).experiments);
  std::filesystem::remove(path);
}

TEST(Journal, LoadRejectsMissingAndHeaderlessFiles) {
  EXPECT_THROW(core::CampaignJournal::load(temp_path("never_written")),
               core::JournalError);

  const std::string path = temp_path("bad_header");
  write_file(path, "this is not a journal\n");
  EXPECT_THROW(core::CampaignJournal::load(path), core::JournalError);
  std::filesystem::remove(path);
}

// A version-3 journal (its header still carries the retired
// checkpoint_trees knob) must not resume under this build: load() refuses
// it with a message naming both versions, which the CLI's --resume turns
// into exit code 2.
TEST(Journal, OldVersionJournalIsRefusedNamingBothVersions) {
  const auto grid = small_grid();
  const std::string path = temp_path("old_version");
  write_file(path,
             "{\"type\": \"avis_campaign_journal\", \"version\": 3, \"cells\": 2, "
             "\"checkpoints_enabled\": true, \"checkpoint_trees\": true, "
             "\"checkpoint_interval_ms\": 1000, \"checkpoint_budget_bytes\": 0, "
             "\"cell_hashes\": [\"" +
                 core::cell_identity_hash(grid[0]) + "\", \"" +
                 core::cell_identity_hash(grid[1]) + "\"]}\n");
  try {
    core::CampaignJournal::load(path);
    ADD_FAILURE() << "a version-3 journal loaded";
  } catch (const core::JournalError& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("version 3,"), std::string::npos) << message;
    EXPECT_NE(message.find("version " + std::to_string(core::CampaignJournal::kVersion)),
              std::string::npos)
        << message;
  }
  std::filesystem::remove(path);
}

// A header whose fields pass through narrowing casts must be range-checked
// first: 2^32 + kVersion would resume as this build's version through a
// cast to int.
TEST(Journal, VersionPastIntIsRefusedWithTheVersionMessage) {
  const auto grid = small_grid();
  const std::string path = temp_path("wrapped_version");
  std::ostringstream header;
  const std::string wrapped = std::to_string((1LL << 32) + core::CampaignJournal::kVersion);
  header << "{\"type\": \"avis_campaign_journal\", \"version\": " << wrapped << ", \"cells\": 2, "
            "\"checkpoints_enabled\": true, "
            "\"checkpoint_interval_ms\": 1000, \"checkpoint_budget_bytes\": 0, "
            "\"cell_hashes\": [\""
         << core::cell_identity_hash(grid[0]) << "\", \"" << core::cell_identity_hash(grid[1])
         << "\"]}\n";
  write_file(path, header.str());
  try {
    core::CampaignJournal::load(path);
    ADD_FAILURE() << "a journal claiming version " << wrapped << " loaded";
  } catch (const core::JournalError& err) {
    EXPECT_NE(std::string(err.what()).find("journal format version " + wrapped),
              std::string::npos)
        << err.what();
  }
  std::filesystem::remove(path);
}

// Records are checked against cell_hashes[index] for every index below
// `cells`, so a header whose two disagree is unreadable.
TEST(Journal, CellCountDisagreeingWithHashesIsRefused) {
  const auto grid = small_grid();
  const std::string path = temp_path("short_hashes");
  write_file(path,
             "{\"type\": \"avis_campaign_journal\", \"version\": " +
                 std::to_string(core::CampaignJournal::kVersion) +
                 ", \"cells\": 3, \"checkpoints_enabled\": true, "
                 "\"checkpoint_interval_ms\": 1000, \"checkpoint_budget_bytes\": 0, "
                 "\"cell_hashes\": [\"" +
                 core::cell_identity_hash(grid[0]) + "\"]}\n");
  EXPECT_THROW(core::CampaignJournal::load(path), core::JournalError);
  std::filesystem::remove(path);
}

}  // namespace
