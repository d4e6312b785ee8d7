// Write-ahead cell journal for crash-safe campaigns (docs/CRASH_SAFETY.md).
//
// A journal is a JSONL file. Line 1 is a header binding the campaign it
// belongs to: one identity hash per grid cell (in grid order) plus the
// report-affecting config knobs (checkpoint settings). Every
// later line is one completed cell — its full lossless CheckerReport
// (checker_report_json) plus its wall time. Records are appended
// with a single write() and fsync'd before the campaign acts on the
// completion, so after SIGKILL at any instant the file holds every
// acknowledged cell plus at most one torn final line. load() detects the
// torn record and drops it (the cell simply re-runs); corruption anywhere
// *except* the final line cannot be produced by a crash and is fatal.
//
// Cells are pure functions of their ScenarioSpec (the determinism contract
// in docs/PERFORMANCE.md), which is what makes resume sound: a journaled
// report is bit-identical to what re-running the cell would produce, so a
// resumed campaign's merged report matches an uninterrupted run modulo
// wall-clock fields (tests/test_oracle.cc, the CI crash-and-resume smoke).
//
// load() refuses every journal version but kVersion. Within a record it
// reads only the keys it names and ignores any others
// (Journal.RoundTripsHeaderAndRecords feeds one).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/checkpoint.h"

namespace avis::core {

class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Content-addressed cell identity: FNV-1a 64 over label + 0x1f +
// ScenarioSpec::to_json() (byte-stable key order), as 16 hex digits. The
// spec names everything a cell runs — a re-inserted bug is its bug
// selector ("current+APM-4679") — so a journal record only ever resumes a
// cell whose spec is bit-identical: changing any grid flag or re-inserted
// bug changes the hash and fails the header bind.
std::string cell_identity_hash(const CampaignCellSpec& cell);

// One completed cell as journaled: where it sits in the grid, what it was
// (spec hash), how long it took, and the full report.
struct JournalCellRecord {
  int index = -1;
  std::string spec_hash;
  double wall_seconds = 0.0;
  CheckerReport report;
};

class CampaignJournal {
 public:
  // v2: the header no longer carries batch_width (the lockstep batch
  // engine is gone). v3: cell reports no longer carry
  // checkpoint_tree_evicted (checkpoint_evicted counts every evicted
  // snapshot). v4: the header no longer carries checkpoint_trees (trees
  // are on whenever checkpoints are). v5: the header no longer carries
  // checkpoint_interval_ms (the cadence is kCheckpointIntervalMs). load()
  // refuses any other version.
  static constexpr int kVersion = 5;

  struct Header {
    int version = kVersion;
    std::size_t cells = 0;
    bool checkpoints_enabled = true;
    std::size_t checkpoint_budget_bytes = 0;
    std::vector<std::string> cell_hashes;  // grid order
  };

  struct Loaded {
    Header header;
    std::vector<JournalCellRecord> cells;  // valid records, duplicates dropped
    bool dropped_torn_record = false;      // final line was a partial write
  };

  // The header a campaign with this grid and config would write. Binds
  // everything that changes report bytes; deliberately excludes wall-clock
  // knobs (worker counts) that the masked-diff contract ignores.
  static Header bind(const std::vector<CampaignCellSpec>& grid,
                     const CheckpointConfig& checkpoints);

  // Human-readable field-by-field mismatch between a loaded header and the
  // requested campaign; empty string means compatible. `grid` (the
  // requested cells) annotates per-cell hash mismatches with registry names.
  static std::string header_diff(const Header& journal, const Header& requested,
                                 const std::vector<CampaignCellSpec>& grid);

  // Fresh journal: truncate/create `path`, write + fsync the header line.
  static CampaignJournal start(const std::string& path, const Header& header);

  // Reopen an existing journal for appending (the --resume path). Does not
  // re-validate the header; callers load() + header_diff() first.
  static CampaignJournal append_to(const std::string& path);

  // Parse a journal back. Throws JournalError if the file is missing, the
  // header is unreadable or of another journal version (the message names
  // both versions), or a non-final record is corrupt. A torn final
  // line sets dropped_torn_record instead. Records with an index/hash that
  // disagree with the header are corruption (fatal, same non-final rule);
  // duplicate indices keep the first copy (determinism makes them equal).
  static Loaded load(const std::string& path);

  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal& operator=(CampaignJournal&& other) noexcept;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;
  ~CampaignJournal();

  // Append one completed cell: a single write() of the record line, then
  // fsync. On return the record is durable; call this *before* acting on
  // the completion (handing the cell to the caller's result).
  void append(const JournalCellRecord& record);

  const std::string& path() const { return path_; }

 private:
  CampaignJournal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  void p_write_line(std::string line);

  std::string path_;
  int fd_ = -1;
};

}  // namespace avis::core
