#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "util/json.h"

namespace avis::core {
namespace {

// checker_report_json emits pretty-printed JSON; JSONL needs one record per
// line. Every raw newline in the emitter is inter-token whitespace (strings
// escape \n as \\n via json_escape), so stripping them is loss-free.
std::string p_single_line(std::string text) {
  text.erase(std::remove(text.begin(), text.end(), '\n'), text.end());
  return text;
}

std::string p_hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

[[noreturn]] void p_throw_errno(const std::string& what, const std::string& path) {
  throw JournalError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string cell_identity_hash(const CampaignCellSpec& cell) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  };
  mix(cell.label);
  mix("\x1f");  // unit separator: "a"+"bc" must not collide with "ab"+"c"
  mix(cell.scenario.to_json());
  return p_hex64(hash);
}

CampaignJournal::Header CampaignJournal::bind(const std::vector<CampaignCellSpec>& grid,
                                              const CheckpointConfig& checkpoints) {
  Header header;
  header.cells = grid.size();
  header.checkpoints_enabled = checkpoints.enabled;
  header.checkpoint_budget_bytes = checkpoints.byte_budget;
  header.cell_hashes.reserve(grid.size());
  for (const CampaignCellSpec& cell : grid) {
    header.cell_hashes.push_back(cell_identity_hash(cell));
  }
  return header;
}

std::string CampaignJournal::header_diff(const Header& journal, const Header& requested,
                                         const std::vector<CampaignCellSpec>& grid) {
  std::ostringstream os;
  os << std::boolalpha;
  const auto field = [&os](const char* name, const auto& from_journal, const auto& from_flags) {
    if (!(from_journal == from_flags)) {
      os << "  " << name << ": journal has " << from_journal << ", requested " << from_flags
         << "\n";
    }
  };
  field("journal version", journal.version, requested.version);
  field("cells", journal.cells, requested.cells);
  field("checkpoints_enabled", journal.checkpoints_enabled, requested.checkpoints_enabled);
  field("checkpoint_budget_bytes", journal.checkpoint_budget_bytes,
        requested.checkpoint_budget_bytes);
  const std::size_t common = std::min(journal.cell_hashes.size(), requested.cell_hashes.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (journal.cell_hashes[i] == requested.cell_hashes[i]) continue;
    os << "  cell " << i << ": journal has " << journal.cell_hashes[i] << ", requested "
       << requested.cell_hashes[i];
    if (i < grid.size()) {
      const ScenarioSpec& spec = grid[i].scenario;
      os << " (" << spec.approach << " / " << spec.personality << " / " << spec.workload << " / "
         << spec.environment << ")";
    }
    os << "\n";
  }
  return os.str();
}

CampaignJournal CampaignJournal::start(const std::string& path, const Header& header) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) p_throw_errno("cannot create journal", path);
  CampaignJournal journal(path, fd);
  std::ostringstream os;
  os << std::boolalpha;
  os << "{\"type\": \"avis_campaign_journal\", \"version\": " << header.version
     << ", \"cells\": " << header.cells
     << ", \"checkpoints_enabled\": " << header.checkpoints_enabled
     << ", \"checkpoint_budget_bytes\": " << header.checkpoint_budget_bytes
     << ", \"cell_hashes\": [";
  for (std::size_t i = 0; i < header.cell_hashes.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << header.cell_hashes[i] << "\"";
  }
  os << "]}";
  journal.p_write_line(os.str());
  return journal;
}

CampaignJournal CampaignJournal::append_to(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) p_throw_errno("cannot reopen journal", path);
  return CampaignJournal(path, fd);
}

CampaignJournal::Loaded CampaignJournal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JournalError("cannot open journal " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  std::vector<std::string_view> lines;
  const std::string_view view(content);
  std::size_t start = 0;
  while (start < view.size()) {
    const std::size_t end = view.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back(view.substr(start));  // final line missing its \n: torn
      break;
    }
    lines.push_back(view.substr(start, end - start));
    start = end + 1;
  }
  if (lines.empty()) throw JournalError(path + ": empty file, not a campaign journal");

  Loaded loaded;
  try {
    const util::Json json = util::Json::parse(lines[0]);
    if (json.get_string("type", "") != "avis_campaign_journal") {
      throw util::JsonError("missing journal header tag");
    }
    Header& header = loaded.header;
    // Compared at full width, so a version past int is named as written.
    const std::int64_t version = json.at("version").as_int64();
    if (version != kVersion) {
      // Thrown past the JsonError handler below: the header parsed fine, it
      // just describes a format this build does not read.
      throw JournalError(path + ": journal format version " + std::to_string(version) +
                         ", but this build reads version " + std::to_string(kVersion) +
                         " — rerun the campaign with a fresh --journal");
    }
    header.cells = json.at("cells").as_int<std::size_t>("cells");
    header.checkpoints_enabled = json.at("checkpoints_enabled").as_bool();
    header.checkpoint_budget_bytes =
        json.at("checkpoint_budget_bytes").as_int<std::size_t>("checkpoint_budget_bytes");
    for (const util::Json& hash : json.at("cell_hashes").as_array()) {
      header.cell_hashes.push_back(hash.as_string());
    }
    // Records are checked against cell_hashes[index] for index < cells.
    if (header.cell_hashes.size() != header.cells) {
      throw util::JsonError("cells is " + std::to_string(header.cells) + " but cell_hashes has " +
                            std::to_string(header.cell_hashes.size()) + " entries");
    }
  } catch (const util::JsonError& err) {
    // A header can only be torn if the campaign crashed before journaling a
    // single cell — nothing to resume either way, so unreadable headers are
    // always fatal rather than silently treated as an empty journal.
    throw JournalError(path + ": unreadable journal header: " + err.what());
  }

  std::vector<bool> seen(loaded.header.cells, false);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool is_final_line = i + 1 == lines.size();
    try {
      const util::Json json = util::Json::parse(lines[i]);
      if (json.get_string("type", "") != "cell") throw util::JsonError("unexpected record type");
      JournalCellRecord record;
      record.index = json.at("index").as_int("cell index");
      record.spec_hash = json.at("spec_hash").as_string();
      const util::Json* wall = json.find("wall_seconds");
      record.wall_seconds = wall != nullptr ? wall->as_double() : 0.0;
      record.report = checker_report_from_json(json.at("report"));
      if (record.index < 0 || static_cast<std::size_t>(record.index) >= loaded.header.cells) {
        throw util::JsonError("cell index " + std::to_string(record.index) +
                              " outside the journaled grid");
      }
      if (record.spec_hash != loaded.header.cell_hashes[static_cast<std::size_t>(record.index)]) {
        throw util::JsonError("record spec_hash disagrees with the journal header");
      }
      const auto slot = static_cast<std::size_t>(record.index);
      if (seen[slot]) continue;  // re-journaled after a crashed resume; copies are identical
      seen[slot] = true;
      loaded.cells.push_back(std::move(record));
    } catch (const util::JsonError& err) {
      if (is_final_line) {
        // The torn-record rule: a crash mid-append leaves exactly one
        // partial final line. Drop it — its cell re-runs deterministically.
        loaded.dropped_torn_record = true;
        break;
      }
      throw JournalError(path + " line " + std::to_string(i + 1) +
                         ": corrupt journal record (only the final line may be torn): " +
                         err.what());
    }
  }
  return loaded;
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

CampaignJournal& CampaignJournal::operator=(CampaignJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::append(const JournalCellRecord& record) {
  std::ostringstream os;
  os << "{\"type\": \"cell\", \"index\": " << record.index << ", \"spec_hash\": \""
     << record.spec_hash << "\", \"wall_seconds\": " << record.wall_seconds
     << ", \"report\": " << p_single_line(checker_report_json(record.report)) << "}";
  p_write_line(os.str());
}

void CampaignJournal::p_write_line(std::string line) {
  line.push_back('\n');
  // One write() per record keeps crash states simple: the kernel may still
  // tear it (write is not atomic across power loss), but a single partial
  // final line is the *only* torn shape load() ever has to handle.
  std::size_t offset = 0;
  while (offset < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + offset, line.size() - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      p_throw_errno("journal write failed for", path_);
    }
    offset += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) p_throw_errno("journal fsync failed for", path_);
}

}  // namespace avis::core
