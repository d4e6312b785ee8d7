// Conformance gate (docs/CONFORMANCE.md): the paper's evaluation, as the
// built paper_eval binary (PAPER_EVAL_BIN) runs it, must reproduce the
// checked-in golden document tests/golden/paper_eval.json field for field,
// and the golden must agree with the found sets campaignbench/pins.json
// pins for the same cells. A report change that moves a golden value fails
// here, naming the cell, the field and both values; moving it on purpose
// means regenerating the golden and adding a scorecard line saying why.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace {

using avis::util::Json;

const std::string kSource = AVIS_SOURCE_DIR;
const std::string kGolden = kSource + "/tests/golden/paper_eval.json";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Compact text of a golden value, for mismatch messages and comparison
// (the document holds only strings, integers, arrays and objects).
std::string text_of(const Json& value) {
  std::string text;
  const char* sep = "";
  switch (value.kind()) {
    case Json::Kind::kString: return "\"" + value.as_string() + "\"";
    case Json::Kind::kNumber: return std::to_string(value.as_int64());
    case Json::Kind::kArray:
      for (const Json& element : value.as_array()) {
        text += sep + text_of(element);
        sep = ", ";
      }
      return "[" + text + "]";
    case Json::Kind::kObject:
      for (const auto& [key, member] : value.as_object()) {
        text += sep + ("\"" + key + "\": ") + text_of(member);
        sep = ", ";
      }
      return "{" + text + "}";
    default: return "null";
  }
}

// Every difference between two paper_eval documents, one line each:
// "<cell>: <field>: golden <value>, paper_eval <value>".
std::vector<std::string> differences(const Json& golden, const Json& ours) {
  std::vector<std::string> diffs;
  const Json::Array& want = golden.at("cells").as_array();
  const Json::Array& got = ours.at("cells").as_array();
  if (want.size() != got.size()) {
    diffs.push_back("cells: golden " + std::to_string(want.size()) + ", paper_eval " +
                    std::to_string(got.size()));
  }
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    const std::string cell = want[i].at("cell").as_string();
    for (const auto& [field, value] : want[i].as_object()) {
      const Json* mine = got[i].find(field);
      const std::string theirs = mine != nullptr ? text_of(*mine) : "(missing)";
      if (text_of(value) != theirs) {
        diffs.push_back(cell + ": " + field + ": golden " + text_of(value) + ", paper_eval " +
                        theirs);
      }
    }
    for (const auto& [field, value] : got[i].as_object()) {
      if (want[i].find(field) == nullptr) {
        diffs.push_back(cell + ": " + field + ": golden (missing), paper_eval " + text_of(value));
      }
    }
  }
  return diffs;
}

std::set<std::string> found_set(const Json& bug_first_found) {
  std::set<std::string> found;
  for (const auto& [bug, index] : bug_first_found.as_object()) found.insert(bug);
  return found;
}

TEST(Conformance, PaperEvalReproducesTheGolden) {
  const std::string out = ::testing::TempDir() + "paper_eval_" + std::to_string(::getpid());
  const std::string command =
      std::string(PAPER_EVAL_BIN) + " --json " + out + ".json >" + out + ".txt";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << command;
  const Json ours = Json::parse(read_file(out + ".json"));
  std::filesystem::remove(out + ".json");
  std::filesystem::remove(out + ".txt");
  for (const std::string& diff : differences(Json::parse(read_file(kGolden)), ours)) {
    ADD_FAILURE() << diff;
  }
}

// The comparison itself: one changed value anywhere in the document is
// reported with its cell, field and both values.
TEST(Conformance, OneChangedValueIsNamed) {
  const std::string text = read_file(kGolden);
  const Json golden = Json::parse(text);
  EXPECT_TRUE(differences(golden, golden).empty());
  const std::string needle = "\"unsafe_count\": ";
  const std::size_t last = text.rfind(needle) + needle.size();
  const std::size_t end = text.find_first_not_of("0123456789", last);
  const std::string value = text.substr(last, end - last);
  const std::string bumped = std::to_string(std::stoi(value) + 1);
  const Json changed = Json::parse(text.substr(0, last) + bumped + text.substr(end));
  const Json::Array& cells = golden.at("cells").as_array();
  EXPECT_EQ(differences(golden, changed),
            std::vector<std::string>{cells.back().at("cell").as_string() +
                                     ": unsafe_count: golden " + value + ", paper_eval " + bumped});
}

// campaignbench pins the found sets of the paper-grid (Avis + Stratified
// BFI) and avis-waves (Avis) cells at seed 100; the golden's
// current-code-base cells of the same names must find exactly those bugs.
TEST(Conformance, GoldenAgreesWithCampaignbenchPins) {
  const Json pins = Json::parse(read_file(kSource + "/campaignbench/pins.json"));
  const Json golden = Json::parse(read_file(kGolden));
  const auto seed = pins.at("seed").as_uint64();
  int checked = 0;
  for (const char* workload : {"paper-grid", "avis-waves"}) {
    for (const auto& [name, bugs] : pins.at("workloads").at(workload).as_object()) {
      SCOPED_TRACE(std::string(workload) + " " + name);
      std::set<std::string> pinned;
      for (const Json& bug : bugs.as_array()) pinned.insert(bug.as_string());
      int matches = 0;
      for (const Json& cell : golden.at("cells").as_array()) {
        if (cell.at("cell").as_string() != name) continue;
        ++matches;
        EXPECT_EQ(cell.at("seed").as_uint64(), seed);
        EXPECT_EQ(found_set(cell.at("bug_first_found")), pinned);
      }
      EXPECT_EQ(matches, 1);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 12);  // 8 paper-grid cells + 4 avis-waves cells
}

}  // namespace
