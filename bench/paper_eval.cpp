// The paper's evaluation (§VI) as one campaign: Tables II-V from one
// CampaignRunner::run.
//
// The grid is the 16-cell evaluation grid (4 approaches x 2 personalities x
// 2 workloads on the current code base), of which Tables II, III and IV are
// views, followed by Table V's 40 cells: each previously-known bug
// re-inserted on top of the current code base, run by all four approaches
// on both workloads of the bug's personality. `--json FILE` also writes the
// per-cell document tests/golden/paper_eval.json pins
// (tests/test_conformance.cc; docs/CONFORMANCE.md holds the paper's
// numbers). Every cell report is a pure function of its spec, so the
// document does not depend on the worker split.
//
//   paper_eval [--json FILE]
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common.h"
#include "fw/bugs.h"

namespace {

using namespace avis;

// The previously-known bugs a cell's population holds: none for the
// evaluation grid, exactly the re-inserted one for a Table V cell.
std::vector<fw::BugId> known_bugs(const core::CampaignCellSpec& cell) {
  std::vector<fw::BugId> known;
  for (fw::BugId id : core::prototype_key(cell).bugs) {
    if (fw::bug_info(id).known) known.push_back(id);
  }
  return known;
}

// "approach/personality/workload/environment", plus "+BUG" for a Table V
// cell; the evaluation grid's names are campaignbench/pins.json's keys.
std::string cell_name(const core::CampaignCellSpec& cell) {
  const core::ScenarioSpec& s = cell.scenario;
  std::string name = s.approach + "/" + s.personality + "/" + s.workload + "/" + s.environment;
  for (fw::BugId id : known_bugs(cell)) name += std::string("+") + fw::bug_info(id).report_name;
  return name;
}

std::vector<core::CampaignCellSpec> paper_grid() {
  std::vector<core::CampaignCellSpec> grid = bench::evaluation_grid(bench::paper_approaches());
  for (fw::BugId bug : fw::kAllBugs) {
    const fw::BugInfo& info = fw::bug_info(bug);
    if (!info.known) continue;
    fw::BugRegistry registry = fw::BugRegistry::current_code_base();
    registry.enable(bug);
    const std::string personality =
        info.personality == fw::Personality::kArduPilotLike ? "ardupilot" : "px4";
    for (const std::string& approach : bench::paper_approaches()) {
      for (const std::string& workload : bench::evaluation_workloads()) {
        grid.push_back(bench::make_cell(approach, personality, workload, registry));
      }
    }
  }
  return grid;
}

// Table V's leak guard: a cell with a bugs_override holds exactly one known
// bug, any other cell none, and each (bug, approach, workload) has one cell.
bool table5_cells_are_disjoint(const std::vector<core::CampaignCellSpec>& grid) {
  std::set<std::tuple<fw::BugId, std::string, std::string>> seen;
  for (const core::CampaignCellSpec& cell : grid) {
    const std::vector<fw::BugId> known = known_bugs(cell);
    const core::ScenarioSpec& s = cell.scenario;
    if (known.size() != (cell.bugs_override ? 1u : 0u) ||
        (!known.empty() && !seen.emplace(known[0], s.approach, s.workload).second)) {
      std::cerr << cell_name(cell) << ": a known bug leaked into another cell\n";
      return false;
    }
  }
  return true;
}

void render_tables(std::ostream& os, const core::CampaignResult& campaign) {
  const std::vector<std::string> approaches = bench::paper_approaches();
  std::vector<std::string> labels;
  for (const std::string& approach : approaches) labels.push_back(core::approach_label(approach));
  const auto labelled_table = [&](std::vector<std::string> header) {
    header.insert(header.end(), labels.begin(), labels.end());
    return util::TextTable(std::move(header));
  };
  // Per approach, over the evaluation grid: found bugs, unsafe runs by
  // personality, simulations, model labels and Table IV's mode buckets.
  struct Row {
    std::set<fw::BugId> found;
    int ap = 0, px4 = 0, experiments = 0, labels = 0;
    std::array<int, 4> buckets{};
  };
  std::map<std::string, Row> rows;
  // Table V: (bug, approach) -> fewest simulations to trigger, over workloads.
  std::map<std::pair<fw::BugId, std::string>, int> first_found;
  for (const auto& cell : campaign.cells) {
    const std::string& approach = cell.spec.scenario.approach;
    const core::CheckerReport& report = cell.report;
    if (const std::vector<fw::BugId> known = known_bugs(cell.spec); !known.empty()) {
      if (const auto it = report.bug_first_found.find(known[0]);
          it != report.bug_first_found.end()) {
        const auto [slot, added] = first_found.try_emplace({known[0], approach}, it->second);
        if (!added) slot->second = std::min(slot->second, it->second);
      }
      continue;
    }
    Row& row = rows[approach];
    for (const auto& [bug, index] : report.bug_first_found) row.found.insert(bug);
    (cell.spec.scenario.personality == "ardupilot" ? row.ap : row.px4) += report.unsafe_count();
    row.experiments += report.experiments;
    row.labels += report.labels;
    const auto buckets = report.unsafe_by_bucket();
    for (std::size_t i = 0; i < buckets.size(); ++i) row.buckets[i] += buckets[i];
  }

  os << "== Table II: previously-unknown bugs found (X) ==\n";
  util::TextTable t2 = labelled_table(
      {"Report #", "Firmware", "Symptom", "Sensor Failure", "Failure Starting Moment"});
  for (fw::BugId id : fw::kAllBugs) {
    const fw::BugInfo& info = fw::bug_info(id);
    if (info.known) continue;
    std::vector<std::string> cells = {info.report_name, fw::to_string(info.personality),
                                      fw::to_string(info.symptom),
                                      sensors::to_string(info.sensor), info.window};
    for (const std::string& approach : approaches) {
      cells.push_back(rows[approach].found.contains(id) ? "X" : "");
    }
    t2.add_row(std::move(cells));
  }
  t2.render(os);

  os << "\n== Table III: unsafe scenarios per approach ==\n";
  util::TextTable t3({"Approach", "ArduPilot Unsafe #", "PX4 Unsafe #", "Total #",
                      "simulations", "model labels"});
  for (std::size_t i = 0; i < approaches.size(); ++i) {
    const Row& row = rows[approaches[i]];
    t3.add(labels[i], row.ap, row.px4, row.ap + row.px4, row.experiments, row.labels);
  }
  t3.render(os);
  const auto total = [&](const char* approach) { return rows[approach].ap + rows[approach].px4; };
  for (const char* baseline : {"stratified-bfi", "bfi"}) {
    os << "Avis vs " << core::approach_label(baseline) << ": ";
    if (total(baseline) > 0) os << static_cast<double>(total("avis")) / total(baseline) << "x\n";
    if (total(baseline) == 0) os << "baseline found none\n";
  }

  os << "\n== Table IV: unsafe scenarios per mode (newest injection) ==\n";
  util::TextTable t4({"Approach", "Takeoff #", "Manual #", "Waypoint #", "Land #"});
  for (std::size_t i = 0; i < approaches.size(); ++i) {
    const auto& b = rows[approaches[i]].buckets;
    t4.add(labels[i], b[0], b[1], b[2], b[3]);
  }
  t4.render(os);

  os << "\n== Table V: simulations to trigger a re-inserted known bug (fewest over both "
        "workloads; - = not triggered) ==\n";
  util::TextTable t5 = labelled_table({"Bug ID"});
  for (fw::BugId id : fw::kAllBugs) {
    if (!fw::bug_info(id).known) continue;
    std::vector<std::string> cells = {fw::bug_info(id).report_name};
    for (const std::string& approach : approaches) {
      const auto it = first_found.find({id, approach});
      cells.push_back(it != first_found.end() ? std::to_string(it->second) : "-");
    }
    t5.add_row(std::move(cells));
  }
  t5.render(os);
}

// The pinned document: per cell in grid order, its identity and outcome.
// No wall-clock, worker-split, checkpoint or coverage fields.
std::string golden_json(const core::CampaignResult& campaign) {
  std::ostringstream os;
  os << "{\n  \"cells\": [\n";
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const core::CampaignCellResult& cell = campaign.cells[i];
    const core::CheckerReport& report = cell.report;
    const auto b = report.unsafe_by_bucket();
    os << "    {\"cell\": \"" << util::json_escape(cell_name(cell.spec))
       << "\", \"seed\": " << cell.spec.scenario.seed
       << ", \"experiments\": " << report.experiments << ", \"labels\": " << report.labels
       << ", \"unsafe_count\": " << report.unsafe_count() << ", \"unsafe_by_bucket\": ["
       << b[0] << ", " << b[1] << ", " << b[2] << ", " << b[3] << "], \"bug_first_found\": {";
    const char* sep = "";
    for (const auto& [bug, index] : report.bug_first_found) {
      os << sep << "\"" << fw::bug_info(bug).report_name << "\": " << index;
      sep = ", ";
    }
    os << "}}" << (i + 1 < campaign.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc == 3 && std::string(argv[1]) == "--json";
  if (argc != 1 && !json) {
    std::cerr << "usage: " << argv[0] << " [--json FILE]\n";
    return 2;
  }
  std::ofstream out;
  if (json) {
    out.open(argv[2], std::ios::trunc);
    if (!out) {
      std::cerr << argv[0] << ": cannot write " << argv[2] << "\n";
      return 1;
    }
  }
  const std::vector<core::CampaignCellSpec> grid = paper_grid();
  if (!table5_cells_are_disjoint(grid)) return 1;
  const core::CampaignResult campaign = bench::run_campaign(grid);
  render_tables(std::cout, campaign);
  bench::print_campaign_footer(std::cout, campaign);
  if (json && !(out << golden_json(campaign) << std::flush)) {
    std::cerr << argv[0] << ": writing " << argv[2] << " failed\n";
    return 1;
  }
  return 0;
}
