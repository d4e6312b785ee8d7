// The declarative ScenarioSpec API (core/scenario.h, docs/SCENARIOS.md).
//
// Contracts under test:
//  * from_json(to_json(spec)) reproduces an identical spec (and likewise
//    for a whole ScenarioGrid, the --scenario-file document; that a
//    campaign run from a dumped document reports what the grid built
//    directly reports is the document row of tests/test_oracle.cc);
//  * grid expansion is the deterministic (approach, personality, workload,
//    environment) product the table benches rely on;
//  * every registry name resolves through scenario_prototype /
//    make_scenario_strategy, and typos die loudly with the registered-name
//    listing;
//  * a grid containing a new workload x new environment preset runs end to
//    end — the diversity claim the registries exist for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/scenario.h"
#include "sim/environment_presets.h"
#include "workload/registry.h"

namespace {

using namespace avis;

core::ScenarioSpec non_default_spec() {
  core::ScenarioSpec spec;
  spec.approach = "random";
  spec.personality = "px4";
  spec.workload = "survey";
  spec.environment = "gusty";
  spec.bugs = "all";
  spec.budget_ms = 123456;
  spec.seed = 9001;
  spec.strategy_seed = 77;
  spec.constraints.max_set_size = 1;
  spec.constraints.max_plan_events = 2;
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripIsIdentity) {
  const core::ScenarioSpec spec = non_default_spec();
  const core::ScenarioSpec reparsed = core::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed, spec);

  const core::ScenarioSpec defaults;
  EXPECT_EQ(core::ScenarioSpec::from_json(defaults.to_json()), defaults);
}

TEST(ScenarioSpec, FromJsonDefaultsMissingKeys) {
  const core::ScenarioSpec defaults;
  const core::ScenarioSpec parsed = core::ScenarioSpec::from_json(std::string_view("{}"));
  EXPECT_EQ(parsed, defaults);

  // strategy_seed defaults to seed + 7, matching the campaign stack's
  // long-standing convention.
  const auto seeded = core::ScenarioSpec::from_json(std::string_view(R"({"seed": 40})"));
  EXPECT_EQ(seeded.seed, 40u);
  EXPECT_EQ(seeded.strategy_seed, 47u);
}

TEST(ScenarioSpec, UnknownKeysAreRejected) {
  EXPECT_THROW(core::ScenarioSpec::from_json(std::string_view(R"({"envrionment": "calm"})")),
               util::JsonError);
  EXPECT_THROW(core::ScenarioGrid::from_json(std::string_view(R"({"workload": ["auto"]})")),
               util::JsonError);
}

// The constraint fields are ints: a value past int's range is refused by
// name, not wrapped (4294967297 would read as 1, 4294967299 as 3).
TEST(ScenarioSpec, ConstraintPastIntIsRefused) {
  for (const char* doc : {R"({"constraints": {"max_set_size": 4294967297}})",
                          R"({"constraints": {"max_plan_events": 4294967299}})"}) {
    SCOPED_TRACE(doc);
    try {
      core::ScenarioGrid::from_json(std::string_view(doc));
      ADD_FAILURE() << "accepted";
    } catch (const util::JsonError& err) {
      EXPECT_NE(std::string(err.what()).find("must be an integer in [-2147483648, 2147483647]"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(ScenarioSpec, ValidateCatchesTyposWithSuggestion) {
  core::ScenarioSpec spec;
  spec.workload = "surveey";
  try {
    spec.validate();
    FAIL() << "expected UnknownNameError";
  } catch (const util::UnknownNameError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("did you mean 'survey'?"), std::string::npos) << what;
    EXPECT_NE(what.find("registered workloads are"), std::string::npos) << what;
  }

  core::ScenarioSpec bad_env;
  bad_env.environment = "windy";
  EXPECT_THROW(bad_env.validate(), util::UnknownNameError);
  core::ScenarioSpec bad_bugs;
  bad_bugs.bugs = "currennt";
  EXPECT_THROW(bad_bugs.validate(), util::UnknownNameError);
  EXPECT_NO_THROW(non_default_spec().validate());
}

TEST(ScenarioGrid, ExpandIsTheDeterministicProductPlusExplicitScenarios) {
  core::ScenarioGrid grid;
  grid.approaches = {"avis", "random"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"auto", "survey"};
  grid.environments = {"calm", "gusty"};
  grid.seed = 5;
  grid.scenarios.push_back(non_default_spec());

  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u * 1u * 2u * 2u + 1u);
  // (approach, personality, workload, environment) nesting, slowest first.
  EXPECT_EQ(specs[0].approach, "avis");
  EXPECT_EQ(specs[0].workload, "auto");
  EXPECT_EQ(specs[0].environment, "calm");
  EXPECT_EQ(specs[1].environment, "gusty");
  EXPECT_EQ(specs[2].workload, "survey");
  EXPECT_EQ(specs[4].approach, "random");
  // Grid-level seed propagates; strategy_seed derives as seed + 7.
  EXPECT_EQ(specs[0].seed, 5u);
  EXPECT_EQ(specs[0].strategy_seed, 12u);
  // Explicit scenarios ride along verbatim, after the product.
  EXPECT_EQ(specs.back(), non_default_spec());
}

TEST(ScenarioGrid, JsonRoundTripIsIdentity) {
  core::ScenarioGrid grid;
  grid.approaches = {"avis", "stratified-bfi"};
  grid.personalities = {"px4"};
  grid.workloads = {"wind-gust-box"};
  grid.environments = {"breeze", "gusty"};
  grid.bugs = "patched";
  grid.budget_ms = 60000;
  grid.seed = 3;
  grid.strategy_seed = 11;
  grid.constraints.max_plan_events = 2;
  grid.scenarios.push_back(non_default_spec());

  const core::ScenarioGrid reparsed = core::ScenarioGrid::from_json(grid.to_json());
  EXPECT_EQ(reparsed, grid);

  const core::ScenarioGrid defaults;
  EXPECT_EQ(core::ScenarioGrid::from_json(defaults.to_json()), defaults);
}

TEST(Registries, BuiltinsArePresent) {
  for (const char* name : {"avis", "stratified-bfi", "bfi", "random"}) {
    EXPECT_TRUE(core::approach_registry().contains(name)) << name;
  }
  for (const char* name : {"auto", "box-manual", "fence-mission", "wind-gust-box", "survey"}) {
    EXPECT_TRUE(workload::workload_registry().contains(name)) << name;
  }
  for (const char* name : {"calm", "breeze", "gusty"}) {
    EXPECT_TRUE(sim::environment_registry().contains(name)) << name;
  }
  for (const char* name : {"ardupilot", "px4"}) {
    EXPECT_TRUE(core::personality_registry().contains(name)) << name;
  }
  for (const char* name : {"current", "patched", "all"}) {
    EXPECT_TRUE(core::bug_selector_registry().contains(name)) << name;
  }
  // Factories build what their names promise.
  EXPECT_EQ(workload::make_workload("survey")->name(), "survey");
  EXPECT_EQ(workload::make_workload("wind-gust-box")->name(), "wind-gust-box");
  EXPECT_GT(sim::make_environment("gusty").wind().gust_stddev, 0.0);
  EXPECT_EQ(sim::make_environment("calm").wind().mean.x, 0.0);
  EXPECT_TRUE(core::resolve_bugs("patched").enabled_bugs().empty());
  EXPECT_FALSE(core::resolve_bugs("all").enabled_bugs().empty());
  EXPECT_EQ(core::resolve_personality("px4"), fw::Personality::kPx4Like);
  EXPECT_EQ(core::approach_label("avis"), "Avis");
  EXPECT_EQ(core::approach_label("not-registered"), "not-registered");
}

// Table V's populations are selectors: "current+<REPORT>" is the current
// code base plus exactly that previously-known bug, one per known bug, and a
// scenario naming one survives the JSON round trip.
TEST(Registries, ReinsertedBugSelectorsAddOneKnownBug) {
  const std::vector<fw::BugId> current = core::resolve_bugs("current").enabled_bugs();
  int known = 0;
  for (const fw::BugId id : fw::kAllBugs) {
    if (!fw::bug_info(id).known) continue;
    ++known;
    const std::string name = std::string("current+") + fw::bug_info(id).report_name;
    SCOPED_TRACE(name);
    const fw::BugRegistry bugs = core::resolve_bugs(name);
    EXPECT_TRUE(bugs.enabled(id));
    EXPECT_EQ(bugs.enabled_bugs().size(), current.size() + 1);
    for (const fw::BugId other : current) EXPECT_TRUE(bugs.enabled(other));
    core::ScenarioSpec spec;
    spec.bugs = name;
    EXPECT_NO_THROW(spec.validate());
    EXPECT_EQ(core::ScenarioSpec::from_json(spec.to_json()), spec);
  }
  EXPECT_EQ(known, 5);
  EXPECT_EQ(core::bug_selector_registry().entries().size(), 3u + known);
}

TEST(ScenarioPrototype, ResolvesEveryAxis) {
  core::ScenarioSpec spec;
  spec.personality = "px4";
  spec.workload = "survey";
  spec.environment = "gusty";
  spec.bugs = "patched";
  spec.seed = 42;
  const core::ExperimentSpec prototype = core::scenario_prototype(spec);
  EXPECT_EQ(prototype.personality, fw::Personality::kPx4Like);
  ASSERT_TRUE(static_cast<bool>(prototype.workload_factory));
  EXPECT_EQ(prototype.workload_factory()->name(), "survey");
  ASSERT_TRUE(static_cast<bool>(prototype.environment_factory));
  EXPECT_GT(prototype.environment_factory().wind().gust_stddev, 0.0);
  EXPECT_TRUE(prototype.bugs.enabled_bugs().empty());
  EXPECT_EQ(prototype.seed, 42u);

  // The calm preset stays on the default-environment fast path: no factory
  // object to copy per experiment.
  core::ScenarioSpec calm;
  EXPECT_FALSE(static_cast<bool>(core::scenario_prototype(calm).environment_factory));

  core::ScenarioSpec typo;
  typo.workload = "boxmanual";
  EXPECT_THROW(core::scenario_prototype(typo), util::UnknownNameError);
}

TEST(ScenarioStrategy, ConstraintsParameterizeTheSearch) {
  core::ScenarioSpec spec;
  spec.workload = "auto";
  spec.budget_ms = 600 * 1000;
  spec.constraints.max_set_size = 1;
  spec.constraints.max_plan_events = 1;
  core::Checker checker(core::scenario_prototype(spec));
  const core::MonitorModel& model = checker.model();
  auto strategy = core::make_scenario_strategy(spec, model);
  core::BudgetClock budget(spec.budget_ms);
  // Under max_plan_events = 1 every plan SABRE proposes is a singleton.
  int plans = 0;
  while (plans < 40) {
    auto plan = strategy->next(budget);
    if (!plan) break;
    EXPECT_EQ(plan->size(), 1u) << plan->to_string();
    ++plans;
  }
  EXPECT_GT(plans, 0);
}

// The diversity claim: a scenario file whose grid names a post-paper
// workload and a post-paper environment preset runs end to end.
TEST(ScenarioCampaign, NewWorkloadAndEnvironmentRunEndToEnd) {
  const char* document = R"({
    "approaches": ["avis"],
    "personalities": ["ardupilot"],
    "workloads": ["wind-gust-box"],
    "environments": ["gusty"],
    "budget_ms": 60000
  })";
  const core::ScenarioGrid grid = core::ScenarioGrid::from_json(std::string_view(document));
  const core::CampaignResult result = core::CampaignRunner().run(grid);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_GE(result.cells[0].report.experiments, 1);
  const std::string json = core::campaign_report_json(result);
  EXPECT_NE(json.find("\"workload\": \"wind-gust-box\""), std::string::npos);
  EXPECT_NE(json.find("\"environment\": \"gusty\""), std::string::npos);
}

}  // namespace
