// Coverage-guided scenario fuzzing (src/fuzz/, docs/FUZZING.md).
//
// Contracts under test:
//  * coverage keys combine mode-graph edges with the plan's injection-window
//    bucket, and accumulate only across *distinct* consecutive mode ids;
//  * the mutation engine stays inside the registries and constraint bounds —
//    a mutant always passes ScenarioSpec::validate(), and the fuzz-identity
//    fields (approach, bugs, budget, seeds) are never touched;
//  * the corpus admits exactly the entries that reach new coverage keys,
//    dedups by coverage signature, evicts dominated entries, and dumps as a
//    ScenarioGrid document that loads back to the same specs;
//  * the strategies enforce FaultPlanConstraints: RandomInjection samples
//    inside the window from allowed types only, SABRE emits nothing outside
//    the window or the type mask;
//  * the fuzz loop is deterministic — the same seed yields a byte-identical
//    corpus document and an equal coverage map at any worker count — and a
//    fixed-seed run discovers a scenario outside the seed grid reaching a
//    coverage key no seed cell reaches, whose dumped spec replays
//    report-identically through the ordinary campaign path.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baselines/bayes_model.h"
#include "baselines/bfi.h"
#include "baselines/random_injection.h"
#include "baselines/stratified_bfi.h"
#include "core/budget.h"
#include "core/coverage.h"
#include "core/harness.h"
#include "core/sabre.h"
#include "core/scenario.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "test_helpers.h"
#include "util/registry.h"

namespace {

using namespace avis;

// --- Coverage keys ---------------------------------------------------------

TEST(Coverage, AccumulatesDistinctEdgesUnderWindowBucket) {
  core::FaultPlan plan;
  plan.add(12500, {sensors::SensorType::kGps, 0});  // bucket 12500 / 5000 = 2
  std::vector<core::ModeTransition> transitions = {
      {0, 10, "a"}, {1000, 20, "b"}, {2000, 20, "b"}, {3000, 10, "a"}, {4000, 20, "b"},
  };
  core::CoverageMap map;
  core::accumulate_run_coverage(map, plan, transitions);
  ASSERT_EQ(map.size(), 2u);  // 10->20 (twice), 20->10; the 20->20 repeat is no edge
  EXPECT_EQ((map[core::CoverageKey{10, 20, 2}]), 2);
  EXPECT_EQ((map[core::CoverageKey{20, 10, 2}]), 1);
  EXPECT_EQ(core::coverage_key_string(core::CoverageKey{10, 20, 2}), "10->20@w2");
}

TEST(Coverage, EmptyPlanBucketsToMinusOne) {
  core::FaultPlan plan;
  std::vector<core::ModeTransition> transitions = {{0, 1, "a"}, {100, 2, "b"}};
  core::CoverageMap map;
  core::accumulate_run_coverage(map, plan, transitions);
  ASSERT_TRUE(map.contains(core::CoverageKey{1, 2, -1}));
  EXPECT_EQ(core::coverage_window_bucket(core::FaultPlan::kNever), -1);
}

TEST(Coverage, SubsetIgnoresCounts) {
  core::CoverageMap small{{core::CoverageKey{1, 2, 0}, 5}};
  core::CoverageMap big{{core::CoverageKey{1, 2, 0}, 1}, {core::CoverageKey{2, 3, 1}, 1}};
  EXPECT_TRUE(core::coverage_keys_subset(small, big));
  EXPECT_FALSE(core::coverage_keys_subset(big, small));
}

// --- Mutation engine -------------------------------------------------------

TEST(Mutator, MutantsAreValidByConstructionAndKeepIdentityFields) {
  core::ScenarioSpec seed;  // defaults: avis / ardupilot / box-manual / calm
  util::Rng rng(42);
  const fuzz::MutationConfig config;
  for (int i = 0; i < 300; ++i) {
    const core::ScenarioSpec mutant = fuzz::mutate(rng, seed, config);
    ASSERT_NO_THROW(mutant.validate()) << "mutant " << i << ": " << mutant.to_json();
    // Fuzz-identity fields never move.
    EXPECT_EQ(mutant.approach, seed.approach);
    EXPECT_EQ(mutant.bugs, seed.bugs);
    EXPECT_EQ(mutant.budget_ms, seed.budget_ms);
    EXPECT_EQ(mutant.seed, seed.seed);
    EXPECT_EQ(mutant.strategy_seed, seed.strategy_seed);
    // Constraint perturbations stay inside the configured bounds.
    EXPECT_GE(mutant.constraints.max_set_size, config.set_size.lo);
    EXPECT_LE(mutant.constraints.max_set_size, config.set_size.hi);
    EXPECT_GE(mutant.constraints.max_plan_events, config.plan_events.lo);
    EXPECT_LE(mutant.constraints.max_plan_events, config.plan_events.hi);
    EXPECT_EQ(mutant.constraints.window_start_ms % config.window_grid_ms, 0);
    EXPECT_EQ(mutant.constraints.window_end_ms % config.window_grid_ms, 0);
  }
}

TEST(Mutator, SameSeedSameMutationSequence) {
  core::ScenarioSpec seed;
  util::Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fuzz::mutate(a, seed).to_json(), fuzz::mutate(b, seed).to_json()) << i;
  }
}

// --- Corpus manager --------------------------------------------------------

fuzz::CorpusEntry entry_with(std::vector<core::CoverageKey> keys, sim::SimTimeMs mark) {
  fuzz::CorpusEntry entry;
  // A distinguishable spec per entry, so eviction is observable.
  entry.spec.constraints.window_start_ms = mark;
  entry.spec.constraints.window_end_ms = mark + 5000;
  entry.root = entry.spec;
  for (const core::CoverageKey& key : keys) entry.coverage[key] = 1;
  return entry;
}

TEST(Corpus, AdmitsOnlyNewCoverageAndEvictsDominated) {
  fuzz::Corpus corpus;
  const core::CoverageKey a{1, 2, 0}, b{2, 3, 0}, c{3, 4, 1};
  ASSERT_TRUE(corpus.consider(entry_with({a}, 5000)));
  EXPECT_EQ(corpus.entries()[0].new_keys, (std::vector<core::CoverageKey>{a}));

  // Same coverage signature: rejected (dedup), corpus untouched.
  EXPECT_FALSE(corpus.consider(entry_with({a}, 10000)));
  EXPECT_EQ(corpus.entries().size(), 1u);

  // Superset coverage: admitted, dominates and evicts the first entry.
  ASSERT_TRUE(corpus.consider(entry_with({a, b}, 15000)));
  ASSERT_EQ(corpus.entries().size(), 1u);
  EXPECT_EQ(corpus.entries()[0].spec.constraints.window_start_ms, 15000);
  EXPECT_EQ(corpus.entries()[0].new_keys, (std::vector<core::CoverageKey>{b}));
  EXPECT_EQ(corpus.evicted(), 1);

  // Disjoint coverage: admitted alongside.
  ASSERT_TRUE(corpus.consider(entry_with({c}, 20000)));
  EXPECT_EQ(corpus.entries().size(), 2u);
  EXPECT_EQ(corpus.coverage_union().size(), 3u);
}

TEST(Corpus, DumpsAsScenarioGridThatLoadsBack) {
  fuzz::Corpus corpus;
  ASSERT_TRUE(corpus.consider(entry_with({core::CoverageKey{1, 2, 0}}, 5000)));
  ASSERT_TRUE(corpus.consider(entry_with({core::CoverageKey{2, 3, 4}}, 25000)));
  const std::string json = corpus.to_scenario_grid_json();
  // Byte-stable: serializing the same corpus twice is identical.
  EXPECT_EQ(json, corpus.to_scenario_grid_json());
  const std::vector<core::ScenarioSpec> loaded = fuzz::Corpus::load_specs(json);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], corpus.entries()[0].spec);
  EXPECT_EQ(loaded[1], corpus.entries()[1].spec);
}

// --- Constraint enforcement ------------------------------------------------

TEST(Constraints, RoundTripsThroughJsonAndRejectsUnknownFaultType) {
  core::ScenarioSpec spec;
  spec.constraints.window_start_ms = 15000;
  spec.constraints.window_end_ms = 30000;
  spec.constraints.fault_types = {"GPS", "barometer"};
  const core::ScenarioSpec parsed = core::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(parsed, spec);

  core::ScenarioSpec bad = spec;
  bad.constraints.fault_types = {"gps"};  // names are sensors::to_string, case-exact
  EXPECT_THROW(bad.validate(), util::UnknownNameError);
  EXPECT_THROW(core::resolve_fault_type("sonar"), util::UnknownNameError);

  core::ScenarioSpec inverted = spec;
  inverted.constraints.window_end_ms = 10000;  // ends before it starts
  EXPECT_THROW(inverted.validate(), util::InvariantError);
}

TEST(Constraints, FaultTypeMaskCoversAllWhenEmpty) {
  EXPECT_EQ(core::fault_type_mask({}), (1u << sensors::kAllSensorTypes.size()) - 1);
  EXPECT_EQ(core::fault_type_mask({"GPS"}),
            1u << static_cast<unsigned>(sensors::SensorType::kGps));
}

TEST(Constraints, RandomInjectionSamplesInsideWindowFromAllowedTypes) {
  const sensors::SuiteConfig suite;
  const std::uint32_t gps_only = core::fault_type_mask({"GPS"});
  baselines::RandomInjection strategy(suite, 120000, 9, 30000, 60000, gps_only);
  core::BudgetClock budget(1000000);
  int plans = 0;
  while (auto plan = strategy.next(budget)) {
    for (const core::FaultEvent& event : plan->events) {
      EXPECT_GE(event.time_ms, 30000);
      EXPECT_LT(event.time_ms, 60000);
      EXPECT_EQ(event.sensor.type, sensors::SensorType::kGps);
    }
    if (++plans >= 200) break;
  }
  EXPECT_GT(plans, 0);
}

TEST(Constraints, SabreEmitsOnlyInsideWindowAndTypeMask) {
  const sensors::SuiteConfig suite;
  // Synthetic golden transitions straddling the window boundary.
  std::vector<core::ModeTransition> golden = {
      {0, 1, "preflight"}, {10000, 2, "takeoff"}, {40000, 3, "cruise"}, {90000, 4, "land"},
  };
  core::SabreConfig config;
  config.window_start_ms = 30000;
  config.window_end_ms = 60000;
  config.allowed_type_mask = core::fault_type_mask({"GPS", "compass"});
  core::SabreScheduler strategy(suite, golden, config);
  core::BudgetClock budget(10000000);
  int plans = 0;
  while (auto plan = strategy.next(budget)) {
    for (const core::FaultEvent& event : plan->events) {
      EXPECT_GE(event.time_ms, 30000) << plan->signature();
      EXPECT_LE(event.time_ms, 60000) << plan->signature();
      EXPECT_TRUE(event.sensor.type == sensors::SensorType::kGps ||
                  event.sensor.type == sensors::SensorType::kCompass)
          << plan->signature();
    }
    if (++plans >= 500) break;
  }
  EXPECT_GT(plans, 0);
}

// BFI honours the same FaultPlanConstraints contract as RandomInjection:
// both the DFS enumeration and the occasional exploratory draw stay inside
// [window_start, min(window_end, duration)) and touch only allowed sensor
// types. run_threshold 0 removes the model gate so plans actually flow.
TEST(Constraints, BfiEnumeratesOnlyInsideWindowFromAllowedTypes) {
  const baselines::NaiveBayesModel model(baselines::default_training_corpus());
  std::vector<core::ModeTransition> golden = {
      {0, 1, "preflight"}, {10000, 2, "takeoff"}, {40000, 3, "cruise"}, {90000, 4, "land"},
  };
  baselines::BfiConfig config;
  config.run_threshold = 0.0;  // every labeled candidate becomes a plan
  config.epsilon = 0.3;        // exercise the exploratory path too
  config.window_start_ms = 30000;
  config.window_end_ms = 60000;
  config.allowed_type_mask = core::fault_type_mask({"GPS"});
  baselines::BfiChecker bfi(core::SimulationHarness::iris_suite(), model,
                            baselines::ModeTimeline(golden), 9, config);
  core::BudgetClock budget(1000000);
  int plans = 0;
  while (auto plan = bfi.next(budget)) {
    for (const core::FaultEvent& event : plan->events) {
      EXPECT_GE(event.time_ms, 30000) << plan->signature();
      EXPECT_LT(event.time_ms, 60000) << plan->signature();
      EXPECT_EQ(event.sensor.type, sensors::SensorType::kGps) << plan->signature();
    }
    if (++plans >= 200) break;
  }
  EXPECT_GT(plans, 0);
}

// With the defaults (no window, all types) the constrained BFI reproduces
// the historical plan sequence bit for bit — the constraint machinery must
// be invisible when unused.
TEST(Constraints, BfiDefaultsReproduceUnconstrainedSequence) {
  const baselines::NaiveBayesModel model(baselines::default_training_corpus());
  std::vector<core::ModeTransition> golden = {{0, 1, "preflight"}, {3540, 2, "takeoff"}};
  baselines::BfiConfig permissive;
  permissive.run_threshold = 0.0;
  baselines::BfiConfig spelled_out = permissive;
  spelled_out.window_start_ms = 0;
  spelled_out.window_end_ms = 0;
  spelled_out.allowed_type_mask = 0xffffffffu;
  baselines::BfiChecker a(core::SimulationHarness::iris_suite(), model,
                          baselines::ModeTimeline(golden), 9, permissive);
  baselines::BfiChecker b(core::SimulationHarness::iris_suite(), model,
                          baselines::ModeTimeline(golden), 9, spelled_out);
  core::BudgetClock budget_a(500000), budget_b(500000);
  for (int i = 0; i < 40; ++i) {
    auto pa = a.next(budget_a);
    auto pb = b.next(budget_b);
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (!pa) break;
    EXPECT_EQ(pa->signature(), pb->signature()) << "plan " << i;
  }
}

// Stratified BFI inherits the constraints through its embedded SABRE
// scheduler: every candidate the model gates came from a constraint-
// respecting proposer, so nothing outside the window or mask can leak out.
TEST(Constraints, StratifiedBfiInheritsSabreConstraints) {
  const baselines::NaiveBayesModel model(baselines::default_training_corpus());
  std::vector<core::ModeTransition> golden = {
      {0, 1, "preflight"}, {10000, 2, "takeoff"}, {40000, 3, "cruise"}, {90000, 4, "land"},
  };
  core::SabreConfig sabre_config;
  sabre_config.window_start_ms = 30000;
  sabre_config.window_end_ms = 60000;
  sabre_config.allowed_type_mask = core::fault_type_mask({"GPS", "compass"});
  baselines::StratifiedBfi sbfi(core::SimulationHarness::iris_suite(), golden, model,
                                /*run_threshold=*/0.0, sabre_config);
  core::BudgetClock budget(10000000);
  int plans = 0;
  while (auto plan = sbfi.next(budget)) {
    for (const core::FaultEvent& event : plan->events) {
      EXPECT_GE(event.time_ms, 30000) << plan->signature();
      EXPECT_LE(event.time_ms, 60000) << plan->signature();
      EXPECT_TRUE(event.sensor.type == sensors::SensorType::kGps ||
                  event.sensor.type == sensors::SensorType::kCompass)
          << plan->signature();
    }
    if (++plans >= 500) break;
  }
  EXPECT_GT(plans, 0);
}

// --- The fuzz loop ---------------------------------------------------------

core::ScenarioGrid fuzz_seed_grid() {
  core::ScenarioGrid grid;
  grid.approaches = {"avis"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"box-manual"};
  grid.environments = {"calm"};
  // Large enough that SABRE gets past its t=0 wave and traverses mode
  // edges; small enough for a test (roughly a dozen experiments per cell).
  grid.budget_ms = 200000;
  return grid;
}

fuzz::FuzzOptions fuzz_test_options(int total_workers) {
  fuzz::FuzzOptions options;
  options.generations = 3;
  options.mutants_per_generation = 4;
  options.seed = 11;
  options.campaign.total_workers = total_workers;
  return options;
}

TEST(Fuzz, DeterministicCorpusDiscoversNovelCoverageAndReplays) {
  const core::ScenarioGrid grid = fuzz_seed_grid();
  const fuzz::FuzzResult first = fuzz::run_fuzz(grid, fuzz_test_options(2));
  const fuzz::FuzzResult second = fuzz::run_fuzz(grid, fuzz_test_options(4));

  // Same seed => byte-identical corpus document and equal coverage map, at
  // any worker count.
  EXPECT_EQ(first.corpus.to_scenario_grid_json(), second.corpus.to_scenario_grid_json());
  EXPECT_EQ(first.corpus.coverage_union(), second.corpus.coverage_union());
  ASSERT_EQ(first.curve.size(), second.curve.size());
  for (std::size_t i = 0; i < first.curve.size(); ++i) {
    EXPECT_EQ(first.curve[i].admitted, second.curve[i].admitted) << "generation " << i;
    EXPECT_EQ(first.curve[i].coverage_keys, second.curve[i].coverage_keys)
        << "generation " << i;
  }

  // The fixed seed discovers a scenario outside the seed grid reaching a
  // coverage key no seed cell reaches.
  const fuzz::CorpusEntry* novel = nullptr;
  for (const fuzz::CorpusEntry& entry : first.corpus.entries()) {
    if (entry.generation >= 1 && !entry.new_keys.empty()) novel = &entry;
  }
  ASSERT_NE(novel, nullptr) << "no mutant reached new coverage";
  for (const core::CoverageKey& key : novel->new_keys) {
    EXPECT_FALSE(first.baseline_coverage.contains(key))
        << core::coverage_key_string(key) << " already reached by the seed grid";
  }

  // Round trip: the dumped corpus loads back, and re-running the novel
  // entry's spec through the ordinary campaign path reproduces the in-loop
  // report field for field.
  const std::vector<core::ScenarioSpec> loaded =
      fuzz::Corpus::load_specs(first.corpus.to_scenario_grid_json());
  const core::ScenarioSpec* dumped = nullptr;
  for (const core::ScenarioSpec& spec : loaded) {
    if (spec == novel->spec) dumped = &spec;
  }
  ASSERT_NE(dumped, nullptr) << "novel spec missing from the dumped corpus";
  core::CampaignCellSpec cell;
  cell.scenario = *dumped;
  const core::CampaignCellResult replay = core::run_cell(cell, 2, {});
  avis::testing::expect_reports_equal(novel->report, replay.report);
}

TEST(Fuzz, ReportJsonCarriesCurveCorpusAndOptions) {
  const fuzz::FuzzOptions options = fuzz_test_options(2);
  const fuzz::FuzzResult result = fuzz::run_fuzz(fuzz_seed_grid(), options);
  const std::string json = fuzz::fuzz_report_json(result, options);
  const util::Json parsed = util::Json::parse(json);
  EXPECT_EQ(parsed.at("fuzz").at("generations").as_int64(), 3);
  EXPECT_EQ(parsed.at("fuzz").at("seed").as_int64(), 11);
  EXPECT_EQ(parsed.at("fuzz").at("coverage_curve").as_array().size(), 4u);  // gen 0..3
  EXPECT_EQ(parsed.at("corpus").as_array().size(), result.corpus.entries().size());
}

}  // namespace
