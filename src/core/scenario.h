// Declarative scenario specifications (docs/SCENARIOS.md).
//
// A ScenarioSpec is the JSON-serializable description of one campaign cell:
// every field is a string key into a registry (approach, personality,
// workload, environment preset, bug population) or a plain number (budget,
// seeds, fault-plan constraints). The spec — not C++ code — is the unit of
// experiment construction: `avis_campaign --scenario-file grid.json` runs a
// grid of them, `--dump-scenario` writes one out, and the campaign journal
// binds each cell by a hash of its JSON (docs/CRASH_SAFETY.md).
// from_json(to_json(spec)) == spec (tests/test_scenario.cc), and a campaign
// built from a dumped file is report-identical to the same grid built via
// CSV flags (tests/test_oracle.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/invariant_monitor.h"
#include "core/strategy.h"
#include "util/json.h"
#include "util/registry.h"

namespace avis::baselines {
class NaiveBayesModel;
}  // namespace avis::baselines

namespace avis::core {

// Constraints every injected fault plan must respect. They parameterize the
// search strategies at construction (SABRE's set enumeration, injection
// window and chain growth, Random's sampling range and type pool, BFI's set
// enumeration); the defaults reproduce the paper's configuration exactly.
// BFI proposes from its Bayes model's training timeline and ignores the
// window/type restrictions (documented in docs/FUZZING.md).
struct FaultPlanConstraints {
  int max_set_size = 2;     // largest failure set added at one timestamp
  int max_plan_events = 3;  // total concurrent failures per plan

  // Injection window: strategies only inject at timestamps t with
  // window_start_ms <= t (and t <= window_end_ms when window_end_ms > 0;
  // 0 = unbounded). The scenario fuzzer mutates these to steer coverage
  // into specific (mode-graph edge x window) buckets.
  sim::SimTimeMs window_start_ms = 0;
  sim::SimTimeMs window_end_ms = 0;

  // Sensor-type names ("GPS", "battery", ... — sensors::to_string) the
  // strategies may fail; empty = all types. Validated against the known
  // types (resolve_fault_type).
  std::vector<std::string> fault_types;

  bool operator==(const FaultPlanConstraints&) const = default;
};

// The sensor type a constraints fault-type name refers to; throws
// util::UnknownNameError (with the known-name listing) otherwise.
sensors::SensorType resolve_fault_type(std::string_view name);

// Bitmask over sensors::SensorType for a constraints type list (bit i =
// type i allowed); the empty list means every type.
std::uint32_t fault_type_mask(const std::vector<std::string>& fault_types);

struct ScenarioSpec {
  std::string approach = "avis";          // approach_registry()
  std::string personality = "ardupilot";  // personality_registry()
  std::string workload = "box-manual";    // workload::workload_registry()
  std::string environment = "calm";       // sim::environment_registry()
  std::string bugs = "current";           // bug_selector_registry()
  sim::SimTimeMs budget_ms = 7200 * 1000;  // the paper's per-workload budget
  std::uint64_t seed = 100;                // checker seed (profiling + experiments)
  std::uint64_t strategy_seed = 107;
  FaultPlanConstraints constraints;

  bool operator==(const ScenarioSpec&) const = default;

  // Every registry name resolves; throws util::UnknownNameError (carrying
  // the registered-name listing) or util::InvariantError otherwise.
  void validate() const;

  // Serialization: stable key order, `indent` spaces before every line so a
  // spec can be embedded in a grid or report document.
  std::string to_json(int indent = 0) const;
  static ScenarioSpec from_json(const util::Json& json);
  static ScenarioSpec from_json(std::string_view text);
};

// A cartesian scenario grid plus optional explicit extra scenarios — the
// shape of a `--scenario-file`. expand() yields the product in
// (approach, personality, workload, environment) order — the deterministic
// grid order the table benches and the campaign runner preserve — followed
// by `scenarios` verbatim.
struct ScenarioGrid {
  std::vector<std::string> approaches = {"avis", "stratified-bfi", "bfi", "random"};
  std::vector<std::string> personalities = {"ardupilot", "px4"};
  std::vector<std::string> workloads = {"box-manual", "fence-mission"};
  std::vector<std::string> environments = {"calm"};
  std::string bugs = "current";
  sim::SimTimeMs budget_ms = 7200 * 1000;
  std::uint64_t seed = 100;
  std::uint64_t strategy_seed = 0;  // 0 = derive as seed + 7
  FaultPlanConstraints constraints;
  std::vector<ScenarioSpec> scenarios;

  bool operator==(const ScenarioGrid&) const = default;

  std::vector<ScenarioSpec> expand() const;
  void validate() const;  // validates the expansion

  std::string to_json() const;
  static ScenarioGrid from_json(const util::Json& json);
  static ScenarioGrid from_json(std::string_view text);
};

// --- Registries -----------------------------------------------------------

// An approach builds the cell's injection strategy once the monitor model
// is calibrated. `label` is the display name reports use ("Avis"); the
// factory reads the scenario's strategy seed and fault-plan constraints.
struct ApproachInfo {
  std::string label;
  std::function<std::unique_ptr<InjectionStrategy>(const MonitorModel&, const ScenarioSpec&)>
      make;
};

util::Registry<ApproachInfo>& approach_registry();
util::Registry<fw::Personality>& personality_registry();

using BugSelector = std::function<fw::BugRegistry()>;
util::Registry<BugSelector>& bug_selector_registry();

// --- Resolution -----------------------------------------------------------

fw::Personality resolve_personality(std::string_view name);
fw::BugRegistry resolve_bugs(std::string_view name);

// Display label for an approach name; falls back to the name itself for
// non-registry approaches (compatibility cells with custom factories).
std::string approach_label(std::string_view name);

// ExperimentSpec prototype for a scenario: personality, workload factory,
// environment factory, and bug population resolved through the registries,
// seed = scenario.seed, empty plan. Feed it to Checker's prototype
// constructor. Throws util::UnknownNameError on any unregistered name.
ExperimentSpec scenario_prototype(const ScenarioSpec& spec);

// The scenario's strategy, built through the approach registry.
std::unique_ptr<InjectionStrategy> make_scenario_strategy(const ScenarioSpec& spec,
                                                          const MonitorModel& model);

// One process-wide Bayes model shared by every BFI-family cell. Immutable
// after construction (scoring is the only API), so concurrent campaign
// cells read it without synchronization; the magic static guarantees
// thread-safe initialization when the first two cells race to construct it.
const baselines::NaiveBayesModel& shared_bayes();

}  // namespace avis::core
