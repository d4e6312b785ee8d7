#include "core/scenario.h"

#include <sstream>

#include "baselines/bfi.h"
#include "baselines/random_injection.h"
#include "baselines/stratified_bfi.h"
#include "core/harness.h"
#include "core/sabre.h"
#include "sim/environment_presets.h"
#include "util/checked.h"
#include "workload/registry.h"

namespace avis::core {

namespace {

// Keys accepted by the scenario / grid parsers. Unknown keys are rejected
// loudly — a typo'd "envrionment" silently falling back to "calm" would
// invalidate a whole campaign.
constexpr const char* kSpecKeys[] = {"approach",  "personality",   "workload",
                                     "environment", "bugs",        "budget_ms",
                                     "seed",        "strategy_seed", "constraints"};
constexpr const char* kGridKeys[] = {"approaches",  "personalities", "workloads",
                                     "environments", "bugs",         "budget_ms",
                                     "seed",         "strategy_seed", "constraints",
                                     "scenarios"};
constexpr const char* kConstraintKeys[] = {"max_set_size", "max_plan_events",
                                           "window_start_ms", "window_end_ms", "fault_types"};

void p_append_string_array(std::ostream& os, const std::vector<std::string>& values);

std::vector<std::string> p_fault_type_names() {
  std::vector<std::string> names;
  names.reserve(sensors::kAllSensorTypes.size());
  for (sensors::SensorType type : sensors::kAllSensorTypes) {
    names.push_back(sensors::to_string(type));
  }
  return names;
}

void p_validate_constraints(const FaultPlanConstraints& constraints) {
  util::expects(constraints.max_set_size >= 1, "constraints.max_set_size must be >= 1");
  util::expects(constraints.max_plan_events >= 1, "constraints.max_plan_events must be >= 1");
  util::expects(constraints.window_start_ms >= 0,
                "constraints.window_start_ms must be non-negative");
  util::expects(constraints.window_end_ms == 0 ||
                    constraints.window_end_ms > constraints.window_start_ms,
                "constraints.window_end_ms must be 0 (unbounded) or after window_start_ms");
  for (const std::string& name : constraints.fault_types) resolve_fault_type(name);
}

template <std::size_t N>
void p_reject_unknown_keys(const util::Json& object, const char* const (&known)[N],
                           const char* what) {
  for (const auto& [key, value] : object.as_object()) {
    bool recognized = false;
    for (const char* candidate : known) {
      if (key == candidate) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      std::vector<std::string> names(std::begin(known), std::end(known));
      throw util::JsonError(std::string(what) + ": " +
                            util::unknown_name_message("key", key, names));
    }
  }
}

FaultPlanConstraints p_constraints_from_json(const util::Json* json) {
  FaultPlanConstraints constraints;
  if (json == nullptr) return constraints;
  p_reject_unknown_keys(*json, kConstraintKeys, "constraints");
  constraints.max_set_size =
      static_cast<int>(json->get_int64("max_set_size", constraints.max_set_size));
  constraints.max_plan_events =
      static_cast<int>(json->get_int64("max_plan_events", constraints.max_plan_events));
  constraints.window_start_ms = json->get_int64("window_start_ms", constraints.window_start_ms);
  constraints.window_end_ms = json->get_int64("window_end_ms", constraints.window_end_ms);
  constraints.fault_types = json->get_string_array("fault_types", constraints.fault_types);
  p_validate_constraints(constraints);
  return constraints;
}

void p_append_constraints_json(std::ostream& os, const FaultPlanConstraints& constraints,
                               const std::string& pad) {
  os << pad << "\"constraints\": {\"max_set_size\": " << constraints.max_set_size
     << ", \"max_plan_events\": " << constraints.max_plan_events
     << ", \"window_start_ms\": " << constraints.window_start_ms
     << ", \"window_end_ms\": " << constraints.window_end_ms;
  // Emitted only when restricting: the empty list means "all types", and
  // omitting it keeps the default round trip byte-stable.
  if (!constraints.fault_types.empty()) {
    os << ", \"fault_types\": ";
    p_append_string_array(os, constraints.fault_types);
  }
  os << "}";
}

void p_append_string_array(std::ostream& os, const std::vector<std::string>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << util::json_escape(values[i]) << "\"";
  }
  os << "]";
}

SabreConfig p_sabre_config(const FaultPlanConstraints& constraints) {
  SabreConfig config;
  config.max_set_size = constraints.max_set_size;
  config.max_plan_events = constraints.max_plan_events;
  config.window_start_ms = constraints.window_start_ms;
  config.window_end_ms = constraints.window_end_ms;
  config.allowed_type_mask = fault_type_mask(constraints.fault_types);
  return config;
}

}  // namespace

sensors::SensorType resolve_fault_type(std::string_view name) {
  for (sensors::SensorType type : sensors::kAllSensorTypes) {
    if (name == sensors::to_string(type)) return type;
  }
  throw util::UnknownNameError(
      util::unknown_name_message("fault type", std::string(name), p_fault_type_names()));
}

std::uint32_t fault_type_mask(const std::vector<std::string>& fault_types) {
  if (fault_types.empty()) {
    return (std::uint32_t{1} << sensors::kAllSensorTypes.size()) - 1;
  }
  std::uint32_t mask = 0;
  for (const std::string& name : fault_types) {
    mask |= std::uint32_t{1} << static_cast<unsigned>(resolve_fault_type(name));
  }
  return mask;
}

// --- Registries -----------------------------------------------------------

util::Registry<ApproachInfo>& approach_registry() {
  static util::Registry<ApproachInfo> registry = [] {
    util::Registry<ApproachInfo> r("approach", "approaches");
    r.add("avis", "SABRE: mode-transition-targeted injection (the paper's Avis)",
          ApproachInfo{"Avis", [](const MonitorModel& model, const ScenarioSpec& spec) {
                         return std::unique_ptr<InjectionStrategy>(
                             std::make_unique<SabreScheduler>(
                                 SimulationHarness::iris_suite(), model.golden_transitions(),
                                 p_sabre_config(spec.constraints)));
                       }});
    r.add("stratified-bfi",
          "SABRE's stratified schedule gated by the BFI Bayes model (paper Table I)",
          ApproachInfo{"Strat. BFI", [](const MonitorModel& model, const ScenarioSpec& spec) {
                         return std::unique_ptr<InjectionStrategy>(
                             std::make_unique<baselines::StratifiedBfi>(
                                 SimulationHarness::iris_suite(), model.golden_transitions(),
                                 shared_bayes(), /*run_threshold=*/0.45,
                                 p_sabre_config(spec.constraints)));
                       }});
    r.add("bfi", "Bayes-guided fault injection; labeling charges the budget (paper §VI)",
          ApproachInfo{"BFI", [](const MonitorModel& model, const ScenarioSpec& spec) {
                         baselines::BfiConfig config;
                         config.max_set_size = spec.constraints.max_set_size;
                         config.window_start_ms = spec.constraints.window_start_ms;
                         config.window_end_ms = spec.constraints.window_end_ms;
                         config.allowed_type_mask =
                             fault_type_mask(spec.constraints.fault_types);
                         baselines::ModeTimeline timeline(model.golden_transitions());
                         return std::unique_ptr<InjectionStrategy>(
                             std::make_unique<baselines::BfiChecker>(
                                 SimulationHarness::iris_suite(), shared_bayes(),
                                 std::move(timeline), spec.strategy_seed, config));
                       }});
    r.add("random", "uniformly random injection sites and failure sets (paper §VI)",
          ApproachInfo{"Random", [](const MonitorModel& model, const ScenarioSpec& spec) {
                         return std::unique_ptr<InjectionStrategy>(
                             std::make_unique<baselines::RandomInjection>(
                                 SimulationHarness::iris_suite(),
                                 model.profiling_duration_ms(), spec.strategy_seed,
                                 spec.constraints.window_start_ms,
                                 spec.constraints.window_end_ms,
                                 fault_type_mask(spec.constraints.fault_types)));
                       }});
    return r;
  }();
  return registry;
}

util::Registry<fw::Personality>& personality_registry() {
  static util::Registry<fw::Personality> registry = [] {
    util::Registry<fw::Personality> r("personality", "personalities");
    r.add("ardupilot", "ArduPilot-like firmware personality", fw::Personality::kArduPilotLike);
    r.add("px4", "PX4-like firmware personality", fw::Personality::kPx4Like);
    return r;
  }();
  return registry;
}

util::Registry<BugSelector>& bug_selector_registry() {
  static util::Registry<BugSelector> registry = [] {
    util::Registry<BugSelector> r("bug population");
    r.add("current", "the Table II 'current code base' population",
          [] { return fw::BugRegistry::current_code_base(); });
    r.add("patched", "no seeded bugs; golden firmware",
          [] { return fw::BugRegistry::patched(); });
    r.add("all", "every seeded bug, including the Table V known population", [] {
      fw::BugRegistry registry;
      for (fw::BugId id : fw::kAllBugs) registry.enable(id);
      return registry;
    });
    return r;
  }();
  return registry;
}

// --- Resolution -----------------------------------------------------------

fw::Personality resolve_personality(std::string_view name) {
  return personality_registry().at(name).factory;
}

fw::BugRegistry resolve_bugs(std::string_view name) {
  return bug_selector_registry().at(name).factory();
}

std::string approach_label(std::string_view name) {
  const auto* entry = approach_registry().find(name);
  return entry != nullptr ? entry->factory.label : std::string(name);
}

ExperimentSpec scenario_prototype(const ScenarioSpec& spec) {
  ExperimentSpec prototype;
  prototype.personality = resolve_personality(spec.personality);
  // Capture the registered factory, not the name: the prototype is copied
  // once per experiment, and these factories capture nothing, so the copy
  // stays allocation-free.
  prototype.workload_factory = workload::workload_registry().at(spec.workload).factory;
  if (spec.environment != "calm") {
    prototype.environment_factory = sim::environment_registry().at(spec.environment).factory;
  } else {
    sim::environment_registry().at(spec.environment);  // still validate the name
  }
  prototype.bugs = resolve_bugs(spec.bugs);
  prototype.seed = spec.seed;
  return prototype;
}

std::unique_ptr<InjectionStrategy> make_scenario_strategy(const ScenarioSpec& spec,
                                                          const MonitorModel& model) {
  return approach_registry().at(spec.approach).factory.make(model, spec);
}

const baselines::NaiveBayesModel& shared_bayes() {
  static const baselines::NaiveBayesModel model(baselines::default_training_corpus());
  return model;
}

// --- ScenarioSpec ---------------------------------------------------------

void ScenarioSpec::validate() const {
  approach_registry().at(approach);
  personality_registry().at(personality);
  workload::workload_registry().at(workload);
  sim::environment_registry().at(environment);
  bug_selector_registry().at(bugs);
  util::expects(budget_ms > 0, "scenario budget_ms must be positive");
  p_validate_constraints(constraints);
}

std::string ScenarioSpec::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"approach\": \"" << util::json_escape(approach) << "\",\n";
  os << pad << "  \"personality\": \"" << util::json_escape(personality) << "\",\n";
  os << pad << "  \"workload\": \"" << util::json_escape(workload) << "\",\n";
  os << pad << "  \"environment\": \"" << util::json_escape(environment) << "\",\n";
  os << pad << "  \"bugs\": \"" << util::json_escape(bugs) << "\",\n";
  os << pad << "  \"budget_ms\": " << budget_ms << ",\n";
  os << pad << "  \"seed\": " << seed << ",\n";
  os << pad << "  \"strategy_seed\": " << strategy_seed << ",\n";
  p_append_constraints_json(os, constraints, pad + "  ");
  os << "\n" << pad << "}";
  return os.str();
}

ScenarioSpec ScenarioSpec::from_json(const util::Json& json) {
  p_reject_unknown_keys(json, kSpecKeys, "scenario");
  ScenarioSpec spec;
  spec.approach = json.get_string("approach", spec.approach);
  spec.personality = json.get_string("personality", spec.personality);
  spec.workload = json.get_string("workload", spec.workload);
  spec.environment = json.get_string("environment", spec.environment);
  spec.bugs = json.get_string("bugs", spec.bugs);
  spec.budget_ms = json.get_int64("budget_ms", spec.budget_ms);
  spec.seed = json.get_uint64("seed", spec.seed);
  spec.strategy_seed = json.get_uint64("strategy_seed", spec.seed + 7);
  spec.constraints = p_constraints_from_json(json.find("constraints"));
  return spec;
}

ScenarioSpec ScenarioSpec::from_json(std::string_view text) {
  return from_json(util::Json::parse(text));
}

// --- ScenarioGrid ---------------------------------------------------------

std::vector<ScenarioSpec> ScenarioGrid::expand() const {
  std::vector<ScenarioSpec> specs;
  specs.reserve(approaches.size() * personalities.size() * workloads.size() *
                    environments.size() +
                scenarios.size());
  for (const std::string& approach : approaches) {
    for (const std::string& personality : personalities) {
      for (const std::string& workload : workloads) {
        for (const std::string& environment : environments) {
          ScenarioSpec spec;
          spec.approach = approach;
          spec.personality = personality;
          spec.workload = workload;
          spec.environment = environment;
          spec.bugs = bugs;
          spec.budget_ms = budget_ms;
          spec.seed = seed;
          spec.strategy_seed = strategy_seed != 0 ? strategy_seed : seed + 7;
          spec.constraints = constraints;
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  specs.insert(specs.end(), scenarios.begin(), scenarios.end());
  return specs;
}

void ScenarioGrid::validate() const {
  const std::vector<ScenarioSpec> specs = expand();
  util::expects(!specs.empty(), "scenario grid expands to an empty campaign");
  for (const ScenarioSpec& spec : specs) spec.validate();
}

std::string ScenarioGrid::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"approaches\": ";
  p_append_string_array(os, approaches);
  os << ",\n  \"personalities\": ";
  p_append_string_array(os, personalities);
  os << ",\n  \"workloads\": ";
  p_append_string_array(os, workloads);
  os << ",\n  \"environments\": ";
  p_append_string_array(os, environments);
  os << ",\n  \"bugs\": \"" << util::json_escape(bugs) << "\",\n";
  os << "  \"budget_ms\": " << budget_ms << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"strategy_seed\": " << strategy_seed << ",\n";
  p_append_constraints_json(os, constraints, "  ");
  if (!scenarios.empty()) {
    os << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      os << scenarios[i].to_json(4);
      if (i + 1 < scenarios.size()) os << ",";
      os << "\n";
    }
    os << "  ]";
  }
  os << "\n}\n";
  return os.str();
}

ScenarioGrid ScenarioGrid::from_json(const util::Json& json) {
  p_reject_unknown_keys(json, kGridKeys, "scenario grid");
  ScenarioGrid grid;
  grid.approaches = json.get_string_array("approaches", grid.approaches);
  grid.personalities = json.get_string_array("personalities", grid.personalities);
  grid.workloads = json.get_string_array("workloads", grid.workloads);
  grid.environments = json.get_string_array("environments", grid.environments);
  grid.bugs = json.get_string("bugs", grid.bugs);
  grid.budget_ms = json.get_int64("budget_ms", grid.budget_ms);
  grid.seed = json.get_uint64("seed", grid.seed);
  grid.strategy_seed = json.get_uint64("strategy_seed", grid.strategy_seed);
  grid.constraints = p_constraints_from_json(json.find("constraints"));
  if (const util::Json* scenarios = json.find("scenarios")) {
    for (const util::Json& element : scenarios->as_array()) {
      grid.scenarios.push_back(ScenarioSpec::from_json(element));
    }
  }
  return grid;
}

ScenarioGrid ScenarioGrid::from_json(std::string_view text) {
  return from_json(util::Json::parse(text));
}

}  // namespace avis::core
