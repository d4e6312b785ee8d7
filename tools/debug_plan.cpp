// Triage tool: run one fault plan against a checker-calibrated monitor with
// debug logging, printing per-sample diagnostics around the violation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include "core/checker.h"
#include "util/json.h"
#include "util/log.h"

using namespace avis;

static int usage() {
  fprintf(stderr, "usage: debug_plan <personality 0|1> <workload 0|1|2> <type:instance:ms>...\n");
  return 2;
}

int main(int argc, char** argv) {
  // The whole command line parses before anything runs; a bad argument
  // prints the usage line and exits 2.
  if (argc < 3) return usage();
  const auto pers = util::parse_integer<int>(argv[1]);
  const auto wl = util::parse_integer<int>(argv[2]);
  if (!pers || *pers < 0 || *pers > 1 || !wl || *wl < 0 || *wl > 2) return usage();
  const sensors::SuiteConfig suite = core::SimulationHarness::iris_suite();
  core::FaultPlan plan;
  for (int i = 3; i < argc; ++i) {
    int type = 0, inst = 0; long ms = 0; char extra = 0;
    if (sscanf(argv[i], "%d:%d:%ld%c", &type, &inst, &ms, &extra) != 3) return usage();
    if (type < 0 || type >= static_cast<int>(sensors::kAllSensorTypes.size())) return usage();
    const auto sensor_type = static_cast<sensors::SensorType>(type);
    if (inst < 0 || inst >= suite.count(sensor_type) || ms < 0) return usage();
    plan.add(ms, {sensor_type, static_cast<uint8_t>(inst)});
  }
  util::Logger::instance().set_level(util::LogLevel::kDebug);
  fw::BugRegistry all_bugs = fw::BugRegistry::current_code_base();
  for (fw::BugId id : fw::kAllBugs) all_bugs.enable(id);
  core::Checker checker(static_cast<fw::Personality>(*pers),
                        static_cast<workload::WorkloadId>(*wl), all_bugs);
  const auto& model = checker.model();
  printf("tau=%.2f P=%.2f A=%.2f D=%d dur=%.1fs\n", model.tau(), model.max_position_spread(),
         model.max_accel_spread(), model.mode_graph().diameter(),
         model.profiling_duration_ms() / 1000.0);

  core::ExperimentSpec spec;
  spec.personality = static_cast<fw::Personality>(*pers);
  spec.workload = static_cast<workload::WorkloadId>(*wl);
  spec.bugs = all_bugs;
  spec.seed = 100;
  spec.stop_on_violation = false;
  spec.plan = plan;
  printf("plan: %s\n", spec.plan.to_string().c_str());
  core::SimulationHarness harness;
  auto r = harness.run(spec, &model);
  printf("passed=%d violation=%s transitions:", r.workload_passed,
         r.violation ? core::to_string(r.violation->type) : "none");
  for (auto& t : r.transitions) printf(" %s@%.1f", t.mode_name.c_str(), t.time_ms / 1000.0);
  printf("\n");
  if (r.violation) {
    printf("VIOLATION t=%.1fs mode=%s details=%s\n", r.violation->time_ms / 1000.0,
           fw::CompositeMode::from_id(r.violation->mode_id).name().c_str(),
           r.violation->details.c_str());
  }
  // per-sample distances near violation
  long vt = r.violation ? r.violation->time_ms : 0;
  for (auto& s : r.trace) {
    if (r.violation && std::abs(s.time_ms - vt) <= 2000) {
      double best = 1e9;
      for (size_t i = 0; i < model.profiling_run_count(); ++i)
        best = std::min(best, model.state_distance(s, model.profiling_state(i, s.time_ms)));
      const auto& g = model.profiling_state(0, s.time_ms);
      printf("  t=%5.1fs d=%6.2f mode=%-12s alt=%5.1f armed=%d ground=%d | golden mode=%-12s alt=%5.1f\n",
             s.time_ms / 1000.0, best, fw::CompositeMode::from_id(s.mode_id).name().c_str(),
             -s.position.z, s.armed, s.on_ground,
             fw::CompositeMode::from_id(g.mode_id).name().c_str(), -g.position.z);
    }
  }
  return 0;
}
