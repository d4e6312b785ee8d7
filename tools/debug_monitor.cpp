#include <cstdio>
#include "core/checker.h"

int main(int argc, char**) {
  using namespace avis;
  if (argc > 1) {
    fprintf(stderr, "usage: debug_monitor\n");
    return 2;
  }
  core::Checker checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kFenceMission,
                        fw::BugRegistry::current_code_base());
  const auto& model = checker.model();
  printf("tau=%.2f P=%.2f A=%.2f D=%d\n", model.tau(), model.max_position_spread(),
         model.max_accel_spread(), model.mode_graph().diameter());

  core::ExperimentSpec spec;
  spec.personality = fw::Personality::kArduPilotLike;
  spec.workload = workload::WorkloadId::kFenceMission;
  spec.seed = 1100;
  // fault: compass#1 at t=0
  spec.plan.add(0, {sensors::SensorType::kCompass, 1});
  spec.stop_on_violation = false;
  core::SimulationHarness harness;
  auto r = harness.run(spec, nullptr);  // run WITHOUT monitor, full trace
  printf("passed=%d transitions:", r.workload_passed);
  for (auto& t : r.transitions) printf(" %s@%.1f", t.mode_name.c_str(), t.time_ms / 1000.0);
  printf("\n");
  // Now compute distances per sample
  for (size_t k = 0; k < r.trace.size(); k += 5) {
    const auto& s = r.trace[k];
    double best = 1e9; double dists[3];
    for (size_t i = 0; i < model.profiling_run_count(); ++i) {
      double d = model.state_distance(s, model.profiling_state(i, s.time_ms));
      dists[i] = d;
      if (d < best) best = d;
    }
    if (best > model.tau() || s.time_ms % 5000 == 0) {
      const auto& g = model.profiling_state(0, s.time_ms);
      printf("t=%5.1fs best=%6.2f [%5.1f %5.1f %5.1f] test_mode=%-10s pos=(%5.1f,%5.1f,%5.1f) golden_mode=%-10s gpos=(%5.1f,%5.1f,%5.1f) acc=(%4.1f,%4.1f,%4.1f) gacc=(%4.1f,%4.1f,%4.1f)%s\n",
             s.time_ms / 1000.0, best, dists[0], dists[1], dists[2],
             fw::CompositeMode::from_id(s.mode_id).name().c_str(), s.position.x, s.position.y, -s.position.z,
             fw::CompositeMode::from_id(g.mode_id).name().c_str(), g.position.x, g.position.y, -g.position.z,
             s.acceleration.x, s.acceleration.y, s.acceleration.z,
             g.acceleration.x, g.acceleration.y, g.acceleration.z,
             best > model.tau() ? "  <-- VIOLATION" : "");
    }
  }
  return 0;
}
