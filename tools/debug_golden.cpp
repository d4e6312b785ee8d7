#include <cstdio>
#include "core/harness.h"
#include "util/json.h"

using namespace avis;

static int usage() {
  fprintf(stderr, "usage: debug_golden [workload 0|1|2] [personality 0|1]\n");
  return 2;
}

int main(int argc, char** argv) {
  if (argc > 3) return usage();
  const auto wl = argc > 1 ? util::parse_integer<int>(argv[1]) : 2;  // default fence
  const auto pers = argc > 2 ? util::parse_integer<int>(argv[2]) : 0;
  if (!wl || *wl < 0 || *wl > 2 || !pers || *pers < 0 || *pers > 1) return usage();
  core::SimulationHarness harness;
  harness.set_step_hook([](sim::SimTimeMs t, const sim::VehicleState& s, const fw::Firmware& f) {
    if (t % 1000 == 0) {
      const auto& est = f.estimate();
      printf("t=%5.1fs mode=%-12s armed=%d alt=%6.2f est_alt=%6.2f pos=(%6.2f,%6.2f) est=(%6.2f,%6.2f) vz=%5.2f tilt=%5.3f crashed=%d\n",
             t / 1000.0, f.composite_mode().name().c_str(), f.armed(), s.altitude(),
             est.altitude(), s.position.x, s.position.y, est.position.x, est.position.y,
             -s.velocity.z, s.attitude.tilt(), s.crashed);
    }
  });
  core::ExperimentSpec spec;
  spec.personality = static_cast<fw::Personality>(*pers);
  spec.workload = static_cast<workload::WorkloadId>(*wl);
  spec.seed = 1;
  spec.max_duration_ms = 120000;
  auto r = harness.run(spec, nullptr);
  printf("passed=%d duration=%.1fs transitions:", r.workload_passed, r.duration_ms / 1000.0);
  for (auto& t : r.transitions) printf(" %s@%.1f", t.mode_name.c_str(), t.time_ms / 1000.0);
  printf("\ncrash=%s\n", sim::to_string(r.crash_cause));
  return 0;
}
