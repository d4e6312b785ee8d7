// Step replay: one experiment re-run cold through the benchmark's own copy
// of the harness's 1 kHz loop (core/harness.cc, SimulationHarness::p_loop),
// built only from public layer calls, with each call timed. The result is
// checked against SimulationHarness::run of the same spec; a mismatch means
// the copy no longer describes the program and its timings are void.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.h"
#include "core/invariant_monitor.h"

namespace avis::campaignbench {

// Per-layer totals over one replayed experiment (nanoseconds and counts).
struct LayerTotals {
  std::int64_t steps = 0;         // 1 ms loop iterations
  std::int64_t loop_ns = 0;       // main loop wall, shadow and probe work excluded
  std::int64_t sim_ns = 0;        // Simulator::step
  std::int64_t fw_ns = 0;         // Firmware::step
  std::int64_t fw_steps = 0;      // steps the firmware was alive for
  std::int64_t estimator_ns = 0;  // shadow StateEstimator::update, sensor reads included
  std::int64_t estimator_steps = 0;
  std::int64_t hinj_reads = 0;    // sensor reads that crossed hinj (counting director)
  std::int64_t probe_reads = 0;   // SensorBus reads timed on the probe bus
  std::int64_t probe_ns = 0;
  std::int64_t ticks = 0;         // 20 ms workload ticks
  std::int64_t tick_ns = 0;       // GcsContext::pump + Workload::step
  std::int64_t samples = 0;       // 100 ms monitor samples
  std::int64_t sample_ns = 0;     // MonitorSession::on_sample
  std::int64_t harness_ns = 0;    // SimulationHarness::run of the same spec, untraced
  std::int64_t harness_steps = 0;

  void add(const LayerTotals& other);
};

struct ReplayOutcome {
  LayerTotals totals;
  bool parity = false;
  std::string mismatch;  // first differing field when parity is false
};

ReplayOutcome replay_experiment(const core::ExperimentSpec& spec, const core::MonitorModel& model);

}  // namespace avis::campaignbench
