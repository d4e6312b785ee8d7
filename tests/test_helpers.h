// Shared fixtures and helpers for the Avis test suite.
#pragma once

#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/checker.h"
#include "core/harness.h"
#include "fw/firmware.h"

namespace avis::testing {

// Runs one experiment with the given plan; convenience for integration and
// bug-window tests.
inline core::ExperimentResult run_plan(fw::Personality personality,
                                       workload::WorkloadId workload,
                                       const core::FaultPlan& plan,
                                       const fw::BugRegistry& bugs,
                                       const core::MonitorModel* model = nullptr,
                                       std::uint64_t seed = 100) {
  core::SimulationHarness harness;
  core::ExperimentSpec spec;
  spec.personality = personality;
  spec.workload = workload;
  spec.bugs = bugs;
  spec.plan = plan;
  spec.seed = seed;
  return harness.run(spec, model);
}

// A calibrated checker per (personality, workload), cached across tests in
// one binary run: profiling costs ~0.5 s per configuration.
inline core::Checker& cached_checker(fw::Personality personality,
                                     workload::WorkloadId workload) {
  static std::map<std::pair<int, int>, std::unique_ptr<core::Checker>> cache;
  const auto key = std::make_pair(static_cast<int>(personality), static_cast<int>(workload));
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<core::Checker>(
                                personality, workload, fw::BugRegistry::current_code_base()))
             .first;
  }
  return *it->second;
}

// Field-by-field equality of two checker reports; used by the parallel-
// checker and campaign parity tests, whose contract is that reports are
// bit-identical regardless of worker count.
inline void expect_reports_equal(const core::CheckerReport& serial,
                                 const core::CheckerReport& parallel) {
  EXPECT_EQ(serial.strategy_name, parallel.strategy_name);
  EXPECT_EQ(serial.experiments, parallel.experiments);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.budget_used_ms, parallel.budget_used_ms);
  EXPECT_EQ(serial.bug_first_found, parallel.bug_first_found);
  // Checkpoint accounting is derived from the applied-result sequence, so
  // it is part of the determinism contract too.
  EXPECT_EQ(serial.checkpoint_hits, parallel.checkpoint_hits);
  EXPECT_EQ(serial.checkpoint_misses, parallel.checkpoint_misses);
  EXPECT_EQ(serial.checkpoint_hits_by_level, parallel.checkpoint_hits_by_level);
  EXPECT_EQ(serial.checkpoint_evicted, parallel.checkpoint_evicted);
  EXPECT_EQ(serial.checkpoint_tree_evicted, parallel.checkpoint_tree_evicted);
  EXPECT_EQ(serial.checkpoint_skipped_ms, parallel.checkpoint_skipped_ms);
  EXPECT_EQ(serial.stalled_runs, parallel.stalled_runs);
  // Edge coverage is derived from transitions, which are bit-identical
  // across worker counts and checkpoint modes — so unlike the checkpoint
  // counters above it has no masking escape hatch.
  ASSERT_EQ(serial.edge_coverage.size(), parallel.edge_coverage.size());
  for (auto a = serial.edge_coverage.begin(), b = parallel.edge_coverage.begin();
       a != serial.edge_coverage.end(); ++a, ++b) {
    EXPECT_EQ(core::coverage_key_string(a->first), core::coverage_key_string(b->first));
    EXPECT_EQ(a->second, b->second) << core::coverage_key_string(a->first);
  }
  ASSERT_EQ(serial.unsafe.size(), parallel.unsafe.size());
  for (std::size_t i = 0; i < serial.unsafe.size(); ++i) {
    const core::UnsafeRecord& a = serial.unsafe[i];
    const core::UnsafeRecord& b = parallel.unsafe[i];
    EXPECT_EQ(a.plan.signature(), b.plan.signature()) << "record " << i;
    EXPECT_EQ(a.violation.type, b.violation.type) << "record " << i;
    EXPECT_EQ(a.violation.time_ms, b.violation.time_ms) << "record " << i;
    EXPECT_EQ(a.violation.mode_id, b.violation.mode_id) << "record " << i;
    EXPECT_EQ(a.fired_bugs, b.fired_bugs) << "record " << i;
    EXPECT_EQ(a.seed, b.seed) << "record " << i;
    EXPECT_EQ(a.experiment_index, b.experiment_index) << "record " << i;
    ASSERT_EQ(a.transitions.size(), b.transitions.size()) << "record " << i;
    for (std::size_t j = 0; j < a.transitions.size(); ++j) {
      EXPECT_EQ(a.transitions[j].time_ms, b.transitions[j].time_ms)
          << "record " << i << " transition " << j;
      EXPECT_EQ(a.transitions[j].mode_id, b.transitions[j].mode_id)
          << "record " << i << " transition " << j;
      EXPECT_EQ(a.transitions[j].mode_name, b.transitions[j].mode_name)
          << "record " << i << " transition " << j;
    }
  }
  EXPECT_EQ(serial.unsafe_by_bucket(), parallel.unsafe_by_bucket());
}

// Campaign-level report identity: cell-by-cell report equality in grid
// order, plus the aggregated checkpoint totals — a campaign resumed from its
// journal (docs/CRASH_SAFETY.md) must reproduce the uninterrupted sums
// exactly. Wall-clock fields (wall_seconds) are excluded by design: they
// describe how the campaign ran, not what it found.
inline void expect_campaign_results_equal(const core::CampaignResult& expected,
                                          const core::CampaignResult& actual) {
  ASSERT_EQ(expected.cells.size(), actual.cells.size());
  for (std::size_t i = 0; i < expected.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(expected.cells[i].spec.scenario.approach, actual.cells[i].spec.scenario.approach);
    EXPECT_EQ(expected.cells[i].spec.scenario.workload, actual.cells[i].spec.scenario.workload);
    EXPECT_EQ(expected.cells[i].spec.scenario.environment,
              actual.cells[i].spec.scenario.environment);
    expect_reports_equal(expected.cells[i].report, actual.cells[i].report);
  }
  EXPECT_EQ(expected.total_experiments(), actual.total_experiments());
  EXPECT_EQ(expected.total_checkpoint_hits(), actual.total_checkpoint_hits());
  EXPECT_EQ(expected.total_checkpoint_misses(), actual.total_checkpoint_misses());
  EXPECT_EQ(expected.total_checkpoint_evicted(), actual.total_checkpoint_evicted());
  EXPECT_EQ(expected.total_checkpoint_tree_evicted(), actual.total_checkpoint_tree_evicted());
  EXPECT_EQ(expected.total_checkpoint_skipped_ms(), actual.total_checkpoint_skipped_ms());
  EXPECT_EQ(expected.total_stalled_runs(), actual.total_stalled_runs());
  EXPECT_EQ(expected.coverage_union(), actual.coverage_union());
}

// Time of the first transition whose mode name matches, from the golden run.
inline sim::SimTimeMs transition_time(const core::MonitorModel& model,
                                      const std::string& mode_name) {
  for (const auto& t : model.golden_transitions()) {
    if (t.mode_name == mode_name) return t.time_ms;
  }
  ADD_FAILURE() << "no transition named " << mode_name << " in golden run";
  return -1;
}

}  // namespace avis::testing
