// The checker loop: drives one search strategy against one (firmware
// personality, workload) pair under a budget, collecting every unsafe
// condition found. This is the outer loop all of Tables II-V run through.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "core/coverage.h"
#include "core/harness.h"
#include "core/invariant_monitor.h"
#include "core/strategy.h"
#include "util/thread_pool.h"

namespace avis::core {

struct UnsafeRecord {
  FaultPlan plan;
  Violation violation;
  std::vector<fw::BugId> fired_bugs;
  std::vector<ModeTransition> transitions;
  std::uint64_t seed = 0;
  int experiment_index = 0;  // 1-based simulation count when found
};

struct CheckerReport {
  std::string strategy_name;
  int experiments = 0;
  int labels = 0;
  sim::SimTimeMs budget_used_ms = 0;
  std::vector<UnsafeRecord> unsafe;
  // Simulation count at which each seeded bug first manifested.
  std::map<fw::BugId, int> bug_first_found;

  // Mode-graph edge coverage over every applied experiment, keyed by
  // (edge, injection-window bucket) — see core/coverage.h. Derived from the
  // applied-result sequence like bug_first_found, and from transitions that
  // are bit-identical across worker counts, calibration grouping and
  // checkpoint configs, so it is part of report identity in every
  // comparison — unlike the checkpoint_* counters below, which are masked
  // when two checkpoint configs are compared.
  CoverageMap edge_coverage;

  // Checkpointed prefix forking observability (docs/PERFORMANCE.md): how
  // many experiments restored a recorded prefix snapshot (hit) vs simulated
  // from scratch despite an available store (miss — the plan injects before
  // the first snapshot; with checkpointing disabled both counters stay 0),
  // how many snapshots — root and tree alike — the store evicted to fit
  // its byte budget, and the total simulated milliseconds the restores
  // skipped.
  // Wall-clock accounting only: the reported experiments, budget charges
  // and unsafe records are bit-identical with checkpointing on or off.
  int checkpoint_hits = 0;
  int checkpoint_misses = 0;
  int checkpoint_evicted = 0;
  sim::SimTimeMs checkpoint_skipped_ms = 0;
  // Per-level restore counters (checkpoint trees): index 0 counts restores
  // from the fault-free root, index d >= 1 restores from a tree snapshot
  // with d injections already activated. Sums to checkpoint_hits. Sized to
  // the deepest level hit. Every checkpoint counter is derived from the
  // applied-result sequence under one checkpoint config, so it is equal at
  // every worker count and with or without calibration grouping
  // (tests/test_oracle.cc compares it unmasked); report identity masks
  // checkpoint_* only when two checkpoint configs are compared.
  std::vector<int> checkpoint_hits_by_level;
  // Experiments that ran to max_duration without a violation (the
  // workload never finished and nothing tripped the monitor) — the
  // ROADMAP's stalled-run observability item. Deterministic across
  // checkpoint modes: duration_ms is a logical quantity.
  int stalled_runs = 0;

  double checkpoint_hit_rate() const {
    const int total = checkpoint_hits + checkpoint_misses;
    return total > 0 ? static_cast<double>(checkpoint_hits) / total : 0.0;
  }

  int unsafe_count() const { return static_cast<int>(unsafe.size()); }

  // Table IV groups unsafe scenarios by the operating mode at the *newest
  // injection* (the site the search chose), not the mode the violation
  // later manifested in — a landing-phase crash caused by a waypoint-window
  // fault counts toward Waypoint.
  std::array<int, 4> unsafe_by_bucket() const {
    std::array<int, 4> buckets{};
    for (const auto& record : unsafe) {
      sim::SimTimeMs newest = 0;
      for (const auto& e : record.plan.events) newest = std::max(newest, e.time_ms);
      std::uint16_t mode_id = 0;
      for (const auto& t : record.transitions) {
        if (t.time_ms > newest) break;
        mode_id = t.mode_id;
      }
      const fw::ModeBucket bucket = fw::bucket_of(fw::CompositeMode::from_id(mode_id).mode);
      buckets[static_cast<std::size_t>(bucket)] += 1;
    }
    return buckets;
  }

  bool found_bug(fw::BugId id) const { return bug_first_found.contains(id); }
};

class Checker {
 public:
  // The prototype carries the full experiment identity — personality,
  // workload (enum or factory), environment, bug population — and its
  // `seed` is the seed base for profiling and experiments. Registry-named
  // scenarios build a prototype through core::scenario_prototype(); the
  // prototype's plan is cleared here, each experiment installs its own.
  explicit Checker(ExperimentSpec prototype, CheckpointConfig checkpoints = {})
      : prototype_(std::move(prototype)), checkpoint_config_(checkpoints) {
    prototype_.plan = FaultPlan{};
    prototype_.stop_on_violation = true;
  }

  Checker(fw::Personality personality, workload::WorkloadId workload, fw::BugRegistry bugs,
          std::uint64_t seed_base = 100)
      : Checker(p_make_prototype(personality, workload, std::move(bugs), seed_base)) {}

  // Profiling runs + monitor calibration happen on first use and are reused
  // by every campaign on this checker, so comparisons share the same model:
  // core::CampaignRunner runs each calibration group's cells (equal
  // core::prototype_key) back to back on one Checker. The profiling runs
  // are independent, so they fan out over the experiment pool (when
  // set_workers gave it more than one worker) and calibrate in seed order:
  // the model is the same at every worker count. With checkpointing on, the
  // golden run (run 0, at the experiments' own seed) also captures the
  // cadence snapshots p_checkpoints builds the scenario's root from.
  const MonitorModel& model() {
    if (!model_) {
      SnapshotCapture golden_capture;
      if (checkpoint_config_.enabled) {
        golden_capture = plan_root_capture(checkpoint_config_, prototype_.max_duration_ms);
      }
      std::vector<std::future<ExperimentResult>> runs;
      for (int i = 0; i < kProfilingRuns; ++i) {
        SnapshotCapture* capture =
            i == 0 && checkpoint_config_.enabled ? &golden_capture : nullptr;
        auto task = [this, capture, seed = prototype_.seed + static_cast<std::uint64_t>(i)] {
          return harness_.profile_run(prototype_, seed, capture);
        };
        runs.push_back(pool_ ? pool_->submit(std::move(task))
                             : std::async(std::launch::deferred, std::move(task)));
      }
      for (auto& run : runs) run.wait();  // no run outlives a failed one
      std::vector<ExperimentResult> profiling;
      for (auto& run : runs) profiling.push_back(run.get());
      model_ = MonitorModel::calibrate(std::move(profiling));
      if (checkpoint_config_.enabled) golden_capture_ = std::move(golden_capture);
    }
    return *model_;
  }

  // Sizes the experiment pool this Checker owns for its whole life: model()
  // profiles on it and run() farms experiments out to it. 1 (the default)
  // means no pool, everything runs on the calling thread. Call it before
  // model() for the profiling runs to fan out; the pool is rebuilt only for
  // a different worker count.
  void set_workers(int workers) {
    if (workers <= 1) {
      pool_.reset();
    } else if (!pool_ || pool_->worker_count() != workers) {
      pool_.emplace(workers);
    }
  }

  static constexpr int kProfilingRuns = 3;
  // Strategy request size: run() asks for up to kRequestChunk plans at a
  // time without a pool and for 2 x workers x kRequestChunk with one, capped
  // at p_adaptive_width's estimate of how many experiments still fit the
  // budget. SABRE fills a request across expansion waves as long as
  // in-flight feedback cannot change them, so the cap is what keeps a
  // request from running plans the budget will discard. A strategy's plan
  // sequence is independent of the request size (the next_batch contract),
  // so this moves wall clock only, never the report.
  static constexpr int kRequestChunk = 4;
  // Slack every experiment gets past the profiled mission duration before
  // it is cut off (p_make_spec); a safe run that uses all of it counts as
  // stalled (CheckerReport::stalled_runs).
  static constexpr sim::SimTimeMs kSettleMs = 45000;

  // The checker loop, on the pool set_workers() sized (none: every plan
  // runs on this thread when its result is due). Every plan of a request is
  // its own task, and results are applied on this thread in proposal order.
  // Budget charging, feedback() and UnsafeRecord collection are therefore
  // single-threaded, so BudgetClock needs no locking and the report is
  // bit-identical at every worker count to one-plan-at-a-time execution
  // (strategies never hand out a plan that an earlier plan's feedback could
  // have changed — SABRE crosses an expansion wave only when the next one
  // is settled). If the budget exhausts mid-request, the remainder is
  // discarded — exactly the experiments a serial run would never have
  // started — and tasks that have not started yet skip their simulation.
  // Discarded plans were already consumed from the strategy, so a strategy
  // that went through a run should not be resumed with a fresh budget (no
  // current caller does). See docs/PERFORMANCE.md.
  CheckerReport run(InjectionStrategy& strategy, BudgetClock& budget) {
    try {
      return p_campaign(strategy, budget);
    } catch (...) {
      // Tasks of the failed request may still be queued or running against
      // the checkpoint store; joining the pool (it drops unstarted tasks)
      // keeps them away from the next campaign's clear_tree(). The pool is
      // rebuilt at its size, so the next run keeps its workers.
      if (pool_) {
        const int workers = pool_->worker_count();
        pool_.reset();
        pool_.emplace(workers);
      }
      throw;
    }
  }

  // The scenario's checkpoint store (built on first use when enabled);
  // nullptr when checkpointing is off. Exposed for tests and tools.
  const CheckpointStore* checkpoint_store() {
    if (!checkpoint_config_.enabled) return nullptr;
    return p_checkpoints(model());
  }
  const CheckpointConfig& checkpoint_config() const { return checkpoint_config_; }

  // The spec run() simulates for `plan` (p_make_spec): the prototype at its
  // own seed, capped at the profiled duration plus kSettleMs, stopping at
  // the first violation. Calibrates on first use. `avis_campaign --explain`
  // replays one campaign experiment from it.
  ExperimentSpec experiment_spec(const FaultPlan& plan) { return p_make_spec(plan, model()); }

  fw::Personality personality() const { return prototype_.personality; }
  // The enum id the prototype was built from; registry-named scenarios run
  // through `prototype().workload_factory` and leave this at its default.
  workload::WorkloadId workload() const { return prototype_.workload; }
  const fw::BugRegistry& bugs() const { return prototype_.bugs; }
  const ExperimentSpec& prototype() const { return prototype_; }
  SimulationHarness& harness() { return harness_; }

 private:
  static ExperimentSpec p_make_prototype(fw::Personality personality,
                                         workload::WorkloadId workload, fw::BugRegistry bugs,
                                         std::uint64_t seed_base) {
    ExperimentSpec prototype;
    prototype.personality = personality;
    prototype.workload = workload;
    prototype.bugs = std::move(bugs);
    prototype.seed = seed_base;
    return prototype;
  }

  // One experiment's output, as a pool task hands it back: the result plus
  // the checkpoint-tree snapshots it recorded (empty when not recorded).
  struct Outcome {
    ExperimentResult result;
    std::vector<ExperimentSnapshot> captures;
  };

  // The checker loop behind run() (no pool: each plan runs on this thread
  // when its result is due). The checkpoint store is built on this thread
  // before any plan runs; while a request is in flight the store is strictly
  // read-only, and tree merges wait for the request's boundary, which is
  // what lets the next wave's children resolve their parents' recordings
  // without a worker ever observing a mutation.
  CheckerReport p_campaign(InjectionStrategy& strategy, BudgetClock& budget) {
    const MonitorModel& monitor = model();
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    // Per-campaign tree: every campaign over this checker starts from an
    // empty tree so its hit counters (and plan recordings) are a function
    // of the campaign alone, not of which strategies ran before it.
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit = checkpoints != nullptr ? strategy.chain_extension_limit() : 0;
    const int request_width = pool_ ? 2 * pool_->worker_count() * kRequestChunk : kRequestChunk;
    CheckerReport report;
    report.strategy_name = strategy.name();
    bool out_of_budget = false;
    std::vector<PendingMerge> deferred;
    while (!out_of_budget && !budget.exhausted()) {
      std::vector<FaultPlan> plans =
          strategy.next_batch(budget, p_adaptive_width(budget, request_width));
      if (plans.empty()) break;
      // Plans at or past this index are never applied; their tasks skip the
      // simulation unless they already started. Shared with the tasks so it
      // outlives this frame if an exception unwinds it mid-request.
      auto discard_from = std::make_shared<std::atomic<std::size_t>>(plans.size());
      std::vector<std::future<Outcome>> outcomes;
      outcomes.reserve(plans.size());
      for (std::size_t i = 0; i < plans.size(); ++i) {
        auto task = [this, &monitor, checkpoints, capture_limit, discard_from, i,
                     plan = plans[i]] {
          Outcome out;
          if (i >= discard_from->load(std::memory_order_relaxed)) return out;
          out.result = harness_.run(p_make_spec(plan, monitor), &monitor, nullptr, checkpoints,
                                    capture_limit, &out.captures);
          return out;
        };
        outcomes.push_back(pool_ ? pool_->submit(std::move(task))
                                 : std::async(std::launch::deferred, std::move(task)));
      }
      for (std::size_t i = 0; i < plans.size(); ++i) {
        // Plan 0 is always applied: the serial loop runs and applies any
        // plan next() returns, even when proposal-side charges (BFI's
        // labels) crossed the budget limit while producing it. Later plans
        // are discarded once the budget exhausts.
        if (!out_of_budget && i > 0 && budget.exhausted()) {
          out_of_budget = true;
          discard_from->store(i, std::memory_order_relaxed);
        }
        if (out_of_budget) {
          outcomes[i].wait();  // drain: a running task may still read the store
          continue;
        }
        Outcome out = outcomes[i].get();  // rethrows worker errors
        p_apply(report, strategy, budget, plans[i], std::move(out.result), out.captures,
                deferred);
      }
      // The request is fully drained: no task holds the store, so it can be
      // mutated.
      for (PendingMerge& merge : deferred) {
        checkpoints_->merge_run(merge.plan, std::move(merge.snapshots), std::move(merge.trace),
                                std::move(merge.transitions));
      }
      deferred.clear();
    }
    report.labels = budget.labels();
    report.budget_used_ms = budget.used_ms();
    report.checkpoint_evicted = checkpoints != nullptr ? checkpoints->evicted() : 0;
    return report;
  }

  // Budget-aware request sizing: a full request proposed just before the
  // budget exhausts runs experiments whose results the discard rule throws
  // away — pure wall-clock waste, and a no-injection control plan at a
  // wave's tail wastes a full-duration run. Estimate how many experiments
  // still fit from the average charge so far (label charges included,
  // which only biases the estimate low, i.e. conservative) and cap the
  // request. A strategy's plan sequence is independent of the request size
  // (the next_batch contract), so the cap moves wall clock only, never the
  // report.
  int p_adaptive_width(const BudgetClock& budget, int width) const {
    if (budget.experiments() == 0) return width;
    const sim::SimTimeMs avg =
        std::max<sim::SimTimeMs>(1, budget.used_ms() / budget.experiments());
    const sim::SimTimeMs fit = (budget.remaining_ms() + avg - 1) / avg;
    return std::clamp(static_cast<int>(std::min<sim::SimTimeMs>(fit, width)), 1, width);
  }

  ExperimentSpec p_make_spec(const FaultPlan& plan, const MonitorModel& monitor) const {
    ExperimentSpec spec = prototype_;
    spec.plan = plan;
    // Test runs reuse the golden run's seed (already the prototype's): on
    // this deterministic substrate a run then differs from the golden run
    // only through the injected faults, which keeps Eq. 1 free of
    // seed-variance noise (the paper absorbs that noise into tau instead).
    spec.max_duration_ms = monitor.profiling_duration_ms() + kSettleMs;
    return spec;
  }

  // Builds the scenario's fault-free root once; every later call returns
  // the same store. The golden profiling run is the prefix run's twin —
  // same seed, same spec, empty plan — so the root is built from its
  // captures (SimulationHarness::root_from_run): no extra fault-free
  // simulation, only short re-simulations to the golden transition times
  // off the cadence grid and a monitor replay. A golden run its own
  // duration cap cut short is not the prefix run's twin (the prefix spec's
  // cap is longer); the prefix is then simulated anew.
  const CheckpointStore* p_checkpoints(const MonitorModel& monitor) {
    if (!checkpoint_config_.enabled) return nullptr;
    if (!checkpoints_) {
      const ExperimentSpec spec = p_make_spec(FaultPlan{}, monitor);
      const ExperimentResult& golden = monitor.golden_run();
      checkpoints_ = golden.duration_ms < prototype_.max_duration_ms
                         ? harness_.root_from_run(spec, &monitor, checkpoint_config_, golden,
                                                  std::move(*golden_capture_))
                         : harness_.record_prefix(spec, &monitor, checkpoint_config_);
      golden_capture_.reset();
    }
    return &*checkpoints_;
  }

  // One finished directed run waiting to be merged into the checkpoint
  // tree at the request boundary (p_campaign defers merges so in-flight
  // runs only ever read the store).
  struct PendingMerge {
    FaultPlan plan;
    std::vector<ExperimentSnapshot> snapshots;
    std::vector<StateSample> trace;
    std::vector<ModeTransition> transitions;
  };

  // Applies one result: budget charge, counters, strategy feedback, unsafe
  // record, and — when the run was recorded for the checkpoint tree
  // (`captured` non-empty) — a tree merge queued onto `deferred`. Unsafe
  // runs are never merged: the strategies only extend bug-free chains.
  void p_apply(CheckerReport& report, InjectionStrategy& strategy, BudgetClock& budget,
               const FaultPlan& plan, ExperimentResult result,
               std::vector<ExperimentSnapshot>& captured, std::vector<PendingMerge>& deferred) {
    budget.charge_experiment(result.duration_ms);
    ++report.experiments;
    // Before the moves below: unsafe runs donate their transitions to the
    // UnsafeRecord and bug-free captured runs to the tree merge.
    accumulate_run_coverage(report.edge_coverage, plan, result.transitions);
    if (result.resumed_from_ms > 0) {
      ++report.checkpoint_hits;
      report.checkpoint_skipped_ms += result.resumed_from_ms;
      const auto level = static_cast<std::size_t>(result.resumed_depth);
      if (report.checkpoint_hits_by_level.size() <= level) {
        report.checkpoint_hits_by_level.resize(level + 1, 0);
      }
      ++report.checkpoint_hits_by_level[level];
    } else if (checkpoints_) {
      ++report.checkpoint_misses;
    }
    if (!result.unsafe() &&
        result.duration_ms >= model_->profiling_duration_ms() + kSettleMs) {
      ++report.stalled_runs;
    }
    strategy.feedback(plan, result);
    if (result.unsafe()) {
      UnsafeRecord record;
      record.plan = plan;
      record.violation = *result.violation;
      record.fired_bugs = result.fired_bugs;
      record.transitions = std::move(result.transitions);
      record.seed = prototype_.seed;
      record.experiment_index = report.experiments;
      for (fw::BugId id : record.fired_bugs) {
        report.bug_first_found.try_emplace(id, report.experiments);
      }
      report.unsafe.push_back(std::move(record));
    } else if (!captured.empty() && checkpoints_) {
      deferred.push_back(PendingMerge{plan, std::move(captured), std::move(result.trace),
                                      std::move(result.transitions)});
    }
  }

  ExperimentSpec prototype_;
  CheckpointConfig checkpoint_config_;
  SimulationHarness harness_;
  std::optional<MonitorModel> model_;
  // The golden run's root captures, from model() until p_checkpoints
  // builds the root out of them.
  std::optional<SnapshotCapture> golden_capture_;
  std::optional<CheckpointStore> checkpoints_;
  // Last member: destroyed (joined) first, while everything its tasks
  // reference is still alive.
  std::optional<util::ThreadPool> pool_;
};

}  // namespace avis::core
