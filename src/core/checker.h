// The checker loop: drives one search strategy against one (firmware
// personality, workload) pair under a budget, collecting every unsafe
// condition found. This is the outer loop all of Tables II-V run through.
// A Checker owns no threads: it runs inline, or on a pool it is handed
// (core::CampaignRunner hands every group the campaign's one pool).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
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
  // fan out over the pool and calibrate in seed order: the model is the
  // same at every pool size. With checkpointing on, the golden run (run 0,
  // at the experiments' own seed) also captures the cadence snapshots
  // p_checkpoints builds the scenario's root from.
  const MonitorModel& model() {
    if (!model_) {
      SnapshotCapture golden_capture;
      if (checkpoint_config_.enabled) {
        golden_capture = plan_root_capture(prototype_.max_duration_ms);
      }
      std::vector<std::future<ExperimentResult>> runs;
      for (int i = 0; i < kProfilingRuns; ++i) {
        SnapshotCapture* capture =
            i == 0 && checkpoint_config_.enabled ? &golden_capture : nullptr;
        auto task = [this, capture, seed = prototype_.seed + static_cast<std::uint64_t>(i)] {
          return harness_.profile_run(prototype_, seed, capture);
        };
        runs.push_back(p_submit(std::move(task)));
      }
      for (auto& run : runs) p_wait(run);  // no run outlives a failed one
      std::vector<ExperimentResult> profiling;
      for (auto& run : runs) profiling.push_back(run.get());
      model_ = MonitorModel::calibrate(std::move(profiling));
      if (checkpoint_config_.enabled) golden_capture_ = std::move(golden_capture);
    }
    return *model_;
  }

  // Runs model()'s profiling runs and run()'s experiments as tasks on
  // `pool`, borrowed for those calls, with requests sized for `width`
  // parallel experiments (0: the pool's size). A width of 1 or a null pool
  // (the default) runs every plan inline on the calling thread.
  void use_pool(util::ThreadPool* pool, int width = 0) {
    width_ = pool == nullptr ? 1 : width > 0 ? width : pool->worker_count();
    pool_ = width_ > 1 ? pool : nullptr;
  }

  static constexpr int kProfilingRuns = 3;
  // Strategy request size: run() asks for up to kRequestChunk plans at a
  // time inline and for 2 x width x kRequestChunk on a pool, capped
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

  // The checker loop. Every plan of a request is a pool task (inline: it
  // runs on this thread when its result is due), and results are applied
  // on this thread in proposal order, so BudgetClock needs no locking and
  // the report is bit-identical at every pool size and width to
  // one-plan-at-a-time execution (no strategy hands out a plan an earlier
  // plan's feedback could have changed). If the budget exhausts
  // mid-request, the remainder is discarded — exactly the experiments a
  // serial run would never have started — and tasks that have not started
  // yet skip their simulation; a strategy that went through a run should
  // not be resumed with a fresh budget. While a request is in flight the
  // checkpoint store is read-only: tree merges wait for its boundary.
  // See docs/PERFORMANCE.md.
  CheckerReport run(InjectionStrategy& strategy, BudgetClock& budget) {
    const MonitorModel& monitor = model();
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    // Per-campaign tree: every campaign over this checker starts from an
    // empty tree so its hit counters (and plan recordings) are a function
    // of the campaign alone, not of which strategies ran before it.
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit = checkpoints != nullptr ? strategy.chain_extension_limit() : 0;
    const int request_width = pool_ ? 2 * width_ * kRequestChunk : kRequestChunk;
    CheckerReport report;
    report.strategy_name = strategy.name();
    bool out_of_budget = false;
    std::vector<PendingMerge> deferred;
    while (!out_of_budget && !budget.exhausted()) {
      std::vector<FaultPlan> plans =
          strategy.next_batch(budget, p_adaptive_width(budget, request_width));
      if (plans.empty()) break;
      // Plans at or past this index are never applied; their tasks skip the
      // simulation unless they already started.
      std::atomic<std::size_t> discard_from = plans.size();
      std::vector<std::future<Outcome>> outcomes;
      outcomes.reserve(plans.size());
      for (std::size_t i = 0; i < plans.size(); ++i) {
        outcomes.push_back(p_submit([this, &monitor, checkpoints, capture_limit, &discard_from,
                                     i, plan = plans[i]] {
          Outcome out;
          if (i >= discard_from.load(std::memory_order_relaxed)) return out;
          out.result = harness_.run(p_make_spec(plan, monitor), &monitor, nullptr, checkpoints,
                                    capture_limit, &out.captures);
          return out;
        }));
      }
      try {
        for (std::size_t i = 0; i < plans.size(); ++i) {
          // Plan 0 is always applied: the serial loop runs and applies any
          // plan next() returns, even when proposal-side charges (BFI's
          // labels) crossed the budget limit while producing it. Later plans
          // are discarded once the budget exhausts.
          if (!out_of_budget && i > 0 && budget.exhausted()) {
            out_of_budget = true;
            discard_from.store(i, std::memory_order_relaxed);
          }
          p_wait(outcomes[i]);  // drain: a running task may still read the store
          if (out_of_budget) continue;
          Outcome out = outcomes[i].get();  // rethrows worker errors
          p_apply(report, strategy, budget, plans[i], std::move(out.result), out.captures,
                  deferred);
        }
      } catch (...) {
        // A failed request drains before it unwinds: no task may outlive
        // this frame or touch the store the next run's clear_tree() mutates.
        discard_from.store(0, std::memory_order_relaxed);
        for (auto& outcome : outcomes) {
          if (outcome.valid()) p_wait(outcome);
        }
        throw;
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

  // A task on the pool, or deferred to its first wait on this thread.
  template <typename F>
  std::future<std::invoke_result_t<F>> p_submit(F&& task) {
    return pool_ ? pool_->submit(std::forward<F>(task))
                 : std::async(std::launch::deferred, std::forward<F>(task));
  }
  // On a pool worker, runs queued experiments while it waits.
  template <typename T>
  void p_wait(const std::future<T>& task) const { pool_ ? pool_->wait(task) : task.wait(); }

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
  // tree at the request boundary (run() defers merges so in-flight
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
  util::ThreadPool* pool_ = nullptr;  // borrowed (use_pool); null runs inline
  int width_ = 1;
};

}  // namespace avis::core
