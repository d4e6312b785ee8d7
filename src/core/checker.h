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
  // are bit-identical across worker counts and checkpoint modes, so it is
  // part of report identity (NOT masked the way the checkpoint_* counters
  // are).
  CoverageMap edge_coverage;

  // Checkpointed prefix forking observability (docs/PERFORMANCE.md): how
  // many experiments restored a recorded prefix snapshot (hit) vs simulated
  // from scratch despite an available store (miss — the plan injects before
  // the first snapshot; with checkpointing disabled both counters stay 0),
  // how many snapshots the store evicted to fit its byte budget, and the
  // total simulated milliseconds the restores skipped.
  // Wall-clock accounting only: the reported experiments, budget charges
  // and unsafe records are bit-identical with checkpointing on or off.
  int checkpoint_hits = 0;
  int checkpoint_misses = 0;
  int checkpoint_evicted = 0;
  sim::SimTimeMs checkpoint_skipped_ms = 0;
  // Per-level restore counters (checkpoint trees): index 0 counts restores
  // from the fault-free root, index d >= 1 restores from a tree snapshot
  // with d injections already activated. Sums to checkpoint_hits. Sized to
  // the deepest level hit. Like every checkpoint counter this is wall-clock
  // observability; serial and parallel runs may count coincidental prefix
  // hits differently (wave timing decides what is recorded when a plan
  // resolves), which is why report-identity checks mask checkpoint_*.
  std::vector<int> checkpoint_hits_by_level;
  // Tree snapshots evicted under byte-budget pressure (root evictions stay
  // in checkpoint_evicted).
  int checkpoint_tree_evicted = 0;
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
  // across strategies so comparisons share the same model.
  const MonitorModel& model() {
    if (!model_) {
      auto context = contexts_.acquire();
      model_ = harness_.profile(prototype_, /*runs=*/3, prototype_.seed, context.get());
      contexts_.release(std::move(context));
    }
    return *model_;
  }

  // Strategy request size: run() asks for up to kRequestChunk plans at a
  // time and run_parallel() for 2 x workers x kRequestChunk, both capped by
  // p_adaptive_width near the budget boundary. A strategy's plan sequence is
  // independent of the request size (the next_batch contract), so this
  // moves wall clock only, never the report.
  static constexpr int kRequestChunk = 4;
  // Slack every experiment gets past the profiled mission duration before
  // it is cut off (p_make_spec); a safe run that uses all of it counts as
  // stalled (CheckerReport::stalled_runs).
  static constexpr sim::SimTimeMs kSettleMs = 45000;

  // Serial checker loop: plans are simulated one at a time in proposal
  // order and applied as they finish. Once the budget exhausts, the rest of
  // the request is discarded unsimulated. Discarded plans were already
  // consumed from the strategy, so a strategy that went through a run
  // should not be resumed with a fresh budget (no current caller does).
  CheckerReport run(InjectionStrategy& strategy, BudgetClock& budget) {
    return p_campaign(strategy, budget, nullptr);
  }

  // Parallel variant: every plan of a request is its own pool task, and
  // results are applied on this thread in proposal order. Budget charging,
  // feedback() and UnsafeRecord collection are therefore single-threaded,
  // so BudgetClock needs no locking and the report is bit-identical to
  // run() for the same plan sequence (strategies stop a request at the
  // boundary where a serial run's feedback could change the next plan —
  // SABRE at its expansion wave). If the budget exhausts mid-request, the
  // remainder is discarded — exactly the experiments a serial run would
  // never have started — and tasks that have not started yet skip their
  // simulation. See docs/PERFORMANCE.md.
  CheckerReport run_parallel(InjectionStrategy& strategy, BudgetClock& budget, int workers) {
    if (workers <= 1) return run(strategy, budget);
    util::ThreadPool pool(workers);
    return p_campaign(strategy, budget, &pool);
  }

  // The scenario's checkpoint store (recorded on first use when enabled);
  // nullptr when checkpointing is off. Exposed for tests and tools.
  const CheckpointStore* checkpoint_store() {
    if (!checkpoint_config_.enabled) return nullptr;
    return p_checkpoints(model());
  }
  const CheckpointConfig& checkpoint_config() const { return checkpoint_config_; }

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

  // The checker loop behind run() (pool == nullptr: each plan runs on this
  // thread when its result is due) and run_parallel(). The checkpoint store
  // is recorded on this thread before any plan runs; while a request is in
  // flight the store is strictly read-only, and tree merges wait for the
  // request's boundary, which is what lets the next wave's children resolve
  // their parents' recordings without a worker ever observing a mutation.
  CheckerReport p_campaign(InjectionStrategy& strategy, BudgetClock& budget,
                           util::ThreadPool* pool) {
    const MonitorModel& monitor = model();
    const CheckpointStore* checkpoints = p_checkpoints(monitor);
    // Per-campaign tree: every campaign over this checker starts from an
    // empty tree so its hit counters (and plan recordings) are a function
    // of the campaign alone, not of which strategies ran before it.
    if (checkpoints_) checkpoints_->clear_tree();
    const int capture_limit =
        checkpoints != nullptr && checkpoints->trees_enabled() ? strategy.chain_extension_limit()
                                                               : 0;
    const int request_factor = pool != nullptr ? 2 * pool->worker_count() : 1;
    CheckerReport report;
    report.strategy_name = strategy.name();
    bool out_of_budget = false;
    std::vector<PendingMerge> deferred;
    while (!out_of_budget && !budget.exhausted()) {
      std::vector<FaultPlan> plans = strategy.next_batch(
          budget, request_factor * p_adaptive_width(budget, kRequestChunk));
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
          // A worker checks a context out per experiment, so consecutive
          // runs reset retained storage instead of reallocating it (the
          // arena-reuse contract). An exception skips the release and
          // simply retires the context.
          auto context = contexts_.acquire();
          out.result = harness_.run(p_make_spec(plan, monitor), &monitor, context.get(),
                                    checkpoints, capture_limit, &out.captures);
          contexts_.release(std::move(context));
          return out;
        };
        outcomes.push_back(pool != nullptr ? pool->submit(std::move(task))
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
    report.checkpoint_tree_evicted = checkpoints != nullptr ? checkpoints->tree_evicted() : 0;
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

  // Records the scenario's fault-free prefix once; every later call returns
  // the same store. The recording is one extra fault-free simulation —
  // amortized across the campaign the way profiling already is. On top of
  // the cadence grid, a snapshot is captured at every golden mode-transition
  // timestamp: the search strategies concentrate their injections exactly
  // there (SABRE seeds its queue from the golden transitions), so those
  // plans restore with zero re-simulated prefix.
  const CheckpointStore* p_checkpoints(const MonitorModel& monitor) {
    if (!checkpoint_config_.enabled) return nullptr;
    if (!checkpoints_) {
      CheckpointConfig config = checkpoint_config_;
      for (const ModeTransition& t : monitor.golden_transitions()) {
        config.capture_at.push_back(t.time_ms);
      }
      auto context = contexts_.acquire();
      checkpoints_ = harness_.record_prefix(p_make_spec(FaultPlan{}, monitor), &monitor,
                                            config, context.get());
      contexts_.release(std::move(context));
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
  ExperimentContextPool contexts_;
  std::optional<MonitorModel> model_;
  std::optional<CheckpointStore> checkpoints_;
};

}  // namespace avis::core
