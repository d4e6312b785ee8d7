// SABRE: Stratified Breadth-first search (paper §IV-B, Algorithm 1).
//
// The queue is seeded with the mode transitions discovered by a profiling
// run. Each dequeued (timestamp, injectedFailures) entry expands into the
// canonical (instance-symmetric) failure sets applied at that timestamp on
// top of the already-injected failures. Bug-free runs re-enqueue their own
// mode transitions with the accumulated plan (Algorithm 1 lines 11-14), and
// each entry re-enqueues shifted timestamps (line 20) so the neighbourhood
// of every transition is explored exhaustively — the paper's key feature:
// Avis "exhaustively target[s] the critical periods where the UAV
// transitioned between operating modes". The crawl is bidirectional: bugs
// manifest both just before and just after a transition (e.g. a fault in the
// last metres of a climb vs. the first metres of the next leg).
//
// Two redundancy-elimination policies (§IV-B-1):
//  * found-bug pruning    — once failure set F at timestamp t triggers a
//    bug, no superset of F is injected at t again;
//  * sensor-instance symmetry — failure sets are enumerated over roles, not
//    instances (see core/canonical.h).
//
// Scheduling note (documented deviation): Algorithm 1 as printed runs the
// entire power set at a dequeued timestamp before moving on. With real
// mission durations that would spend the whole 2-hour budget inside the
// first transition, so this implementation runs the single-failure stratum
// across all transitions and offsets first and services the same-timestamp
// multi-failure stratum from a secondary queue at a fixed interleave ratio.
// Multi-fault scenarios across *different* timestamps still arise the way
// Algorithm 1 creates them: bug-free runs re-enqueue their transitions with
// the accumulated plan. The Fig. 5 bench runs `full_powerset_batches`, which
// reproduces the printed algorithm's order exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/canonical.h"
#include "core/strategy.h"
#include "sensors/sensor_models.h"

namespace avis::core {

struct SabreConfig {
  bool symmetry_pruning = true;
  bool found_bug_pruning = true;
  int max_set_size = 2;                 // largest failure set added at one timestamp
  sim::SimTimeMs offset_step_ms = 200;  // Algorithm 1's "timestamp + 1" granularity
  int max_offsets = 12;                 // crawl depth per direction per transition
  int pair_interleave = 3;              // primary batches per multi-failure batch
  int pair_chunk = 10;                  // scenarios per multi-failure batch (covers a
                                        // full singleton stratum on an augmented base)
  int augmented_interleave = 2;         // primary waves between augmented-frontier waves:
                                        // chains surface within tens of simulations while
                                        // the seeded-transition breadth pass still
                                        // completes within the 2 h budget
  bool full_powerset_batches = false;   // Fig. 5 mode: whole power set per dequeue
  int max_plan_events = 3;              // total concurrent failures per plan

  // Injection-window restriction (FaultPlanConstraints): scenarios are only
  // emitted at timestamps t >= window_start_ms and (when window_end_ms > 0)
  // t <= window_end_ms. The queue still crawls through out-of-window
  // timestamps — an offset walk may re-enter the window — it just emits
  // nothing there. Defaults leave the schedule untouched.
  sim::SimTimeMs window_start_ms = 0;
  sim::SimTimeMs window_end_ms = 0;  // 0 = unbounded

  // Sensor types the scheduler may fail, bit i = sensors::SensorType i
  // (core::fault_type_mask builds this from constraint names). Failure sets
  // containing a disallowed type are excluded from the enumeration — not
  // counted as pruned, they were never part of the search space.
  std::uint32_t allowed_type_mask = 0xffffffffu;
};

class SabreScheduler final : public InjectionStrategy {
 public:
  SabreScheduler(sensors::SuiteConfig suite, std::vector<ModeTransition> golden_transitions,
                 SabreConfig config = {});

  std::optional<FaultPlan> next(BudgetClock& budget) override;
  // Hands out the rest of the current expansion wave (scenarios inside one
  // wave were emitted together and are independent), then keeps expanding
  // later waves into the same request while each expansion is *settled*:
  // in-flight feedback cannot change it. That holds when the lane choice
  // cannot flip (a primary lane is non-empty and the augmented lane is not
  // due while empty — feedback only refills that lane) and no in-flight
  // plan shares a timestamp with the expansion (found-bug pruning and the
  // proposal-time re-check are per timestamp). The plan sequence therefore
  // equals one-plan-at-a-time execution.
  std::vector<FaultPlan> next_batch(BudgetClock& budget, int max_plans) override;
  void feedback(const FaultPlan& plan, const ExperimentResult& result) override;
  // Checkpoint-tree recording contract: the augmented frontier extends
  // bug-free plans by one event at a time, and feedback() caps the lane at
  // plan.size() >= 2, so only size-1 plans ever grow — recording singleton
  // runs captures every possible parent.
  int chain_extension_limit() const override { return 1; }
  const char* name() const override { return "Avis (SABRE)"; }

  // Statistics for the ablation benches.
  int pruned_by_symmetry() const { return pruned_symmetry_; }
  int pruned_by_found_bug() const { return pruned_found_bug_; }
  int pruned_as_duplicate() const { return pruned_duplicate_; }

 private:
  struct QueueEntry {
    sim::SimTimeMs timestamp = 0;
    FaultPlan base;   // injectedFailures accumulated from earlier runs
    int direction = 0;  // 0 = seed, +1/-1 = crawl direction from a transition
    int offset_k = 0;   // how many steps from the transition
  };
  struct PairEntry {
    sim::SimTimeMs timestamp = 0;
    FaultPlan base;
    int size = 2;
    std::size_t cursor = 0;  // continuation point into the canonical set list
  };

  // One step of the expansion loop: expands the front entry of whichever
  // lane the interleave counters make due into batch_ (it may emit nothing)
  // and returns true; false when there is nothing to expand or, with
  // `settled_only`, when in-flight feedback could change the step — then
  // no state is touched.
  bool p_expand_step(bool settled_only);
  bool p_in_flight_at(sim::SimTimeMs timestamp) const;
  void p_expand_primary(const QueueEntry& entry);
  void p_expand_pairs(PairEntry entry);
  bool p_in_window(sim::SimTimeMs timestamp) const {
    return timestamp >= config_.window_start_ms &&
           (config_.window_end_ms <= 0 || timestamp <= config_.window_end_ms);
  }
  bool p_set_allowed(const std::vector<sensors::SensorId>& set) const {
    for (const auto& id : set) {
      if ((config_.allowed_type_mask &
           (std::uint32_t{1} << static_cast<unsigned>(id.type))) == 0) {
        return false;
      }
    }
    return true;
  }
  std::optional<FaultPlan> p_pop_batch();
  void p_emit(sim::SimTimeMs timestamp, const FaultPlan& base,
              const std::vector<sensors::SensorId>& set);
  bool p_can_prune(sim::SimTimeMs timestamp, const std::vector<sensors::SensorId>& set,
                   const FaultPlan& base);

  sensors::SuiteConfig suite_;
  SabreConfig config_;
  std::deque<QueueEntry> queue_;       // singleton stratum (transitions + crawls)
  // High-priority lane for a bug-free run's post-injection transitions
  // (Algorithm 1 lines 11-14): serviced ahead of `queue_` at the
  // `augmented_interleave` rate so multi-fault chains are reached early
  // without starving the seeded breadth pass.
  std::deque<QueueEntry> augmented_queue_;
  std::deque<PairEntry> pair_queue_;   // same-timestamp multi-failure stratum
  std::deque<FaultPlan> batch_;
  int batches_since_pairs_ = 0;
  int primary_since_augmented_ = 0;

  struct Pending {
    sim::SimTimeMs timestamp = 0;
    std::string role_sig;  // role signature of the set added at `timestamp`
  };
  // In-flight plans, keyed by exact plan signature: feedback() and
  // proposal-time pruning look plans up by identity, and `explored_` blocks
  // re-emission, so signatures are unique while a plan is in flight.
  std::unordered_map<std::string, Pending> pending_;

  bool p_superset_of_seen_bug(sim::SimTimeMs timestamp, const std::string& sig) const;

  std::unordered_set<std::string> explored_;
  std::set<std::pair<sim::SimTimeMs, std::string>> seen_bugs_;

  int pruned_symmetry_ = 0;
  int pruned_found_bug_ = 0;
  int pruned_duplicate_ = 0;
};

// Role signature of a concrete failure set (no timestamps).
std::string role_signature_of_set(const std::vector<sensors::SensorId>& set);

// Non-empty ';'-separated tokens of a (role or plan) signature.
std::vector<std::string> signature_tokens(const std::string& sig);

// True when every token of `subset_sig` appears in `superset_sig`,
// compared token-exactly (a substring match would conflate tokens that are
// suffixes of one another). Found-bug pruning uses this to test whether a
// candidate set contains a set that already triggered a bug; the token-set
// overload lets a caller testing many subsets tokenize the superset once.
bool role_signature_subset(const std::string& subset_sig, const std::string& superset_sig);
bool role_signature_subset(const std::string& subset_sig,
                           const std::unordered_set<std::string>& superset_tokens);

}  // namespace avis::core
