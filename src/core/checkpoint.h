// Checkpointed prefix forking: the fault-free root and the checkpoint tree.
//
// Every experiment in a checker campaign shares its spec with every other
// experiment except for the fault plan, and `ScheduledDirector` makes a run
// plan-independent strictly before the plan's earliest activation time. So
// the harness runs the fault-free "prefix run" once, capturing complete
// world-state snapshots at a fixed cadence, and every subsequent experiment
// restores the latest snapshot at-or-before its plan's first injection time,
// splices the recorded trace/transition prefix into its result, and
// simulates only the suffix.
//
// The checkpoint tree generalizes this to *faulty* prefixes: directed runs
// the strategy may later extend into chains ({A@t0} -> {A@t0, B@t1}) are
// themselves recorded — snapshots keyed by the exact signature of the
// injections activated strictly before the capture time — and a plan that
// extends a previously-run chain restores the deepest ancestor snapshot
// whose signature matches a prefix of its own plan and whose time is at or
// before its next un-replayed injection, falling back to the fault-free
// root. The contract is strict parity either way: a restored-and-resumed
// run is bit-identical (trace, transitions, outcome, unsafe records) to the
// same spec simulated from scratch — the same spirit as the arena reset
// contract (docs/PERFORMANCE.md has the full argument;
// tests/test_checkpoint.cc and tests/test_checkpoint_tree.cc are the
// tripwires).
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/invariant_monitor.h"
#include "fw/firmware.h"
#include "mavlink/channel.h"
#include "sensors/sensor_models.h"
#include "sim/simulator.h"
#include "util/checked.h"
#include "workload/context.h"
#include "workload/workload.h"

namespace avis::core {

struct CheckpointConfig {
  bool enabled = true;
  // Checkpoint trees: record qualifying directed (faulty) runs so plans
  // that extend a previously-run chain restore the shared faulty prefix
  // instead of re-simulating it. A wall-clock-only knob like `enabled`:
  // reports are identical with trees on or off modulo the checkpoint
  // counters themselves (the CLI's --no-checkpoint-trees A/B switch).
  bool trees = true;
  // Snapshot cadence in simulated milliseconds. Finer cadence means less
  // suffix to re-simulate per experiment but more capture cost and memory;
  // 1000 ms measured best on SABRE campaigns (the offset crawls inject a
  // few hundred ms around each transition, so a 5000 ms grid strands them).
  sim::SimTimeMs interval_ms = 1000;
  // Tree recording stop rule: once this many mode transitions after the
  // run's first injection have been observed, recording stops. SABRE's
  // augmented frontier schedules every child chain at one of the first two
  // post-injection transition timestamps, so later snapshots could never be
  // restored by any plan the strategy can still produce.
  int tree_transition_horizon = 2;
  // Extra exact capture times merged into the cadence grid. The search
  // strategies overwhelmingly inject at (or just after) the golden run's
  // mode-transition timestamps — SABRE seeds its queue from them — so
  // core::Checker adds those times here and the dominant injection sites
  // restore with zero re-simulated prefix.
  std::vector<sim::SimTimeMs> capture_at;
  // Upper bound on retained snapshot bytes (approximate, deterministic),
  // shared between the fault-free root and the tree. When the prefix run's
  // snapshots exceed it, the store thins itself to every other snapshot
  // until it fits — coverage degrades to a coarser cadence instead of
  // disappearing. Tree recordings are evicted whole, oldest first, whenever
  // root + tree exceed the budget; the root is never evicted to make room
  // for faulty descendants (it accelerates every experiment, a recording
  // only its own chain's children). 0 means unbounded.
  std::size_t byte_budget = 64ull * 1024 * 1024;
};

// Complete world state at the top of one harness loop iteration: every
// stateful layer of Fig. 7 plus the harness's own loop bookkeeping. The
// prefix run's sampled trace and mode transitions are shared store-wide
// (each snapshot stores only its prefix lengths), so a snapshot costs
// kilobytes, not the O(run-length) trace.
struct ExperimentSnapshot {
  sim::SimTimeMs time_ms = 0;  // loop iteration this snapshot resumes at

  sim::Simulator::Snapshot simulator;
  sensors::SuiteSnapshot suite;
  fw::Firmware::Snapshot firmware;
  mavlink::Channel::Snapshot channel;
  workload::Workload::Progress workload;
  workload::GcsContext::Snapshot gcs;
  MonitorSession::Snapshot monitor;  // meaningful only for monitored prefixes

  // RecordingDirector splice state: how much of the shared prefix
  // transition list had been recorded, and the latched heartbeat/mode.
  std::size_t transitions_len = 0;
  std::uint16_t current_mode = 0;
  sim::SimTimeMs last_heartbeat_ms = 0;

  // Harness loop state.
  sim::SimTimeMs next_workload_ms = 0;
  sim::SimTimeMs next_sample_ms = 0;
  sim::SimTimeMs workload_done_at = -1;
  bool workload_passed = false;
  bool firmware_dead = false;
  std::size_t trace_len = 0;  // samples already in the shared prefix trace
  std::optional<Violation> violation;  // non-empty only without stop_on_violation

  // Deterministic size estimate for the store's byte budget: the struct
  // itself plus the dynamically sized payloads worth counting.
  std::size_t approx_bytes() const {
    std::size_t bytes = sizeof(ExperimentSnapshot);
    bytes += (firmware.mission.size() * 2) * sizeof(mavlink::MissionItem);
    bytes += firmware.fired_bugs.capacity() * sizeof(fw::BugId);
    for (const auto& frame : channel.to_vehicle) bytes += frame.size() + sizeof(frame);
    for (const auto& frame : channel.to_gcs) bytes += frame.size() + sizeof(frame);
    bytes += gcs.uploader.items.size() * sizeof(mavlink::MissionItem);
    for (const auto& text : gcs.status_texts) bytes += text.size() + sizeof(text);
    const std::size_t per_instance = sizeof(sensors::InstanceState<sensors::GpsSample>);
    bytes += (suite.gyros.size() + suite.accels.size() + suite.baros.size() +
              suite.gpses.size() + suite.compasses.size() + suite.batteries.size()) *
             per_instance;
    return bytes;
  }
};

// A directed (faulty) run recorded into the checkpoint tree. Unlike the
// fault-free prefix — whose trace/transitions are shared store-wide — each
// recording owns its full from-t=0 trace and transition list: the recorded
// run may itself have been restored from the root, in which case its result
// already contains the spliced root prefix, and descendants splice their
// prefixes from here.
struct TreeRecording {
  std::vector<StateSample> trace;
  std::vector<ModeTransition> transitions;
};

// One snapshot of a recorded faulty run. `depth` is the number of plan
// events activated strictly before the capture time (the events baked into
// `state`); the snapshot is filed under the exact FaultPlan signature of
// that activated set.
struct TreeSnapshot {
  ExperimentSnapshot state;
  std::shared_ptr<const TreeRecording> recording;
  int depth = 1;
};

// A resolved restore point: the snapshot plus the trace/transition prefix
// to splice into the resumed run's result (the store's shared prefix for a
// root restore, the ancestor recording's own for a tree restore).
// `keepalive` pins a tree snapshot — and the recording its pointers reach
// into — across store eviction for as long as the resume is in flight.
// Default-constructed means cold start.
struct CheckpointResume {
  const ExperimentSnapshot* snapshot = nullptr;
  const std::vector<StateSample>* trace = nullptr;
  const std::vector<ModeTransition>* transitions = nullptr;
  std::shared_ptr<const TreeSnapshot> keepalive;
  int depth = 0;  // 0 = fault-free root

  explicit operator bool() const { return snapshot != nullptr; }
};

// Capture sink for recording a directed run into the tree while it runs
// (SimulationHarness::p_run): the capture grid — all times strictly after
// the plan's first injection — and the transition-horizon stop rule. The
// filled snapshots are merged into a store afterwards (merge_run), never
// during the run, so experiments on other threads can keep reading the
// store while the run simulates.
struct TreeCapture {
  std::vector<sim::SimTimeMs> times;  // ascending, deduplicated
  sim::SimTimeMs first_injection = 0;
  int transition_horizon = 2;
  bool done = false;
  std::vector<ExperimentSnapshot> snapshots;
};

// A run whose post-injection transitions never arrive would otherwise keep
// assembling snapshots on the cadence grid all the way to max_duration —
// pure waste, since such a run has no extension points and spawns no
// children. Cap the cadence grid per recording: chains extend at the first
// couple of post-injection transitions, which in practice land within a few
// intervals of the injection, so a bounded grid loses nothing real (a child
// past the cap still restores the root and stays bit-identical).
inline constexpr std::size_t kTreeCaptureGridCap = 32;

// The tree capture schedule for one directed run: the store's cadence grid
// restricted to times after the first injection (bounded by
// kTreeCaptureGridCap), the plan's own later activation times (a
// multi-event run's state changes exactly there), and the config's exact
// extra times (golden transition timestamps). Children inject at the
// parent run's observed post-injection transitions, so the cadence grid
// bounds their re-simulated prefix to one interval.
inline TreeCapture plan_tree_capture(const ExperimentSpec& spec,
                                     const CheckpointConfig& config) {
  TreeCapture capture;
  capture.first_injection = spec.plan.first_injection_ms();
  capture.transition_horizon = config.tree_transition_horizon;
  const sim::SimTimeMs s1 = capture.first_injection;
  for (sim::SimTimeMs t = (s1 / config.interval_ms + 1) * config.interval_ms;
       t < spec.max_duration_ms && capture.times.size() < kTreeCaptureGridCap;
       t += config.interval_ms) {
    capture.times.push_back(t);
  }
  for (const auto& e : spec.plan.events) {
    if (e.time_ms > s1 && e.time_ms < spec.max_duration_ms) capture.times.push_back(e.time_ms);
  }
  for (sim::SimTimeMs t : config.capture_at) {
    if (t > s1 && t < spec.max_duration_ms) capture.times.push_back(t);
  }
  std::sort(capture.times.begin(), capture.times.end());
  capture.times.erase(std::unique(capture.times.begin(), capture.times.end()),
                      capture.times.end());
  return capture;
}

// One scenario's checkpoint set: the prefix run's shared trace/transitions
// plus the cadenced snapshots, recorded once by
// `SimulationHarness::record_prefix`, and the checkpoint tree of recorded
// faulty runs. Shared read-only across pool workers during a dispatch wave;
// all mutation (merge_run, clear_tree) happens on the checker's caller
// thread strictly between waves, so no synchronization is needed.
class CheckpointStore {
 public:
  CheckpointStore() = default;
  explicit CheckpointStore(CheckpointConfig config) : config_(config) {}

  const CheckpointConfig& config() const { return config_; }
  bool empty() const { return snapshots_.empty(); }
  std::size_t size() const { return snapshots_.size(); }
  int evicted() const { return evicted_; }
  std::size_t total_bytes() const { return total_bytes_; }

  // Tree observability.
  bool trees_enabled() const { return config_.trees; }
  std::size_t tree_recordings() const { return tree_fifo_.size(); }
  std::size_t tree_size() const {
    std::size_t count = 0;
    for (const auto& [key, bucket] : tree_) count += bucket.size();
    return count;
  }
  int tree_evicted() const { return tree_evicted_; }
  std::size_t tree_bytes() const { return tree_bytes_; }

  // True when resolve() can return anything at all.
  bool has_restore_points() const { return !snapshots_.empty() || !tree_.empty(); }

  const std::vector<StateSample>& prefix_trace() const { return prefix_trace_; }
  const std::vector<ModeTransition>& prefix_transitions() const { return prefix_transitions_; }

  // The prefix run is one spec with its plan cleared; a store only
  // accelerates specs that differ from it by plan alone. The factory fields
  // (workload, environment) are not comparable, so the checkable identity
  // is asserted here and the factory identity is the caller's contract —
  // core::Checker builds every spec from one prototype, which satisfies it
  // by construction.
  void require_matches(const ExperimentSpec& spec, bool monitored) const {
    util::expects(spec.seed == seed_ && spec.max_duration_ms == max_duration_ms_ &&
                      spec.stop_on_violation == stop_on_violation_ &&
                      spec.personality == personality_ && monitored == monitored_,
                  "checkpoint store used with a spec from a different scenario");
  }

  // Latest root snapshot usable for a plan whose earliest injection is at
  // `first_injection_ms`: state at the top of iteration t is
  // plan-independent iff every injection activates at >= t, so any snapshot
  // with time_ms <= first_injection_ms is exact. Snapshots are kept
  // ascending by time, so this is a binary search: the first snapshot past
  // the injection bounds the usable range from above, and its predecessor
  // (if any) is the latest usable one. nullptr = cold start.
  const ExperimentSnapshot* best_for(sim::SimTimeMs first_injection_ms) const {
    const auto past = std::upper_bound(
        snapshots_.begin(), snapshots_.end(), first_injection_ms,
        [](sim::SimTimeMs t, const ExperimentSnapshot& snap) { return t < snap.time_ms; });
    if (past == snapshots_.begin()) return nullptr;
    return &*(past - 1);
  }

  // Deepest usable restore point for `plan`, tree first. For each proper
  // prefix of the plan's distinct activation times (deepest first), the
  // bucket keyed by that prefix's exact signature holds snapshots of
  // recorded runs whose activated injections match the prefix exactly; the
  // latest one at-or-before the plan's next un-replayed activation resumes
  // the run bit-identically (same argument as best_for, with the shared
  // faulty prefix already simulated). A deeper prefix's snapshots all
  // postdate a shallower prefix's usable window, so the first level with a
  // usable snapshot is the global optimum. Falls back to the fault-free
  // root, then to a cold start.
  CheckpointResume resolve(const FaultPlan& plan) const {
    if (config_.trees && !tree_.empty() && !plan.events.empty()) {
      std::vector<sim::SimTimeMs> times;
      times.reserve(plan.events.size());
      for (const auto& e : plan.events) times.push_back(e.time_ms);
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      for (std::size_t level = times.size() - 1; level >= 1; --level) {
        const auto bucket_it = tree_.find(p_prefix_signature(plan, times[level - 1]));
        if (bucket_it == tree_.end()) continue;
        const auto& bucket = bucket_it->second;  // ascending by snapshot time
        const auto past = std::upper_bound(
            bucket.begin(), bucket.end(), times[level],
            [](sim::SimTimeMs t, const std::shared_ptr<const TreeSnapshot>& snap) {
              return t < snap->state.time_ms;
            });
        if (past == bucket.begin()) continue;
        const std::shared_ptr<const TreeSnapshot>& snap = *(past - 1);
        CheckpointResume resume;
        resume.snapshot = &snap->state;
        resume.trace = &snap->recording->trace;
        resume.transitions = &snap->recording->transitions;
        resume.keepalive = snap;
        resume.depth = snap->depth;
        return resume;
      }
    }
    if (const ExperimentSnapshot* root = best_for(plan.first_injection_ms())) {
      CheckpointResume resume;
      resume.snapshot = root;
      resume.trace = &prefix_trace_;
      resume.transitions = &prefix_transitions_;
      resume.depth = 0;
      return resume;
    }
    return {};
  }

  // --- Recording interface (SimulationHarness::record_prefix) -------------
  void begin(const ExperimentSpec& spec, bool monitored) {
    snapshots_.clear();
    prefix_trace_.clear();
    prefix_transitions_.clear();
    clear_tree();  // a re-recorded root invalidates every descendant
    evicted_ = 0;
    total_bytes_ = 0;
    seed_ = spec.seed;
    max_duration_ms_ = spec.max_duration_ms;
    stop_on_violation_ = spec.stop_on_violation;
    personality_ = spec.personality;
    monitored_ = monitored;
  }

  void add(ExperimentSnapshot snapshot) {
    total_bytes_ += snapshot.approx_bytes();
    snapshots_.push_back(std::move(snapshot));
  }

  // Install the finished prefix run's shared trace/transitions and enforce
  // the byte budget by thinning to every other snapshot (coarser cadence,
  // same coverage span) until the set fits.
  void finish(const ExperimentResult& prefix) {
    prefix_trace_ = prefix.trace;
    prefix_transitions_ = prefix.transitions;
    while (config_.byte_budget > 0 && total_bytes_ > config_.byte_budget &&
           snapshots_.size() > 1) {
      std::vector<ExperimentSnapshot> kept;
      kept.reserve(snapshots_.size() / 2 + 1);
      total_bytes_ = 0;
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        if (i % 2 == 0) {
          total_bytes_ += snapshots_[i].approx_bytes();
          kept.push_back(std::move(snapshots_[i]));
        } else {
          ++evicted_;
        }
      }
      snapshots_ = std::move(kept);
    }
  }

  // --- Tree recording interface (checker apply loop) -----------------------
  // Files one finished directed run into the tree: each captured snapshot
  // under the exact signature of the plan events activated strictly before
  // its capture time, all sharing one recording of the run's full trace and
  // transitions. Deduplicated by full plan signature (re-running a plan
  // re-derives identical snapshots). Callers merge only between dispatch
  // waves — never while an engine may be resolving — and only bug-free
  // runs: an unsafe parent gets no children, so its snapshots could never
  // be restored.
  void merge_run(const FaultPlan& plan, std::vector<ExperimentSnapshot> snapshots,
                 std::vector<StateSample> trace, std::vector<ModeTransition> transitions) {
    if (!config_.trees || plan.events.empty() || snapshots.empty()) return;
    std::string full_signature = plan.signature();
    if (!tree_plans_.insert(full_signature).second) return;

    auto recording = std::make_shared<TreeRecording>();
    recording->trace = std::move(trace);
    recording->transitions = std::move(transitions);

    TreeEntry entry;
    entry.plan_signature = std::move(full_signature);
    entry.bytes = recording->trace.capacity() * sizeof(StateSample);
    for (const auto& t : recording->transitions) entry.bytes += sizeof(t) + t.mode_name.size();

    for (ExperimentSnapshot& state : snapshots) {
      // A snapshot reflects exactly the injections activated strictly
      // before its capture time (an injection at the capture time itself
      // first acts in the iteration after the capture); one with none
      // activated is root coverage, not tree state.
      FaultPlan activated;
      for (const auto& e : plan.events) {
        if (e.time_ms < state.time_ms) activated.events.push_back(e);
      }
      if (activated.events.empty()) continue;
      activated.normalize();
      auto snap = std::make_shared<TreeSnapshot>();
      snap->depth = static_cast<int>(activated.events.size());
      snap->state = std::move(state);
      snap->recording = recording;
      entry.bytes += snap->state.approx_bytes();
      auto& bucket = tree_[activated.signature()];
      // Captures arrive in time order, so this is an append in practice;
      // the insert keeps the bucket ascending for hand-built merges too.
      const auto pos = std::upper_bound(
          bucket.begin(), bucket.end(), snap->state.time_ms,
          [](sim::SimTimeMs t, const std::shared_ptr<const TreeSnapshot>& s) {
            return t < s->state.time_ms;
          });
      entry.snaps.emplace_back(activated.signature(), *bucket.insert(pos, std::move(snap)));
    }
    if (entry.snaps.empty()) return;
    tree_bytes_ += entry.bytes;
    tree_fifo_.push_back(std::move(entry));
    // Shared byte budget, tree side only: evict whole recordings oldest
    // first until root + tree fit. The fault-free root is never evicted to
    // make room for faulty descendants — with a budget smaller than the
    // root alone, the tree simply stays empty.
    while (config_.byte_budget > 0 && total_bytes_ + tree_bytes_ > config_.byte_budget &&
           !tree_fifo_.empty()) {
      p_evict_oldest_recording();
    }
  }

  // Forget every tree recording (root snapshots stay). The checker calls
  // this at the start of each campaign so a store reused across strategies
  // gives every campaign the same (empty) starting tree — hit counters are
  // then a per-campaign quantity, not a function of run order.
  void clear_tree() {
    tree_.clear();
    tree_fifo_.clear();
    tree_plans_.clear();
    tree_bytes_ = 0;
    tree_evicted_ = 0;
  }

 private:
  struct TreeEntry {
    std::string plan_signature;
    std::vector<std::pair<std::string, std::shared_ptr<const TreeSnapshot>>> snaps;
    std::size_t bytes = 0;
  };

  static std::string p_prefix_signature(const FaultPlan& plan, sim::SimTimeMs cutoff) {
    FaultPlan prefix;
    for (const auto& e : plan.events) {
      if (e.time_ms <= cutoff) prefix.events.push_back(e);
    }
    prefix.normalize();
    return prefix.signature();
  }

  void p_evict_oldest_recording() {
    TreeEntry entry = std::move(tree_fifo_.front());
    tree_fifo_.pop_front();
    for (const auto& [key, snap] : entry.snaps) {
      const auto bucket_it = tree_.find(key);
      if (bucket_it == tree_.end()) continue;
      auto& bucket = bucket_it->second;
      const auto pos = std::find(bucket.begin(), bucket.end(), snap);
      if (pos != bucket.end()) bucket.erase(pos);
      if (bucket.empty()) tree_.erase(bucket_it);
      ++tree_evicted_;
    }
    tree_bytes_ -= entry.bytes;
    // The plan signature stays in tree_plans_: the run already happened and
    // re-merging it is impossible within a campaign (the strategies never
    // repeat a plan), so un-blocking it would only mask a caller bug.
  }

  CheckpointConfig config_;
  std::vector<ExperimentSnapshot> snapshots_;  // ascending time_ms
  std::vector<StateSample> prefix_trace_;
  std::vector<ModeTransition> prefix_transitions_;
  int evicted_ = 0;
  std::size_t total_bytes_ = 0;

  // The checkpoint tree: snapshot buckets keyed by activated-injection
  // signature (each ascending by time), the FIFO eviction ledger, and the
  // merged-plan dedup set.
  std::unordered_map<std::string, std::vector<std::shared_ptr<const TreeSnapshot>>> tree_;
  std::deque<TreeEntry> tree_fifo_;
  std::unordered_set<std::string> tree_plans_;
  std::size_t tree_bytes_ = 0;
  int tree_evicted_ = 0;

  // Prefix-run identity (require_matches).
  std::uint64_t seed_ = 0;
  sim::SimTimeMs max_duration_ms_ = 0;
  bool stop_on_violation_ = true;
  fw::Personality personality_ = fw::Personality::kArduPilotLike;
  bool monitored_ = false;
};

}  // namespace avis::core
