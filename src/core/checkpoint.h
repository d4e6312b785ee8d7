// Checkpointed prefix forking: one snapshot store for the fault-free root
// and the checkpoint tree.
//
// Every experiment in a checker campaign shares its spec with every other
// experiment except for the fault plan, and `ScheduledDirector` makes a run
// plan-independent strictly before the plan's earliest activation time. So
// the store holds complete world-state snapshots of recorded runs, keyed by
// the exact signature of the injections activated strictly before each
// capture time, and every experiment restores the deepest snapshot whose
// signature matches a prefix of its own plan and whose time is at or before
// its next un-replayed injection, splices that recording's trace/transition
// prefix into its result, and simulates only the suffix.
//
// The empty signature ("") is the fault-free root: snapshots of the
// scenario's fault-free run on a fixed cadence plus at the golden mode
// transitions. It is built from a run that was simulated anyway — the
// checker's golden profiling run (same seed, same spec, no plan) captures
// the cadence snapshots while it runs. That run is unmonitored, so the
// store replays its trace through a MonitorSession afterwards to fill each
// snapshot's monitor capsule and to cut the root where a monitored prefix
// run would have stopped (install_root); snapshots at the golden transition
// times off the cadence grid come from short re-simulations out of the
// preceding cadence snapshot (SimulationHarness::root_from_run).
//
// Every other signature is the checkpoint tree: directed runs the strategy
// may later extend into chains ({A@t0} -> {A@t0, B@t1}) are themselves
// recorded (merge_run), and a chain restores its deepest recorded ancestor,
// falling back to the root at level 0. The contract is strict parity
// either way: a restored-and-resumed run is bit-identical (trace,
// transitions, outcome, unsafe records) to the same spec simulated from
// scratch (docs/PERFORMANCE.md has the full argument; tests/test_checkpoint.cc
// and tests/test_checkpoint_tree.cc are the tripwires).
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

// Snapshot cadence in simulated milliseconds. Finer cadence means less
// suffix to re-simulate per experiment but more capture cost and memory;
// 1000 ms measured best on SABRE campaigns (the offset crawls inject a few
// hundred ms around each transition, so a 5000 ms grid strands them).
inline constexpr sim::SimTimeMs kCheckpointIntervalMs = 1000;

struct CheckpointConfig {
  // Prefix forking from the fault-free root and from checkpoint trees of
  // recorded faulty runs. Wall-clock only: reports are identical on or off
  // modulo the checkpoint counters (the CLI's --no-checkpoints A/B).
  bool enabled = true;
  // Upper bound on retained bytes (approximate, deterministic): every
  // snapshot, plus the trace and transitions of each tree recording. Over
  // budget, whole recordings are evicted oldest first, the fault-free root
  // last — it accelerates every experiment, a tree recording only its own
  // chain's children — so the root goes only when it alone exceeds the
  // budget, and its runs then start cold. 0 means unbounded.
  std::size_t byte_budget = 64ull * 1024 * 1024;
};

// SimulationHarness's loop bookkeeping: when the workload and the monitor
// sample are next due, when the workload finished (-1: still running) and
// how, and whether the firmware has aborted.
struct LoopState {
  sim::SimTimeMs next_workload_ms = 0;
  sim::SimTimeMs next_sample_ms = 0;
  sim::SimTimeMs workload_done_at = -1;
  bool workload_passed = false;
  bool firmware_dead = false;
};

// Complete world state at the top of one harness loop iteration: every
// stateful layer of Fig. 7 plus the harness's own loop bookkeeping, each
// layer's run state whole. The recorded run's sampled trace and mode
// transitions are shared by all of its snapshots (each snapshot stores only
// its prefix lengths), so a snapshot costs kilobytes, not the O(run-length)
// trace.
struct ExperimentSnapshot {
  sim::SimTimeMs time_ms = 0;  // loop iteration this snapshot resumes at

  sim::Simulator::State simulator;
  sensors::SuiteSnapshot suite;
  fw::Firmware::Snapshot firmware;
  mavlink::Channel::Snapshot channel;
  workload::Workload::State workload;
  workload::GcsContext::Snapshot gcs;
  MonitorSession::Snapshot monitor;  // meaningful only for monitored prefixes

  // RecordingDirector splice state: how much of the recording's transition
  // list had been recorded, and the latched heartbeat/mode.
  std::size_t transitions_len = 0;
  std::uint16_t current_mode = 0;
  sim::SimTimeMs last_heartbeat_ms = 0;

  LoopState loop;
  std::size_t trace_len = 0;  // samples already in the recording's trace
  std::optional<Violation> violation;  // non-empty only without stop_on_violation

  // Deterministic size estimate for the store's byte budget: the struct
  // itself plus the dynamically sized payloads worth counting.
  std::size_t approx_bytes() const {
    std::size_t bytes = sizeof(ExperimentSnapshot);
    bytes += (firmware.own.mission.size() * 2) * sizeof(mavlink::MissionItem);
    bytes += firmware.own.fired_bugs.capacity() * sizeof(fw::BugId);
    for (const auto& frame : channel.to_vehicle) bytes += frame.size() + sizeof(frame);
    for (const auto& frame : channel.to_gcs) bytes += frame.size() + sizeof(frame);
    bytes += gcs.uploader.items.size() * sizeof(mavlink::MissionItem);
    for (const auto& text : gcs.own.status_texts) bytes += text.size() + sizeof(text);
    const std::size_t per_instance = sizeof(sensors::Gps::State);
    bytes += (suite.gyros.size() + suite.accels.size() + suite.baros.size() +
              suite.gpses.size() + suite.compasses.size() + suite.batteries.size()) *
             per_instance;
    return bytes;
  }
};

// The trace and transitions of one recorded run, shared by its snapshots:
// the fault-free root's (cut where the monitored prefix run stops), or a
// directed run's full from-t=0 record — a run restored from an ancestor
// already contains the spliced prefix, and descendants splice from here.
struct TreeRecording {
  std::vector<StateSample> trace;
  std::vector<ModeTransition> transitions;
};

// One stored snapshot. `depth` is the number of plan events activated
// strictly before the capture time (the events baked into `state`; 0 for
// the fault-free root); the snapshot is filed under the exact FaultPlan
// signature of that activated set.
struct TreeSnapshot {
  ExperimentSnapshot state;
  std::shared_ptr<const TreeRecording> recording;
  int depth = 0;
};

// A resolved restore point: the snapshot plus the trace/transition prefix
// to splice into the resumed run's result. `keepalive` pins a stored
// snapshot — and the recording its pointers reach into — across store
// eviction for as long as the resume is in flight (root re-simulations
// resume from unstored snapshots and leave it empty). Default-constructed
// means cold start.
struct CheckpointResume {
  const ExperimentSnapshot* snapshot = nullptr;
  const std::vector<StateSample>* trace = nullptr;
  const std::vector<ModeTransition>* transitions = nullptr;
  std::shared_ptr<const TreeSnapshot> keepalive;
  int depth = 0;  // 0 = fault-free root

  explicit operator bool() const { return snapshot != nullptr; }
};

// What the invariant monitor is fed alongside one trace sample
// (MonitorSession::on_sample's flags), plus how many mode transitions the
// run had recorded by the end of that sample's iteration. An unmonitored
// fault-free run keeps one per sample, which is all it takes to replay the
// monitored prefix run's session and to find where that run would stop.
struct SampleFlags {
  bool crashed = false;
  sim::CrashCause crash_cause = sim::CrashCause::kNone;
  bool firmware_dead = false;
  bool workload_failed = false;
  std::size_t transitions_len = 0;
};

// Capture sink for SimulationHarness::p_run: a snapshot at each of `times`
// the run reaches. A root capture — a fault-free run, so `first_injection`
// stays kNever — also keeps every sample's flags for install_root's monitor
// replay, and a re-simulation to extra root times sets `stop_after_last` to
// end the run at its last snapshot. A tree capture records a directed run
// until the transition-horizon stop rule sets `done`. The filled snapshots
// are filed into a store afterwards (install_root, merge_run), never during
// the run, so experiments on other threads can keep reading the store.
struct SnapshotCapture {
  std::vector<sim::SimTimeMs> times;  // ascending, deduplicated
  sim::SimTimeMs first_injection = FaultPlan::kNever;
  bool stop_after_last = false;
  bool done = false;
  std::vector<ExperimentSnapshot> snapshots;
  std::vector<SampleFlags> samples;  // root captures only

  bool root() const { return first_injection == FaultPlan::kNever; }
};

// The cadence grid of a fault-free run capped at `max_duration_ms`. Time 0
// is excluded: a snapshot there is just a cold start.
inline SnapshotCapture plan_root_capture(sim::SimTimeMs max_duration_ms) {
  SnapshotCapture capture;
  for (sim::SimTimeMs t = kCheckpointIntervalMs; t < max_duration_ms;
       t += kCheckpointIntervalMs) {
    capture.times.push_back(t);
  }
  return capture;
}

// A run whose post-injection transitions never arrive would otherwise keep
// assembling snapshots on the cadence grid all the way to max_duration —
// pure waste, since such a run has no extension points and spawns no
// children. Cap the cadence grid per recording: chains extend at the first
// couple of post-injection transitions, which in practice land within a few
// intervals of the injection, so a bounded grid loses nothing real (a child
// past the cap still restores the root and stays bit-identical).
inline constexpr std::size_t kTreeCaptureGridCap = 32;
// Tree recording stop rule: once this many mode transitions after the
// run's first injection have been observed, recording stops. SABRE's
// augmented frontier schedules every child chain at one of the first two
// post-injection transition timestamps, so later snapshots could never be
// restored by any plan the strategy can still produce.
inline constexpr int kTreeTransitionHorizon = 2;

// One scenario's snapshot store: signature-keyed buckets of snapshots, the
// fault-free root under "" (built once by install_root) and the checkpoint
// tree under every other signature (merge_run). Shared read-only across
// pool workers during a dispatch wave; all mutation (merge_run,
// clear_tree) happens on the checker's caller thread strictly between
// waves, so no synchronization is needed.
class CheckpointStore {
 public:
  CheckpointStore() = default;
  explicit CheckpointStore(CheckpointConfig config) : config_(config) {}

  const CheckpointConfig& config() const { return config_; }

  // Observability: snapshots held (all buckets, and the root's alone),
  // recordings held (the root counts as one), snapshots evicted to fit the
  // byte budget, and retained bytes.
  std::size_t size() const {
    std::size_t count = 0;
    for (const auto& [key, bucket] : buckets_) count += bucket.size();
    return count;
  }
  std::size_t root_size() const {
    const auto root = buckets_.find("");
    return root != buckets_.end() ? root->second.size() : 0;
  }
  std::size_t recordings() const { return recordings_.size(); }
  int evicted() const { return evicted_; }
  std::size_t bytes() const { return bytes_; }

  // True when resolve() can return anything at all.
  bool has_restore_points() const { return !buckets_.empty(); }

  // The golden run's mode-transition times the root was captured at: the
  // search strategies concentrate their injections there, so tree captures
  // take exact snapshots at them too (plan_tree_capture).
  const std::vector<sim::SimTimeMs>& capture_at() const { return capture_at_; }

  // The root is one spec with its plan cleared; a store only
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

  // Deepest usable restore point for `plan`. Level L of a plan with
  // distinct activation times t_1 < ... < t_n is the bucket keyed by the
  // exact signature of its events at or before t_L — level 0 is the root's
  // "" — and it is bounded by t_{L+1}, or by kNever for an empty plan. State
  // at the top of iteration t is plan-independent past level L iff the next
  // activation is at >= t, so the latest snapshot at-or-before the bound
  // resumes the run bit-identically. A deeper level's snapshots all postdate
  // a shallower level's usable window, so walking deepest first, the first
  // level with a usable snapshot is the global optimum. Buckets are kept
  // ascending by time, so each level is a binary search. Cold start when no
  // level has one.
  CheckpointResume resolve(const FaultPlan& plan) const {
    std::vector<sim::SimTimeMs> bounds;
    bounds.reserve(plan.events.size() + 1);
    for (const auto& e : plan.events) bounds.push_back(e.time_ms);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    if (bounds.empty()) bounds.push_back(FaultPlan::kNever);
    for (std::size_t level = bounds.size(); level-- > 0;) {
      const auto bucket_it =
          buckets_.find(level == 0 ? std::string() : p_prefix_signature(plan, bounds[level - 1]));
      if (bucket_it == buckets_.end()) continue;
      const auto& bucket = bucket_it->second;
      const auto past = std::upper_bound(
          bucket.begin(), bucket.end(), bounds[level],
          [](sim::SimTimeMs t, const std::shared_ptr<const TreeSnapshot>& snap) {
            return t < snap->state.time_ms;
          });
      if (past == bucket.begin()) continue;
      const std::shared_ptr<const TreeSnapshot>& snap = *(past - 1);
      return {&snap->state, &snap->recording->trace, &snap->recording->transitions, snap,
              snap->depth};
    }
    return {};
  }

  // --- Root recording interface --------------------------------------------
  // Builds the root for `spec` (plan cleared) from an *unmonitored*
  // fault-free run of it: `snapshots` were captured from that run, in
  // ascending time order, and `samples` holds the flags of every sample of
  // `run.trace`. With a `model`, the store must read exactly as if the
  // prefix had run under that model: the run's trace is replayed through a
  // MonitorSession fed the recorded flags, each snapshot's monitor capsule
  // is the session at its capture time (every sample taken before it), and
  // when the replay reports a violation under stop_on_violation, the root
  // keeps only what the monitored run records before it stops — snapshots
  // up to the violating sample's iteration, the trace through that sample,
  // and the transitions recorded by then. The model's golden transition
  // times become capture_at(). Replaces the whole store.
  void install_root(const ExperimentSpec& spec, const MonitorModel* model,
                    std::vector<ExperimentSnapshot> snapshots, const ExperimentResult& run,
                    const std::vector<SampleFlags>& samples) {
    *this = CheckpointStore(config_);
    seed_ = spec.seed;
    max_duration_ms_ = spec.max_duration_ms;
    stop_on_violation_ = spec.stop_on_violation;
    personality_ = spec.personality;
    monitored_ = model != nullptr;
    std::size_t trace_len = run.trace.size();
    std::size_t transitions_len = run.transitions.size();
    if (model != nullptr) {
      for (const ModeTransition& t : model->golden_transitions()) capture_at_.push_back(t.time_ms);
      util::expects(samples.size() == run.trace.size(),
                    "root replay needs the flags of every sample");
      MonitorSession session(*model);
      std::optional<Violation> first;
      std::size_t next = 0;
      bool stopped = false;
      // Feeds the next sample; true once the monitored run would stop.
      const auto feed = [&] {
        const SampleFlags& flags = samples[next];
        const auto violation = session.on_sample(run.trace[next], flags.crashed,
                                                 flags.crash_cause, flags.firmware_dead,
                                                 flags.workload_failed);
        ++next;
        if (violation && !first) first = violation;
        return first.has_value() && spec.stop_on_violation;
      };
      std::size_t kept = 0;
      for (; kept < snapshots.size(); ++kept) {
        ExperimentSnapshot& snap = snapshots[kept];
        while (!stopped && next < run.trace.size() && run.trace[next].time_ms < snap.time_ms) {
          stopped = feed();
        }
        if (stopped) break;  // the monitored run stopped before this capture
        snap.monitor = session.save();
        snap.violation = first;
      }
      snapshots.erase(snapshots.begin() + static_cast<std::ptrdiff_t>(kept), snapshots.end());
      while (!stopped && next < run.trace.size()) stopped = feed();
      if (stopped) {
        trace_len = next;
        transitions_len = samples[next - 1].transitions_len;
      }
    }
    auto recording = std::make_shared<TreeRecording>();
    recording->trace.assign(run.trace.begin(),
                            run.trace.begin() + static_cast<std::ptrdiff_t>(trace_len));
    recording->transitions.assign(
        run.transitions.begin(),
        run.transitions.begin() + static_cast<std::ptrdiff_t>(transitions_len));
    // The root's trace is not charged to the budget: it is one fault-free
    // run, and the root is the last recording eviction would take anyway.
    p_file(FaultPlan{}, std::move(snapshots), std::move(recording), 0);
    root_evicted_ = evicted_;
  }

  // --- Tree recording interface (checker apply loop) -----------------------
  // Files one finished directed run into the tree, deduplicated by full
  // plan signature (re-running a plan re-derives identical snapshots).
  // Callers merge only between dispatch waves — never while an engine may
  // be resolving — and only bug-free runs: an unsafe parent gets no
  // children, so its snapshots could never be restored.
  void merge_run(const FaultPlan& plan, std::vector<ExperimentSnapshot> snapshots,
                 std::vector<StateSample> trace, std::vector<ModeTransition> transitions) {
    if (plan.events.empty() || snapshots.empty()) return;
    if (!tree_plans_.insert(plan.signature()).second) return;
    auto recording = std::make_shared<TreeRecording>();
    recording->trace = std::move(trace);
    recording->transitions = std::move(transitions);
    std::size_t bytes = recording->trace.capacity() * sizeof(StateSample);
    for (const auto& t : recording->transitions) bytes += sizeof(t) + t.mode_name.size();
    p_file(plan, std::move(snapshots), std::move(recording), bytes);
  }

  // Forget every tree recording; the root ("" bucket) stays. The checker
  // calls this at the start of each campaign so a store reused across
  // strategies gives every campaign the same (empty) starting tree — hit
  // counters are then a per-campaign quantity, not a function of run order.
  // The eviction counter goes back to the root's own install-time
  // evictions, what a freshly built store reports.
  void clear_tree() {
    std::erase_if(buckets_, [](const auto& bucket) { return !bucket.first.empty(); });
    std::erase_if(recordings_, [](const Entry& entry) { return !entry.root(); });
    tree_plans_.clear();
    bytes_ = recordings_.empty() ? 0 : recordings_.front().bytes;
    evicted_ = root_evicted_;
  }

 private:
  // One filed recording: its snapshots (with their bucket keys) and the
  // bytes charged for it — the eviction unit.
  struct Entry {
    std::vector<std::pair<std::string, std::shared_ptr<const TreeSnapshot>>> snaps;
    std::size_t bytes = 0;
    bool root() const { return snaps.front().first.empty(); }
  };

  static std::string p_prefix_signature(const FaultPlan& plan, sim::SimTimeMs cutoff) {
    FaultPlan prefix;
    for (const auto& e : plan.events) {
      if (e.time_ms <= cutoff) prefix.events.push_back(e);
    }
    prefix.normalize();
    return prefix.signature();
  }

  // The one filing path: each snapshot of a run of `plan` goes into the
  // bucket of the events activated strictly before its capture time (an
  // injection at the capture time itself first acts in the iteration after
  // the capture), all sharing `recording`, which is charged `bytes` on top
  // of its snapshots. A directed run's snapshot with nothing activated yet
  // is root coverage, not tree state, and is dropped. Then the byte budget
  // evicts whole recordings oldest first, the root (always the front entry
  // while it lives) only once no tree recording is left.
  void p_file(const FaultPlan& plan, std::vector<ExperimentSnapshot> snapshots,
              std::shared_ptr<const TreeRecording> recording, std::size_t bytes) {
    Entry entry;
    entry.bytes = bytes;
    for (ExperimentSnapshot& state : snapshots) {
      FaultPlan activated;
      for (const auto& e : plan.events) {
        if (e.time_ms < state.time_ms) activated.events.push_back(e);
      }
      if (activated.events.empty() && !plan.events.empty()) continue;
      activated.normalize();
      auto snap = std::make_shared<TreeSnapshot>();
      snap->depth = static_cast<int>(activated.events.size());
      snap->state = std::move(state);
      snap->recording = recording;
      entry.bytes += snap->state.approx_bytes();
      std::string key = activated.signature();
      auto& bucket = buckets_[key];
      // Captures arrive in time order, so this is an append in practice;
      // the insert keeps the bucket ascending for hand-built merges too.
      const auto pos = std::upper_bound(
          bucket.begin(), bucket.end(), snap->state.time_ms,
          [](sim::SimTimeMs t, const std::shared_ptr<const TreeSnapshot>& s) {
            return t < s->state.time_ms;
          });
      entry.snaps.emplace_back(std::move(key), *bucket.insert(pos, std::move(snap)));
    }
    if (entry.snaps.empty()) return;
    bytes_ += entry.bytes;
    recordings_.push_back(std::move(entry));
    while (config_.byte_budget > 0 && bytes_ > config_.byte_budget && !recordings_.empty()) {
      const bool spare_root = recordings_.front().root() && recordings_.size() > 1;
      p_evict(recordings_.begin() + (spare_root ? 1 : 0));
    }
  }

  void p_evict(std::deque<Entry>::iterator victim) {
    for (const auto& [key, snap] : victim->snaps) {
      const auto bucket_it = buckets_.find(key);
      auto& bucket = bucket_it->second;
      bucket.erase(std::find(bucket.begin(), bucket.end(), snap));
      if (bucket.empty()) buckets_.erase(bucket_it);
      ++evicted_;
    }
    bytes_ -= victim->bytes;
    recordings_.erase(victim);
    // An evicted plan's signature stays in tree_plans_: the run already
    // happened and re-merging it is impossible within a campaign (the
    // strategies never repeat a plan), so un-blocking it would only mask a
    // caller bug.
  }

  CheckpointConfig config_;
  // Snapshot buckets keyed by activated-injection signature, each
  // ascending by time ("" = the root); the recordings in filing order (the
  // eviction ledger); the merged-plan dedup set.
  std::unordered_map<std::string, std::vector<std::shared_ptr<const TreeSnapshot>>> buckets_;
  std::deque<Entry> recordings_;
  std::unordered_set<std::string> tree_plans_;
  std::size_t bytes_ = 0;
  int evicted_ = 0;
  int root_evicted_ = 0;  // evicted_ right after install_root
  std::vector<sim::SimTimeMs> capture_at_;

  // Prefix-run identity (require_matches).
  std::uint64_t seed_ = 0;
  sim::SimTimeMs max_duration_ms_ = 0;
  bool stop_on_violation_ = true;
  fw::Personality personality_ = fw::Personality::kArduPilotLike;
  bool monitored_ = false;
};

// The tree capture schedule for one directed run: the store's cadence grid
// restricted to times after the first injection (bounded by
// kTreeCaptureGridCap), the plan's own later activation times (a
// multi-event run's state changes exactly there), and the store's exact
// extra times (golden transition timestamps). Children inject at the
// parent run's observed post-injection transitions, so the cadence grid
// bounds their re-simulated prefix to one interval.
inline SnapshotCapture plan_tree_capture(const ExperimentSpec& spec,
                                         const CheckpointStore& store) {
  SnapshotCapture capture;
  capture.first_injection = spec.plan.first_injection_ms();
  const sim::SimTimeMs s1 = capture.first_injection;
  for (sim::SimTimeMs t = (s1 / kCheckpointIntervalMs + 1) * kCheckpointIntervalMs;
       t < spec.max_duration_ms && capture.times.size() < kTreeCaptureGridCap;
       t += kCheckpointIntervalMs) {
    capture.times.push_back(t);
  }
  for (const auto& e : spec.plan.events) {
    if (e.time_ms > s1 && e.time_ms < spec.max_duration_ms) capture.times.push_back(e.time_ms);
  }
  for (sim::SimTimeMs t : store.capture_at()) {
    if (t > s1 && t < spec.max_duration_ms) capture.times.push_back(t);
  }
  std::sort(capture.times.begin(), capture.times.end());
  capture.times.erase(std::unique(capture.times.begin(), capture.times.end()),
                      capture.times.end());
  return capture;
}

}  // namespace avis::core
