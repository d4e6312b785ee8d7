// Workload framework (paper §V-A, Fig. 8).
//
// A workload is a sequence of steps; each step has an on-entry action and a
// completion predicate, mirroring the paper's Python framework where
// `takeoff()`/`wait_altitude()` calls yield control back to Avis via the
// step() RPC. Steps never block: the harness pumps the workload once per
// simulation step and the workload advances when the current predicate
// holds. A per-step timeout marks the run failed rather than hanging the
// checker (the deadlock hazard §V-A describes).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fw/modes.h"
#include "workload/context.h"

namespace avis::workload {

enum class WorkloadStatus { kRunning, kPassed, kFailed };

class Script {
 public:
  struct Step {
    std::string name;
    std::function<void(GcsContext&)> on_entry;
    std::function<bool(GcsContext&)> done;
    // Elapsed-time variant: receives milliseconds since the step was
    // entered. Time-based steps use this instead of capturing a mutable
    // start timestamp in `done` — step lambdas must be stateless so a
    // workload's progress is fully described by the base-class fields
    // (Workload::State), which is what lets checkpointed prefix forking
    // restore a mid-flight workload into a factory-fresh instance.
    std::function<bool(GcsContext&, sim::SimTimeMs)> done_since;
    sim::SimTimeMs timeout_ms = 60000;
  };

  void add(std::string name, std::function<void(GcsContext&)> on_entry,
           std::function<bool(GcsContext&)> done, sim::SimTimeMs timeout_ms = 60000) {
    steps_.push_back({std::move(name), std::move(on_entry), std::move(done), {}, timeout_ms});
  }

  // A step whose completion depends on time since entry; `done_since` gets
  // the elapsed milliseconds alongside the context.
  void add_timed(std::string name, std::function<void(GcsContext&)> on_entry,
                 std::function<bool(GcsContext&, sim::SimTimeMs)> done_since,
                 sim::SimTimeMs timeout_ms = 60000) {
    steps_.push_back({std::move(name), std::move(on_entry), {}, std::move(done_since),
                      timeout_ms});
  }

  // Fig. 8 style helpers ----------------------------------------------------
  void wait_time(sim::SimTimeMs ms) {
    add_timed("wait_time", [](GcsContext&) {},
              [ms](GcsContext&, sim::SimTimeMs elapsed) { return elapsed >= ms; });
  }

  void upload_mission(std::vector<mavlink::MissionItem> items) {
    add("upload_mission",
        [items = std::move(items)](GcsContext& ctx) { ctx.upload_mission(items); },
        [](GcsContext& ctx) { return ctx.mission_uploaded(); }, 10000);
  }

  void arm_system_completely() {
    add("arm", [](GcsContext& ctx) { ctx.arm(); },
        [](GcsContext& ctx) { return ctx.armed(); }, 5000);
  }

  void enter_mode(fw::Mode mode) {
    add(std::string("enter_") + fw::canonical_name(mode),
        [mode](GcsContext& ctx) { ctx.set_mode(fw::composite_mode_id(mode)); },
        [](GcsContext&) { return true; });
  }

  void enter_auto_mode() { enter_mode(fw::Mode::kAuto); }

  void wait_altitude_at_least(double alt_m, sim::SimTimeMs timeout_ms = 60000) {
    add("wait_altitude>=", [](GcsContext&) {},
        [alt_m](GcsContext& ctx) { return ctx.altitude() >= alt_m; }, timeout_ms);
  }

  void wait_altitude_at_most(double alt_m, sim::SimTimeMs timeout_ms = 60000) {
    add("wait_altitude<=", [](GcsContext&) {},
        [alt_m](GcsContext& ctx) { return ctx.altitude() <= alt_m; }, timeout_ms);
  }

  void wait_disarm(sim::SimTimeMs timeout_ms = 60000) {
    add("wait_disarm", [](GcsContext&) {},
        [](GcsContext& ctx) { return !ctx.armed(); }, timeout_ms);
  }

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

// Base class: concrete workloads build their Script in the constructor.
class Workload {
 public:
  virtual ~Workload() = default;

  // Advance the workload one harness tick. Steps whose completion predicate
  // already holds are chained within the tick (like the sequential calls in
  // the paper's Fig. 8 script); the tick ends at the first unfinished step.
  WorkloadStatus step(GcsContext& ctx) {
    const auto& steps = script_.steps();
    while (run_.status == WorkloadStatus::kRunning) {
      if (run_.index >= steps.size()) {
        run_.status = WorkloadStatus::kPassed;
        break;
      }
      const auto& step = steps[run_.index];
      if (!run_.entered) {
        step.on_entry(ctx);
        run_.entered = true;
        run_.entered_at = ctx.now_ms();
      }
      const bool done = step.done_since ? step.done_since(ctx, ctx.now_ms() - run_.entered_at)
                                        : step.done(ctx);
      if (done) {
        ++run_.index;
        run_.entered = false;
        continue;
      }
      if (ctx.now_ms() - run_.entered_at > step.timeout_ms) {
        run_.status = WorkloadStatus::kFailed;
        run_.failed_step = step.name;
      }
      break;
    }
    return run_.status;
  }

  WorkloadStatus status() const { return run_.status; }
  const std::string& failed_step() const { return run_.failed_step; }
  const std::string& name() const { return name_; }
  std::size_t current_step() const { return run_.index; }

  // Everything a run changes, and so an experiment checkpoint's workload
  // part. Because step lambdas are stateless by contract (time-based steps
  // go through Script::add_timed), this is the workload's complete mutable
  // state: loading it into a factory-fresh instance of the same workload
  // resumes it exactly where the prefix run left off.
  struct State {
    std::size_t index = 0;
    bool entered = false;
    sim::SimTimeMs entered_at = 0;
    WorkloadStatus status = WorkloadStatus::kRunning;
    std::string failed_step;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

 protected:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  Script script_;

 private:
  std::string name_;
  State run_;
};

}  // namespace avis::workload
