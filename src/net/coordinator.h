// Distributed campaign coordinator (docs/DISTRIBUTED.md).
//
// Expands a ScenarioGrid into cells and shards them across worker processes
// connected over TCP, one in-flight cell per worker, merging per-cell
// reports in deterministic grid order into a CampaignResult whose JSON is
// byte-identical (modulo wall-clock and provenance fields) to a
// single-process CampaignRunner::run of the same grid — cells are pure
// functions of their spec, so re-running one on a different host is safe.
//
// Robustness is the contract, not an afterthought:
//   - liveness: workers heartbeat; silence past the miss threshold (or a
//     closed socket) marks the worker dead and requeues its in-flight cell;
//   - deadlines: every assignment carries a wall-clock deadline derived
//     from the cell's simulated budget; a worker that blows it is treated
//     as hung, disconnected, and its cell reassigned;
//   - retry/backoff: reassignment waits out a capped exponential backoff,
//     and a cell that fails max_attempts assignments aborts the campaign
//     with CampaignAborted naming the cell (a poisoned cell must fail
//     loudly, not loop forever);
//   - re-registration: a worker that reconnects is simply a new worker;
//   - degraded mode: if every worker dies (or none ever connects), the
//     coordinator finishes the remaining cells in-process, so the campaign
//     always completes with a full report.
// Per-cell attempts / reassigned_from / completed_by provenance lands in
// the report JSON (core::CampaignCellResult).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "net/chaos.h"
#include "net/socket.h"

namespace avis::net {

// A cell exhausted its assignment attempts; the campaign cannot produce a
// complete report and fails loudly instead of retrying forever.
//
// Deliberately NOT a NetError: the abort can be thrown from inside the
// coordinator's frame-handling path (a live worker's failed CellReport hits
// the retry cap), and the event loop converts NetError into "this worker is
// dead" — an abort caught there would tear down the fleet and then spin on
// a cell that can never complete.
class CampaignAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CoordinatorOptions {
  std::uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  // The protocol is unauthenticated, so exposure is an explicit choice:
  // loopback by default; "0.0.0.0" (--bind) opens the trusted-network
  // multi-host mode described in docs/DISTRIBUTED.md "Trust model".
  std::string bind_address = "127.0.0.1";

  // Liveness: workers send Heartbeat every heartbeat_interval_ms; a worker
  // silent for interval * miss_threshold is dead. The interval is also
  // handed to workers implicitly (both ends default it); the threshold is
  // generous because a worker's heartbeat thread shares the socket with
  // multi-kilobyte report sends.
  int heartbeat_interval_ms = 250;
  int heartbeat_miss_threshold = 8;

  // Scheduling robustness.
  int max_attempts = 3;        // assignment attempts per cell before aborting
  int backoff_initial_ms = 250;  // reassignment backoff, doubled per attempt
  int backoff_cap_ms = 5000;
  // Wall-clock deadline per assignment. 0 derives it from the cell's
  // simulated budget: max(30 s, budget_ms / 10) — simulation runs much
  // faster than real time, so a worker that has not finished a cell within
  // a tenth of its simulated budget is hung, not slow.
  std::int64_t cell_deadline_ms = 0;

  // Degraded completion: with no live worker for degraded_after_ms (and
  // none mid-handshake), remaining cells run in-process so the campaign
  // still completes. Disable to fail fast instead (tests use this to pin
  // the retry-cap path).
  bool allow_degraded = true;
  int degraded_after_ms = 2000;

  // Experiment pool width and checkpoint config for degraded in-process
  // cells (remote workers choose their own; reports are bit-identical
  // either way).
  int experiment_workers = 0;  // 0 = util::default_worker_count()
  core::CheckpointConfig checkpoints;

  // Shared-secret auth (docs/DISTRIBUTED.md "Trust model"): a worker whose
  // Hello.auth does not match (constant-time compare) is refused at the
  // handshake. Empty (the default) matches only workers sending no token.
  std::string auth_token;

  // Crash safety (core/journal.h): with `journal` set, every completed cell
  // is appended + fsync'd on CellReport receipt — before the coordinator
  // acts on the completion. Cells listed in `resume` are pre-marked done
  // with their journaled reports and never assigned. Borrowed, not owned.
  core::CampaignJournal* journal = nullptr;
  const std::vector<core::JournalCellRecord>* resume = nullptr;

  // Cooperative interrupt (SIGINT/SIGTERM), polled once per event-loop
  // tick: stop assigning, shut the fleet down, return a partial result with
  // interrupted = true.
  std::function<bool()> should_stop;

  // Deterministic fault injection on every accepted connection's send path
  // (net/chaos.h; stream = accept ordinal). Coordinator-side outbound
  // chaos; workers take their own ChaosConfig for the other direction.
  ChaosConfig chaos;

  std::ostream* log = nullptr;  // progress/diagnostic lines; nullptr = quiet
};

class CampaignCoordinator {
 public:
  // Binds the listening socket immediately (so port() is valid before
  // run()), validates that every cell is a pure registry-named scenario —
  // cells pinning in-process factories cannot cross a process boundary.
  CampaignCoordinator(std::vector<core::CampaignCellSpec> grid, CoordinatorOptions options);

  std::uint16_t port() const { return listener_.port(); }

  // Blocks until every cell has a report (returning the merged result in
  // grid order) or a cell exhausts max_attempts (throwing CampaignAborted).
  // Call once.
  core::CampaignResult run();

 private:
  struct CellState;
  struct WorkerConn;

  CoordinatorOptions options_;
  std::vector<core::CampaignCellSpec> grid_;
  Listener listener_;
};

}  // namespace avis::net
