#include "net/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <variant>

#include "core/journal.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "util/checked.h"
#include "util/concurrency.h"

namespace avis::net {

namespace {

using Clock = std::chrono::steady_clock;

// Event-loop tick: the upper bound on how stale a liveness/deadline/backoff
// decision can be. Small against every timing parameter in the options.
constexpr int kTickMs = 20;

std::chrono::milliseconds p_ms(std::int64_t ms) { return std::chrono::milliseconds(ms); }

}  // namespace

// Scheduling state for one grid cell. attempts counts every assignment —
// remote or degraded in-process — so the retry cap bounds total work even
// when failures alternate between modes.
struct CampaignCoordinator::CellState {
  int attempts = 0;
  bool in_flight = false;  // currently assigned to some worker
  bool done = false;
  core::CheckerReport report;
  double wall_seconds = 0.0;
  std::string completed_by;
  std::vector<std::string> reassigned_from;
  std::string last_error;
  Clock::time_point not_before = Clock::time_point::min();  // backoff gate
};

// One TCP connection. A connection is anonymous until its Hello is
// accepted; a worker that reconnects is simply a new WorkerConn (the stale
// one dies through EOF or the liveness sweep, requeueing its cell).
struct CampaignCoordinator::WorkerConn {
  std::unique_ptr<FrameChannel> channel;
  std::string id;
  bool registered = false;
  bool dead = false;
  Clock::time_point last_seen;
  int assigned_cell = -1;
  Clock::time_point cell_deadline = Clock::time_point::max();
};

CampaignCoordinator::CampaignCoordinator(std::vector<core::CampaignCellSpec> grid,
                                         CoordinatorOptions options)
    : options_(options), grid_(std::move(grid)), listener_(options.port, options.bind_address) {
  util::expects(!grid_.empty(), "distributed campaign needs at least one cell");
  for (const auto& cell : grid_) {
    // In-process factory hooks (ablation strategies, re-inserted bug
    // populations) cannot cross a process boundary; the wire carries
    // registry names only.
    util::expects(!cell.make_strategy && !cell.bugs_override,
                  "distributed campaign cells must be registry-named scenarios");
    cell.scenario.validate();
  }
}

core::CampaignResult CampaignCoordinator::run() {
  util::expects(listener_.valid(), "CampaignCoordinator::run may only be called once");
  const auto start = Clock::now();
  std::vector<CellState> cells(grid_.size());
  std::vector<std::unique_ptr<WorkerConn>> workers;
  auto last_worker_seen = start;  // degraded-mode grace reference
  int peak_workers = 0;
  int anon_counter = 0;
  std::uint64_t chaos_stream = 0;  // accept ordinal; keys each conn's schedule
  bool interrupted = false;

  const auto log = [&](const std::string& line) {
    if (options_.log != nullptr) *options_.log << "[coordinator] " << line << std::endl;
  };

  // Resume: journaled cells are already done. Their reports merge at their
  // grid positions and the scheduler never assigns them.
  if (options_.resume != nullptr) {
    std::size_t merged = 0;
    for (const core::JournalCellRecord& record : *options_.resume) {
      if (record.index < 0 || static_cast<std::size_t>(record.index) >= cells.size()) continue;
      CellState& cell = cells[static_cast<std::size_t>(record.index)];
      if (cell.done) continue;
      cell.done = true;
      cell.report = record.report;
      cell.wall_seconds = record.wall_seconds;
      cell.attempts = record.attempts;
      cell.completed_by = record.completed_by;
      cell.reassigned_from = record.reassigned_from;
      ++merged;
    }
    log("resumed " + std::to_string(merged) + "/" + std::to_string(cells.size()) +
        " cells from journal");
  }

  // Write-ahead: append + fsync the completed cell before the coordinator
  // acts on the completion (marks it done, assigns the next cell). A
  // JournalError is deliberately not caught here — losing durability
  // mid-campaign must fail loudly, not degrade silently.
  const auto journal_cell = [&](std::size_t index, const CellState& cell,
                                const core::CheckerReport& report, double wall_seconds,
                                const std::string& completed_by) {
    if (options_.journal == nullptr) return;
    core::JournalCellRecord record;
    record.index = static_cast<int>(index);
    record.spec_hash = core::cell_identity_hash(grid_[index]);
    record.attempts = cell.attempts;
    record.completed_by = completed_by;
    record.reassigned_from = cell.reassigned_from;
    record.wall_seconds = wall_seconds;
    record.report = report;
    options_.journal->append(record);
  };

  const auto liveness_window =
      p_ms(static_cast<std::int64_t>(options_.heartbeat_interval_ms) *
           options_.heartbeat_miss_threshold);

  const int experiment_workers = options_.experiment_workers > 0
                                     ? options_.experiment_workers
                                     : util::default_worker_count();

  const auto deadline_ms_for = [&](std::size_t index) -> std::int64_t {
    if (options_.cell_deadline_ms > 0) return options_.cell_deadline_ms;
    // Simulation outpaces wall time by a wide margin, so a tenth of the
    // simulated budget is a generous wall allowance; the 30 s floor covers
    // calibration on tiny smoke budgets.
    return std::max<std::int64_t>(30000, grid_[index].scenario.budget_ms / 10);
  };

  const auto cell_name = [&](std::size_t index) {
    const core::ScenarioSpec& s = grid_[index].scenario;
    return "cell " + std::to_string(index) + " (" + s.approach + "/" + s.personality + "/" +
           s.workload + "/" + s.environment + ")";
  };

  // Abort: a poisoned cell must fail the whole campaign loudly. Best-effort
  // Shutdown to live workers, stop accepting, then throw.
  const auto abort_campaign = [&](std::size_t index) {
    for (auto& w : workers) {
      if (w->registered && !w->dead) {
        try {
          w->channel->send(encode(Message{Shutdown{"campaign aborted"}}));
        } catch (const NetError&) {
        }
      }
    }
    listener_.close();
    const CellState& cell = cells[index];
    throw CampaignAborted(cell_name(index) + " failed after " +
                          std::to_string(cell.attempts) + " attempts (max_attempts=" +
                          std::to_string(options_.max_attempts) + "); last error: " +
                          (cell.last_error.empty() ? "none recorded" : cell.last_error));
  };

  // Put an in-flight cell back on the queue after its worker failed it.
  const auto requeue = [&](std::size_t index, const std::string& from,
                           const std::string& why) {
    CellState& cell = cells[index];
    cell.in_flight = false;
    cell.reassigned_from.push_back(from);
    cell.last_error = why;
    log(cell_name(index) + " lost by " + from + " (" + why + "), attempt " +
        std::to_string(cell.attempts) + "/" + std::to_string(options_.max_attempts));
    if (cell.attempts >= options_.max_attempts) abort_campaign(index);
    // Capped exponential backoff keyed on how often the cell has failed:
    // back-to-back reassignment of a cell that just took a worker down with
    // it would burn the retry budget in milliseconds.
    std::int64_t backoff = options_.backoff_initial_ms;
    for (int i = 1; i < cell.attempts && backoff < options_.backoff_cap_ms; ++i) backoff *= 2;
    cell.not_before = Clock::now() + p_ms(std::min<std::int64_t>(backoff, options_.backoff_cap_ms));
  };

  const auto fail_worker = [&](WorkerConn& w, const std::string& why) {
    if (w.dead) return;
    w.dead = true;
    const std::string id = w.id.empty() ? "unregistered worker" : w.id;
    log(id + " dropped: " + why);
    if (w.assigned_cell >= 0) {
      const int index = w.assigned_cell;
      w.assigned_cell = -1;
      requeue(static_cast<std::size_t>(index), id, why);
    }
    w.channel->close();
  };

  const auto handle_frame = [&](WorkerConn& w, const std::string& payload) {
    Message message = decode(payload);  // ProtocolError propagates to fail_worker
    w.last_seen = Clock::now();
    if (const Hello* hello = std::get_if<Hello>(&message)) {
      if (hello->protocol != kProtocolVersion) {
        // Version skew: refuse to pair. The nack carries both versions so
        // whichever side is stale is obvious from either end's logs.
        HelloAck nack;
        nack.ok = false;
        nack.reason = "protocol version mismatch: coordinator speaks " +
                      std::to_string(kProtocolVersion) + " (" + kBuildVersion +
                      "), worker speaks " + std::to_string(hello->protocol) + " (" +
                      hello->build + ")";
        try {
          w.channel->send(encode(Message{nack}));
        } catch (const NetError&) {
        }
        log("refused worker '" + hello->worker_id + "': " + nack.reason);
        w.dead = true;
        w.channel->close();
        return;
      }
      if (!constant_time_equal(hello->auth, options_.auth_token)) {
        // The nack names the failure but never echoes either token.
        HelloAck nack;
        nack.ok = false;
        nack.reason = "auth token mismatch";
        try {
          w.channel->send(encode(Message{nack}));
        } catch (const NetError&) {
        }
        log("refused worker '" + hello->worker_id + "': " + nack.reason);
        w.dead = true;
        w.channel->close();
        return;
      }
      w.registered = true;
      w.id = hello->worker_id.empty() ? "worker-" + std::to_string(++anon_counter)
                                      : hello->worker_id;
      w.channel->send(encode(Message{HelloAck{}}));
      log("worker " + w.id + " registered (" + hello->build + ")");
    } else if (std::holds_alternative<Heartbeat>(message)) {
      // last_seen already refreshed above.
    } else if (CellReport* report = std::get_if<CellReport>(&message)) {
      if (!w.registered) throw ProtocolError("cell report before Hello");
      if (report->cell < 0 || static_cast<std::size_t>(report->cell) >= cells.size()) {
        throw ProtocolError("cell report for unknown cell " + std::to_string(report->cell));
      }
      if (report->cell != w.assigned_cell) {
        // A worker we already gave up on limped back in with a result for a
        // cell that has been reassigned; results are deterministic, so the
        // live assignment will produce the identical report. Drop it.
        log("ignoring stale report for cell " + std::to_string(report->cell) + " from " + w.id);
        return;
      }
      const std::size_t index = static_cast<std::size_t>(report->cell);
      CellState& cell = cells[index];
      w.assigned_cell = -1;
      if (!report->ok) {
        requeue(index, w.id, "failed on worker: " + report->error);
        return;
      }
      // Journal on receipt, before the completion takes effect: if we die
      // between the fsync and marking the cell done, the resume re-merges
      // the journaled copy and at worst re-journals a duplicate (load()
      // keeps the first).
      journal_cell(index, cell, report->report, report->wall_seconds, w.id);
      cell.in_flight = false;
      cell.done = true;
      cell.report = std::move(report->report);
      cell.wall_seconds = report->wall_seconds;
      cell.completed_by = w.id;
      log(cell_name(index) + " completed by " + w.id + " (attempt " +
          std::to_string(cell.attempts) + ")");
    } else {
      throw ProtocolError("unexpected message from worker");
    }
  };

  while (true) {
    if (std::all_of(cells.begin(), cells.end(), [](const CellState& c) { return c.done; })) {
      break;
    }
    if (options_.should_stop && options_.should_stop()) {
      // Graceful interrupt: everything journaled so far is durable; stop
      // assigning and return the partial merge below.
      interrupted = true;
      log("interrupted: stopping with " +
          std::to_string(std::count_if(cells.begin(), cells.end(),
                                       [](const CellState& c) { return c.done; })) +
          "/" + std::to_string(cells.size()) + " cells complete");
      break;
    }

    // Wait for traffic on the listener or any live connection, bounded by
    // the tick so timers (liveness, deadlines, backoff, degraded grace)
    // stay fresh.
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& w : workers) {
      if (!w->dead) fds.push_back({w->channel->fd(), POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), kTickMs);

    while (auto accepted = listener_.accept(0)) {
      auto conn = std::make_unique<WorkerConn>();
      conn->channel = std::make_unique<FrameChannel>(std::move(*accepted));
      if (options_.chaos.enabled()) {
        conn->channel->set_chaos(std::make_unique<ChaosPolicy>(options_.chaos, chaos_stream));
      }
      ++chaos_stream;
      conn->last_seen = Clock::now();
      workers.push_back(std::move(conn));
    }

    for (auto& w : workers) {
      if (w->dead) continue;
      try {
        while (auto payload = w->channel->poll_frame(0)) {
          handle_frame(*w, *payload);
          if (w->dead) break;
        }
      } catch (const NetError& err) {
        // PeerClosed (crashed/killed worker), ProtocolError (mismatched or
        // corrupt peer), or a transport error: all mean this worker is gone.
        // CampaignAborted is not a NetError and must propagate: a live
        // worker's failed CellReport hitting the retry cap aborts the
        // campaign, it does not mean the worker is dead.
        fail_worker(*w, err.what());
      }
    }

    const auto now = Clock::now();
    for (auto& w : workers) {
      if (w->dead) continue;
      if (now - w->last_seen > liveness_window) {
        fail_worker(*w, w->registered ? "missed heartbeats" : "no Hello within window");
        continue;
      }
      if (w->assigned_cell >= 0 && now > w->cell_deadline) {
        // Hung, not dead: still heartbeating but past the cell's wall
        // budget. Cut the connection — the worker discovers on its next
        // send and may reconnect as a fresh registration.
        fail_worker(*w, "cell deadline exceeded");
      }
    }
    std::erase_if(workers, [](const auto& w) { return w->dead; });

    int live = 0;
    for (const auto& w : workers) live += w->registered ? 1 : 0;
    peak_workers = std::max(peak_workers, live);
    if (!workers.empty()) last_worker_seen = now;

    // Hand one cell to each idle registered worker, lowest grid index
    // first, honouring per-cell backoff gates.
    for (auto& w : workers) {
      if (!w->registered || w->dead || w->assigned_cell >= 0) continue;
      int pick = -1;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].done && !cells[i].in_flight && now >= cells[i].not_before) {
          pick = static_cast<int>(i);
          break;
        }
      }
      if (pick < 0) continue;
      CellState& cell = cells[static_cast<std::size_t>(pick)];
      cell.attempts += 1;
      cell.in_flight = true;
      w->assigned_cell = pick;
      const std::int64_t deadline = deadline_ms_for(static_cast<std::size_t>(pick));
      w->cell_deadline = now + p_ms(deadline);
      AssignCell assign;
      assign.cell = pick;
      assign.attempt = cell.attempts;
      assign.deadline_ms = deadline;
      assign.label = grid_[static_cast<std::size_t>(pick)].label;
      assign.scenario = grid_[static_cast<std::size_t>(pick)].scenario;
      assign.checkpoints = options_.checkpoints;
      log(cell_name(static_cast<std::size_t>(pick)) + " -> " + w->id + " (attempt " +
          std::to_string(cell.attempts) + ", deadline " + std::to_string(deadline) + " ms)");
      try {
        w->channel->send(encode(Message{assign}));
      } catch (const NetError& err) {
        fail_worker(*w, err.what());
      }
    }

    // Degraded completion: every worker is gone (and none is mid-handshake)
    // for longer than the grace window — including the case where none ever
    // connected. Cells are pure functions of their specs, so finishing
    // them here produces the exact report the fleet would have.
    if (options_.allow_degraded && workers.empty() &&
        now - last_worker_seen >= p_ms(options_.degraded_after_ms)) {
      std::size_t remaining = 0;
      for (const CellState& cell : cells) remaining += cell.done ? 0 : 1;
      log("no live workers for " + std::to_string(options_.degraded_after_ms) +
          " ms; finishing " + std::to_string(remaining) + " remaining cells in-process");
      for (std::size_t i = 0; i < cells.size(); ++i) {
        CellState& cell = cells[i];
        if (cell.done) continue;
        if (options_.should_stop && options_.should_stop()) {
          interrupted = true;
          break;
        }
        if (cell.attempts >= options_.max_attempts) abort_campaign(i);
        cell.attempts += 1;
        core::CampaignCellResult local =
            core::run_cell(grid_[i], experiment_workers, options_.checkpoints);
        journal_cell(i, cell, local.report, local.wall_seconds, "local");
        cell.done = true;
        cell.report = std::move(local.report);
        cell.wall_seconds = local.wall_seconds;
        cell.completed_by = "local";
        log(cell_name(i) + " completed in-process (attempt " + std::to_string(cell.attempts) +
            ")");
      }
      if (interrupted) break;
    }
  }

  // Campaign complete (or interrupted): release the fleet, stop accepting.
  for (auto& w : workers) {
    if (!w->registered || w->dead) continue;
    try {
      w->channel->send(encode(
          Message{Shutdown{interrupted ? "campaign interrupted" : "campaign complete"}}));
    } catch (const NetError&) {
    }
  }
  workers.clear();
  listener_.close();

  // Deterministic merge: cell i of the result is grid cell i, whichever
  // worker produced it and in whatever order reports arrived. On interrupt
  // only completed cells merge (grid_index keeps their identity).
  core::CampaignResult result;
  result.split.campaign_workers = std::max(1, peak_workers);
  result.split.experiment_workers = experiment_workers;
  // Echo the checkpoint config the cells ran with, exactly as the
  // single-process runner does — a merged report must describe its own
  // provenance identically or the masked-diff identity breaks on the
  // checkpoint keys (which the distributed mask deliberately keeps).
  result.checkpoints_enabled = options_.checkpoints.enabled;
  result.checkpoint_trees = options_.checkpoints.enabled && options_.checkpoints.trees;
  result.checkpoint_budget_bytes = options_.checkpoints.byte_budget;
  result.interrupted = interrupted;
  result.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].done) continue;
    core::CampaignCellResult out;
    out.spec = grid_[i];
    out.report = std::move(cells[i].report);
    out.wall_seconds = cells[i].wall_seconds;
    out.attempts = cells[i].attempts;
    out.completed_by = cells[i].completed_by;
    out.reassigned_from = std::move(cells[i].reassigned_from);
    out.grid_index = static_cast<int>(i);
    result.cells.push_back(std::move(out));
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace avis::net
