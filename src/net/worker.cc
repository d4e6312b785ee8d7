#include "net/worker.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>
#include <variant>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/concurrency.h"

namespace avis::net {

namespace {

using Clock = std::chrono::steady_clock;

// Outcome of one connected session.
enum class SessionEnd {
  kShutdown,   // coordinator said Shutdown: campaign over
  kDisconnect  // transport died: reconnect and re-register
};

// Handshake response wait. Generous: the coordinator answers a Hello within
// one event-loop tick unless it is mid-degraded-completion.
constexpr int kAckTimeoutMs = 10000;

SessionEnd p_run_session(const WorkerOptions& options, FrameChannel& channel,
                         const std::function<void(const std::string&)>& log) {
  Hello hello;
  hello.worker_id = options.worker_id;
  hello.auth = options.auth_token;
  channel.send(encode(Message{hello}));

  // The ack must be the first frame; anything else is a protocol breach.
  const auto ack_deadline = Clock::now() + std::chrono::milliseconds(kAckTimeoutMs);
  std::optional<std::string> first;
  while (!(first = channel.poll_frame(50))) {
    if (Clock::now() > ack_deadline) throw NetError("no HelloAck within handshake window");
  }
  const Message ack_message = decode(*first);
  const HelloAck* ack = std::get_if<HelloAck>(&ack_message);
  if (ack == nullptr) throw ProtocolError("expected HelloAck, got a different frame");
  if (!ack->ok) {
    // Refused registration (protocol version skew): reconnecting with the
    // same binary can never succeed, so this is fatal, not retryable.
    throw ProtocolError("coordinator refused registration: " + ack->reason);
  }
  log("registered with coordinator (" + ack->build + ")");

  // Heartbeats ride a side thread so liveness survives multi-second cell
  // runs; FrameChannel::send serializes the shared socket. A send failure
  // just stops the thread — the main loop sees the same dead socket on its
  // next poll and handles reconnection.
  std::atomic<bool> heartbeat_ok{true};
  std::jthread heartbeat([&](std::stop_token stop) {
    const auto interval = std::chrono::milliseconds(options.heartbeat_interval_ms);
    auto next = Clock::now() + interval;
    while (!stop.stop_requested()) {
      if (Clock::now() >= next) {
        try {
          channel.send(encode(Message{Heartbeat{}}));
        } catch (const NetError&) {
          heartbeat_ok.store(false);
          return;
        }
        next = Clock::now() + interval;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const int experiment_workers = options.experiment_workers > 0
                                     ? options.experiment_workers
                                     : util::default_worker_count();

  while (true) {
    if (!heartbeat_ok.load()) return SessionEnd::kDisconnect;
    std::optional<std::string> payload;
    try {
      payload = channel.poll_frame(100);
    } catch (const NetError&) {
      return SessionEnd::kDisconnect;
    }
    if (!payload) continue;

    const Message message = decode(*payload);
    if (const AssignCell* assign = std::get_if<AssignCell>(&message)) {
      log("assigned cell " + std::to_string(assign->cell) + " (attempt " +
          std::to_string(assign->attempt) + ", deadline " + std::to_string(assign->deadline_ms) +
          " ms)");
      CellReport report;
      report.cell = assign->cell;
      report.worker_id = options.worker_id;
      const auto cell_start = Clock::now();
      try {
        core::CampaignCellSpec spec;
        spec.scenario = assign->scenario;
        spec.label = assign->label;
        core::CampaignCellResult result =
            core::run_cell(spec, experiment_workers, assign->checkpoints);
        report.ok = true;
        report.report = std::move(result.report);
      } catch (const std::exception& err) {
        // The cell failed locally (bad registry name, resource exhaustion);
        // report it and stay available — the coordinator decides whether to
        // retry elsewhere or abort.
        report.ok = false;
        report.error = err.what();
      }
      report.wall_seconds =
          std::chrono::duration<double>(Clock::now() - cell_start).count();
      log("cell " + std::to_string(assign->cell) + (report.ok ? " done" : " FAILED") + " in " +
          std::to_string(report.wall_seconds) + " s");
      try {
        channel.send(encode(Message{report}));
      } catch (const NetError&) {
        return SessionEnd::kDisconnect;
      }
    } else if (const Shutdown* shutdown = std::get_if<Shutdown>(&message)) {
      log("shutdown: " + shutdown->reason);
      return SessionEnd::kShutdown;
    } else {
      throw ProtocolError("unexpected frame from coordinator");
    }
  }
}

}  // namespace

bool run_worker(const WorkerOptions& options) {
  const auto log = [&](const std::string& line) {
    if (options.log != nullptr) {
      *options.log << "[worker" << (options.worker_id.empty() ? "" : " " + options.worker_id)
                   << "] " << line << std::endl;
    }
  };

  int consecutive_failures = 0;
  std::uint64_t connection_ordinal = 0;
  while (true) {
    try {
      FrameChannel channel(connect_to(options.host, options.port));
      if (options.chaos.enabled()) {
        channel.set_chaos(std::make_unique<ChaosPolicy>(options.chaos, connection_ordinal));
      }
      ++connection_ordinal;
      const SessionEnd end = p_run_session(options, channel, log);
      if (end == SessionEnd::kShutdown) return true;
      consecutive_failures = 0;  // the session registered; the fleet lives
      log("connection lost; reconnecting");
    } catch (const ProtocolError&) {
      throw;  // refused handshake or corrupt coordinator: not retryable
    } catch (const NetError& err) {
      ++consecutive_failures;
      log(std::string("connection attempt failed (") + err.what() + "), " +
          std::to_string(consecutive_failures) + "/" +
          std::to_string(options.reconnect_attempts));
      if (consecutive_failures >= options.reconnect_attempts) {
        log("coordinator unreachable; giving up");
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.reconnect_delay_ms));
  }
}

}  // namespace avis::net
