// Distributed campaign worker (docs/DISTRIBUTED.md).
//
// A worker is a loop: connect, Hello/HelloAck handshake, then run one
// assigned cell at a time, heartbeating from a side thread the whole time
// (FrameChannel serializes the shared socket). Cell failures are reported,
// not fatal: a cell that throws goes back as CellReport{ok=false} and the
// worker stays in the pool. Transport failures trigger reconnection with a
// fresh registration — the coordinator treats the reconnect as a brand-new
// worker. Only two things end the loop: a Shutdown frame (normal end of
// campaign, returns true) or running out of consecutive connection attempts
// (coordinator gone for good, returns false). A protocol-version refusal
// throws — reconnecting cannot fix a mismatched binary.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "core/campaign.h"
#include "net/chaos.h"

namespace avis::net {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string worker_id;  // empty = coordinator assigns "worker-N"

  int heartbeat_interval_ms = 250;

  // Reconnection: consecutive failed connection/handshake attempts before
  // giving the coordinator up for dead. Resets on every successful
  // registration, so a long campaign with one coordinator restart still
  // completes.
  int reconnect_attempts = 10;
  int reconnect_delay_ms = 500;

  // Cell execution pool width (a local choice; the report is bit-identical
  // regardless). Checkpoint configuration is NOT a local choice: it arrives
  // with each AssignCell frame so every cell runs — and its report echoes —
  // the coordinator's knobs.
  int experiment_workers = 0;  // 0 = util::default_worker_count()

  // Shared-secret auth token carried in Hello (docs/DISTRIBUTED.md "Trust
  // model"). Must match the coordinator's --auth-token or registration is
  // refused (fatal, like a protocol-version mismatch).
  std::string auth_token;

  // Deterministic fault injection on this worker's send path (net/chaos.h;
  // stream = connection ordinal, so reconnects do not replay the first
  // connection's schedule).
  ChaosConfig chaos;

  std::ostream* log = nullptr;
};

// Runs the worker loop. Returns true after an orderly Shutdown from the
// coordinator, false when reconnect_attempts consecutive connection attempts
// failed. Throws ProtocolError if the coordinator refuses the handshake.
bool run_worker(const WorkerOptions& options);

}  // namespace avis::net
