// Distributed campaign failure matrix (docs/DISTRIBUTED.md).
//
// Cells are pure functions of their specs, so the coordinator's contract is
// twofold: the merged report is identical to a single-process run of the
// same grid no matter how the fleet behaves, and every failure mode ends in
// either a complete report or a loud CampaignAborted — never a hang or a
// silently partial result. The matrix:
//   (a) clean 2-worker run         -> identical report, one attempt per cell
//   (b) worker killed mid-cell     -> cell reassigned, provenance recorded
//   (c) worker hung past deadline  -> cell reassigned despite live heartbeats
//   (d) all workers dead           -> degraded in-process completion
//   (+) poisoned cell              -> retry cap aborts with a clear error
//   (+) protocol version mismatch  -> refused registration, campaign unharmed
//
// Misbehaving peers are driven through the raw frame protocol: net::run_worker
// cannot be talked into dying mid-cell, so the tests speak wire frames
// directly where the failure requires it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "net/coordinator.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/worker.h"
#include "test_helpers.h"

namespace {

using namespace avis;
using Clock = std::chrono::steady_clock;

// Registry-named cells only: factories cannot cross the process boundary.
// Budget sized so a cell runs in well under a second but still spans
// several strategy waves.
std::vector<core::CampaignCellSpec> test_cells(int approaches) {
  core::ScenarioGrid grid;
  grid.approaches = approaches >= 2 ? std::vector<std::string>{"avis", "random"}
                                    : std::vector<std::string>{"avis"};
  grid.personalities = {"ardupilot"};
  grid.workloads = {"box-manual"};
  grid.environments = {"calm"};
  grid.budget_ms = 20000;
  grid.seed = 100;
  return core::expand_to_cells(grid);
}

core::CampaignResult single_process_reference(const std::vector<core::CampaignCellSpec>& cells) {
  core::CampaignOptions options;
  options.cell_workers = 1;
  options.experiment_workers = 2;
  return core::CampaignRunner(options).run(cells);
}

net::CoordinatorOptions quick_options() {
  net::CoordinatorOptions options;
  options.port = 0;  // kernel-assigned; tests read it back
  options.heartbeat_interval_ms = 50;
  options.heartbeat_miss_threshold = 8;
  options.backoff_initial_ms = 20;
  options.backoff_cap_ms = 100;
  options.experiment_workers = 2;
  return options;
}

net::WorkerOptions worker_options(std::uint16_t port, const std::string& id) {
  net::WorkerOptions options;
  options.port = port;
  options.worker_id = id;
  options.heartbeat_interval_ms = 50;
  options.reconnect_delay_ms = 50;
  options.experiment_workers = 2;
  return options;
}

// A peer that speaks raw frames so it can misbehave on cue.
struct FakeWorker {
  net::FrameChannel channel;

  FakeWorker(std::uint16_t port, const std::string& id,
             int protocol = net::kProtocolVersion, const std::string& auth = "")
      : channel(net::connect_to("127.0.0.1", port)) {
    net::Hello hello;
    hello.protocol = protocol;
    hello.worker_id = id;
    hello.auth = auth;
    channel.send(net::encode(net::Message{hello}));
  }

  net::Message next(int timeout_ms = 10000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      if (auto payload = channel.poll_frame(20)) return net::decode(*payload);
    }
    throw std::runtime_error("fake worker timed out waiting for a frame");
  }
};

// (a) Clean run: two well-behaved workers, every cell one attempt, merged
// report identical to the single-process reference.
TEST(Distributed, CleanTwoWorkerRunMatchesSingleProcess) {
  const auto cells = test_cells(2);
  const core::CampaignResult reference = single_process_reference(cells);

  auto options = quick_options();
  options.allow_degraded = false;  // the fleet must do the work
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });
  bool alpha_ok = false, beta_ok = false;
  std::thread alpha([&] { alpha_ok = net::run_worker(worker_options(port, "alpha")); });
  std::thread beta([&] { beta_ok = net::run_worker(worker_options(port, "beta")); });
  serve.join();
  alpha.join();
  beta.join();

  EXPECT_TRUE(alpha_ok);  // orderly Shutdown, not connection exhaustion
  EXPECT_TRUE(beta_ok);
  avis::testing::expect_campaign_results_equal(reference, result);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.attempts, 1);
    EXPECT_TRUE(cell.completed_by == "alpha" || cell.completed_by == "beta")
        << cell.completed_by;
    EXPECT_TRUE(cell.reassigned_from.empty());
  }
}

// (b) Killed mid-cell: to the coordinator a SIGKILLed worker is an abrupt
// EOF with a cell in flight. The cell is reassigned and the report records
// who lost it.
TEST(Distributed, WorkerKilledMidCellIsReassigned) {
  const auto cells = test_cells(1);
  const core::CampaignResult reference = single_process_reference(cells);

  auto options = quick_options();
  options.allow_degraded = false;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  {
    FakeWorker griefer(port, "griefer");
    ASSERT_TRUE(std::holds_alternative<net::HelloAck>(griefer.next()));
    ASSERT_TRUE(std::holds_alternative<net::AssignCell>(griefer.next()));
    // Die with the cell in flight (destructor closes the socket).
  }

  bool ok = false;
  std::thread rescuer([&] { ok = net::run_worker(worker_options(port, "rescuer")); });
  serve.join();
  rescuer.join();

  EXPECT_TRUE(ok);
  avis::testing::expect_campaign_results_equal(reference, result);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].attempts, 2);
  EXPECT_EQ(result.cells[0].completed_by, "rescuer");
  ASSERT_EQ(result.cells[0].reassigned_from.size(), 1u);
  EXPECT_EQ(result.cells[0].reassigned_from[0], "griefer");
}

// (c) Hung past deadline: the worker keeps heartbeating (liveness never
// trips) but never reports; the per-cell deadline reclaims the cell.
TEST(Distributed, HungWorkerPastDeadlineIsReassigned) {
  const auto cells = test_cells(1);
  const core::CampaignResult reference = single_process_reference(cells);

  auto options = quick_options();
  options.allow_degraded = false;
  // Tight enough to keep the test quick, roomy enough that the rescuer's
  // genuine run (~0.5 s including calibration) never trips it.
  options.cell_deadline_ms = 3000;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  std::thread sloth([&] {
    FakeWorker hung(port, "sloth");
    ASSERT_TRUE(std::holds_alternative<net::HelloAck>(hung.next()));
    ASSERT_TRUE(std::holds_alternative<net::AssignCell>(hung.next()));
    // Heartbeat forever without reporting, until the coordinator enforces
    // the deadline by cutting the connection.
    try {
      while (true) {
        hung.channel.send(net::encode(net::Message{net::Heartbeat{}}));
        hung.channel.poll_frame(40);
      }
    } catch (const net::NetError&) {
      // Disconnected: the deadline fired. Exactly what the test wants.
    }
  });
  sloth.join();  // returns once the coordinator cut the hung worker

  bool ok = false;
  std::thread rescuer([&] { ok = net::run_worker(worker_options(port, "rescuer")); });
  serve.join();
  rescuer.join();

  EXPECT_TRUE(ok);
  avis::testing::expect_campaign_results_equal(reference, result);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].attempts, 2);
  EXPECT_EQ(result.cells[0].completed_by, "rescuer");
  ASSERT_EQ(result.cells[0].reassigned_from.size(), 1u);
  EXPECT_EQ(result.cells[0].reassigned_from[0], "sloth");
}

// (d) All workers dead: the only worker takes a cell down with it and
// nobody replaces it; the coordinator finishes in-process and the campaign
// still produces the full, identical report.
TEST(Distributed, AllWorkersDeadFallsBackToInProcessCompletion) {
  const auto cells = test_cells(2);
  const core::CampaignResult reference = single_process_reference(cells);

  auto options = quick_options();
  options.allow_degraded = true;
  options.degraded_after_ms = 200;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  {
    FakeWorker doomed(port, "doomed");
    ASSERT_TRUE(std::holds_alternative<net::HelloAck>(doomed.next()));
    ASSERT_TRUE(std::holds_alternative<net::AssignCell>(doomed.next()));
  }
  serve.join();

  avis::testing::expect_campaign_results_equal(reference, result);
  ASSERT_EQ(result.cells.size(), 2u);
  // The cell doomed took down carries the reassignment; every cell was
  // finished locally.
  int reassigned = 0;
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.completed_by, "local");
    reassigned += static_cast<int>(cell.reassigned_from.size());
  }
  EXPECT_EQ(reassigned, 1);
}

// Retry cap: a cell that takes a worker down on every attempt must abort
// the campaign with an error naming the cell — not retry forever, and not
// return a partial report.
TEST(Distributed, PoisonedCellExhaustsAttemptsAndAborts) {
  const auto cells = test_cells(1);

  auto options = quick_options();
  options.allow_degraded = false;  // pin the retry-cap path
  options.max_attempts = 2;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  std::string aborted_message;
  std::thread serve([&] {
    try {
      coordinator.run();
    } catch (const net::CampaignAborted& err) {
      aborted_message = err.what();
    }
  });

  // Every connection takes the cell and dies mid-flight; the abort closes
  // the listener, which ends the griefing loop.
  std::thread griefers([&] {
    for (int attempt = 0; attempt < 20; ++attempt) {
      try {
        FakeWorker griefer(port, "griefer-" + std::to_string(attempt));
        if (!std::holds_alternative<net::HelloAck>(griefer.next())) return;
        if (!std::holds_alternative<net::AssignCell>(griefer.next(2000))) return;
      } catch (const std::exception&) {
        return;  // listener closed: the campaign aborted
      }
    }
  });
  serve.join();
  griefers.join();

  EXPECT_NE(aborted_message.find("failed after 2 attempts"), std::string::npos)
      << aborted_message;
  EXPECT_NE(aborted_message.find("cell 0"), std::string::npos) << aborted_message;
}

// Retry cap, live-worker variant: the worker stays connected and healthy
// but reports the cell as failed on every attempt (CellReport{ok=false}).
// The abort must propagate out of the frame-handling path promptly — not be
// mistaken for a dead worker and leave the coordinator spinning with the
// listener closed and no cell that can ever complete.
TEST(Distributed, PoisonedCellFailedReportsFromLiveWorkerAbort) {
  const auto cells = test_cells(1);

  auto options = quick_options();
  options.allow_degraded = false;  // pin the retry-cap path
  options.max_attempts = 2;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  const auto start = Clock::now();
  std::string aborted_message;
  std::thread serve([&] {
    try {
      coordinator.run();
    } catch (const net::CampaignAborted& err) {
      aborted_message = err.what();
    }
  });

  FakeWorker saboteur(port, "saboteur");
  ASSERT_TRUE(std::holds_alternative<net::HelloAck>(saboteur.next()));
  // Fail every assignment while staying registered and responsive; the
  // abort's Shutdown (or the closing connection) ends the loop.
  try {
    while (true) {
      const net::Message message = saboteur.next();
      if (const net::AssignCell* assign = std::get_if<net::AssignCell>(&message)) {
        net::CellReport report;
        report.cell = assign->cell;
        report.ok = false;
        report.error = "simulated strategy crash";
        report.worker_id = "saboteur";
        saboteur.channel.send(net::encode(net::Message{report}));
      } else if (std::holds_alternative<net::Shutdown>(message)) {
        break;
      }
    }
  } catch (const net::NetError&) {
    // Connection died with the aborting coordinator: equally conclusive.
  }
  serve.join();

  // Promptly: two immediate failure reports plus one short backoff — not a
  // liveness timeout, and certainly not a hang.
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(30));
  EXPECT_NE(aborted_message.find("failed after 2 attempts"), std::string::npos)
      << aborted_message;
  EXPECT_NE(aborted_message.find("failed on worker: simulated strategy crash"),
            std::string::npos)
      << aborted_message;
}

// Version skew: a worker speaking a different protocol version is refused
// with a reason naming both versions, and the campaign completes without it.
TEST(Distributed, ProtocolVersionMismatchRefusesToPair) {
  const auto cells = test_cells(1);

  auto options = quick_options();
  options.allow_degraded = true;  // nobody else is coming
  options.degraded_after_ms = 100;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  {
    FakeWorker stale(port, "stale", net::kProtocolVersion + 1);
    const net::Message reply = stale.next();
    const net::HelloAck* ack = std::get_if<net::HelloAck>(&reply);
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->reason.find("protocol version mismatch"), std::string::npos) << ack->reason;
  }
  serve.join();

  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].completed_by, "local");
  EXPECT_EQ(result.cells[0].attempts, 1);  // the refused worker never held it
}

// Crash-safe resume across execution paths: a journal written by an
// interrupted in-process run (what a crashed coordinator leaves on disk) is
// resumed by a coordinator, which merges the journaled cell and ships only
// the remainder to the fleet — and the merged report is identical to the
// uninterrupted single-process reference.
TEST(Distributed, CoordinatorResumesFromJournalAndMergesIdentically) {
  const auto cells = test_cells(2);
  const core::CampaignResult reference = single_process_reference(cells);
  const std::string path = ::testing::TempDir() + "avis_dist_resume_" +
                           std::to_string(::getpid()) + ".jsonl";

  // Phase 1: journal cell 0, then stop — the stop callback is polled
  // between cells, so exactly one completion lands in the journal.
  {
    core::CampaignJournal journal =
        core::CampaignJournal::start(path, core::CampaignJournal::bind(cells, {}));
    core::CampaignOptions options;
    options.cell_workers = 1;
    options.experiment_workers = 2;
    options.journal = &journal;
    int polls = 0;
    options.should_stop = [&polls] { return polls++ >= 1; };
    const core::CampaignResult partial = core::CampaignRunner(options).run(cells);
    ASSERT_TRUE(partial.interrupted);
    ASSERT_EQ(partial.cells.size(), 1u);
  }

  // Phase 2: the coordinator resumes. Cell 0 merges from the journal, cell
  // 1 goes to the only worker.
  const auto loaded = core::CampaignJournal::load(path);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_FALSE(loaded.dropped_torn_record);
  core::CampaignJournal journal = core::CampaignJournal::append_to(path);

  auto options = quick_options();
  options.allow_degraded = false;
  options.journal = &journal;
  options.resume = &loaded.cells;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });
  bool ok = false;
  std::thread finisher([&] { ok = net::run_worker(worker_options(port, "finisher")); });
  serve.join();
  finisher.join();

  EXPECT_TRUE(ok);
  avis::testing::expect_campaign_results_equal(reference, result);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].completed_by, "local");     // journaled provenance
  EXPECT_EQ(result.cells[1].completed_by, "finisher");  // freshly run
  // The journal now binds the complete campaign: a second resume would
  // re-run nothing.
  EXPECT_EQ(core::CampaignJournal::load(path).cells.size(), 2u);
  std::filesystem::remove(path);
}

// Auth: a worker whose Hello carries the wrong shared secret is refused at
// the handshake with a reason that names the mismatch — never the secret —
// and the campaign completes without it.
TEST(Distributed, AuthTokenMismatchRefusesRegistration) {
  const auto cells = test_cells(1);

  auto options = quick_options();
  options.auth_token = "open-sesame";
  options.allow_degraded = true;  // nobody legitimate is coming
  options.degraded_after_ms = 100;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  {
    FakeWorker impostor(port, "impostor", net::kProtocolVersion, "guess");
    const net::Message reply = impostor.next();
    const net::HelloAck* ack = std::get_if<net::HelloAck>(&reply);
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->ok);
    EXPECT_NE(ack->reason.find("auth token mismatch"), std::string::npos) << ack->reason;
    EXPECT_EQ(ack->reason.find("open-sesame"), std::string::npos) << ack->reason;
  }
  serve.join();

  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].completed_by, "local");
  EXPECT_EQ(result.cells[0].attempts, 1);  // the impostor never held the cell
}

// Auth, both directions through the real worker loop: the wrong token is a
// fatal ProtocolError (reconnecting cannot fix it), the right token runs
// the campaign to the identical report.
TEST(Distributed, MatchingAuthTokenRunsCampaign) {
  const auto cells = test_cells(1);
  const core::CampaignResult reference = single_process_reference(cells);

  auto options = quick_options();
  options.auth_token = "open-sesame";
  options.allow_degraded = false;
  net::CampaignCoordinator coordinator(cells, options);
  const std::uint16_t port = coordinator.port();

  core::CampaignResult result;
  std::thread serve([&] { result = coordinator.run(); });

  std::thread impostor([&] {
    auto bad = worker_options(port, "impostor");
    bad.auth_token = "wrong";
    EXPECT_THROW(net::run_worker(bad), net::ProtocolError);
  });
  impostor.join();

  bool ok = false;
  std::thread legit([&] {
    auto good = worker_options(port, "legit");
    good.auth_token = "open-sesame";
    ok = net::run_worker(good);
  });
  serve.join();
  legit.join();

  EXPECT_TRUE(ok);
  avis::testing::expect_campaign_results_equal(reference, result);
}

TEST(Distributed, ConstantTimeEqualSemantics) {
  EXPECT_TRUE(net::constant_time_equal("", ""));
  EXPECT_TRUE(net::constant_time_equal("abc", "abc"));
  EXPECT_FALSE(net::constant_time_equal("abc", "abd"));
  EXPECT_FALSE(net::constant_time_equal("", "abc"));
  EXPECT_FALSE(net::constant_time_equal("abc", ""));
  EXPECT_FALSE(net::constant_time_equal("abcabc", "abc"));
}

// Chaos sweep: with deterministic wire faults injected on BOTH sides of the
// connection, every seeded schedule still converges to the identical report
// — the reassignment/reconnection/degraded machinery absorbs whatever the
// chaos layer throws, by construction of the determinism contract.
TEST(Distributed, ChaosSweepPreservesReportIdentity) {
  const auto cells = test_cells(1);
  const core::CampaignResult reference = single_process_reference(cells);

  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    auto options = quick_options();
    options.allow_degraded = true;  // the last-resort safety net stays armed
    options.degraded_after_ms = 1000;
    options.max_attempts = 10;
    options.cell_deadline_ms = 4000;  // bound the dropped-AssignCell stall
    options.chaos.seed = seed;
    net::CampaignCoordinator coordinator(cells, options);
    const std::uint16_t port = coordinator.port();

    core::CampaignResult result;
    std::thread serve([&] { result = coordinator.run(); });
    std::thread worker([&] {
      auto chaotic = worker_options(port, "chaotic");
      chaotic.chaos.seed = seed;
      // Outcome deliberately ignored: chaos may eat the Shutdown frame, in
      // which case the worker exhausts reconnects against a closed listener.
      net::run_worker(chaotic);
    });
    serve.join();
    worker.join();

    avis::testing::expect_campaign_results_equal(reference, result);
  }
}

// The wire round trip is lossless for every message type (spot checks; the
// report payload itself is covered by the matrix tests above).
TEST(Distributed, ProtocolRoundTripsMessages) {
  net::AssignCell assign;
  assign.cell = 3;
  assign.attempt = 2;
  assign.deadline_ms = 45000;
  assign.label = "Avis";
  assign.scenario.approach = "avis";
  assign.scenario.personality = "ardupilot";
  assign.scenario.workload = "box-manual";
  assign.scenario.budget_ms = 20000;
  assign.scenario.seed = 100;
  assign.checkpoints.enabled = true;
  assign.checkpoints.trees = false;
  assign.checkpoints.interval_ms = 2500;
  assign.checkpoints.tree_transition_horizon = 3;
  assign.checkpoints.byte_budget = 48u * 1024 * 1024;
  const net::Message decoded = net::decode(net::encode(net::Message{assign}));
  const net::AssignCell* round = std::get_if<net::AssignCell>(&decoded);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->cell, 3);
  EXPECT_EQ(round->attempt, 2);
  EXPECT_EQ(round->deadline_ms, 45000);
  EXPECT_EQ(round->label, "Avis");
  EXPECT_EQ(round->scenario.approach, "avis");
  EXPECT_EQ(round->scenario.budget_ms, 20000);
  EXPECT_TRUE(round->checkpoints.enabled);
  EXPECT_FALSE(round->checkpoints.trees);
  EXPECT_EQ(round->checkpoints.interval_ms, 2500);
  EXPECT_EQ(round->checkpoints.tree_transition_horizon, 3);
  EXPECT_EQ(round->checkpoints.byte_budget, 48u * 1024 * 1024);

  net::CellReport failure;
  failure.cell = 7;
  failure.ok = false;
  failure.error = "registry name not found";
  failure.worker_id = "w1";
  const net::Message failure_decoded = net::decode(net::encode(net::Message{failure}));
  const net::CellReport* failure_round = std::get_if<net::CellReport>(&failure_decoded);
  ASSERT_NE(failure_round, nullptr);
  EXPECT_FALSE(failure_round->ok);
  EXPECT_EQ(failure_round->error, "registry name not found");

  // Malformed frames decode to ProtocolError, never a raw JsonError.
  EXPECT_THROW(net::decode("{\"type\": \"assign_cell\""), net::ProtocolError);
  EXPECT_THROW(net::decode("{\"type\": \"no_such_frame\"}"), net::ProtocolError);
  EXPECT_THROW(net::decode("not json at all"), net::ProtocolError);
}

}  // namespace
