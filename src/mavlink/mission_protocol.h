// Ground-control-station side of the MAVLink mission-upload transaction.
//
// Paper §V-A: "to upload new missions the ground-control station first
// communicates the number of mission items to the vehicle and then waits for
// the vehicle to request each item". Because the vehicle drives the
// transaction, a naive GCS that blocks on requests can deadlock against a
// model checker that is itself synchronizing the vehicle — so this state
// machine is strictly non-blocking: pump() consumes whatever arrived and
// sends at most what was asked for.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mavlink/channel.h"
#include "mavlink/messages.h"
#include "util/checked.h"

namespace avis::mavlink {

class MissionUploader {
 public:
  enum class Phase { kIdle, kAwaitingRequests, kDone, kFailed };

  explicit MissionUploader(Endpoint& gcs) : gcs_(&gcs) {}

  // Begin a new upload. Any in-progress transaction is abandoned.
  void start(std::vector<MissionItem> items) {
    run_.items = std::move(items);
    for (std::uint16_t i = 0; i < run_.items.size(); ++i) run_.items[i].seq = i;
    run_.phase = Phase::kAwaitingRequests;
    MissionCount count;
    count.count = static_cast<std::uint16_t>(run_.items.size());
    gcs_->send(count);
  }

  // Feed one received message. Non-mission messages are ignored and returned
  // to the caller so other protocol layers can process them.
  std::optional<Message> handle(Message msg) {
    if (run_.phase != Phase::kAwaitingRequests) return msg;
    if (const auto* req = std::get_if<MissionRequest>(&msg)) {
      if (req->seq < run_.items.size()) {
        gcs_->send(run_.items[req->seq]);
      } else {
        run_.phase = Phase::kFailed;
      }
      return std::nullopt;
    }
    if (const auto* ack = std::get_if<MissionAck>(&msg)) {
      run_.phase = ack->result == MissionResult::kAccepted ? Phase::kDone : Phase::kFailed;
      return std::nullopt;
    }
    return msg;
  }

  Phase phase() const { return run_.phase; }
  bool done() const { return run_.phase == Phase::kDone; }
  bool failed() const { return run_.phase == Phase::kFailed; }

  // Everything a run changes (experiment checkpointing): the staged items
  // and the phase; the endpoint wiring belongs to the hosting context.
  struct State {
    std::vector<MissionItem> items;
    Phase phase = Phase::kIdle;
  };

  State save() const { return run_; }
  void load(const State& s) { run_ = s; }

 private:
  Endpoint* gcs_;
  State run_;
};

}  // namespace avis::mavlink
