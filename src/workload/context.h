// Ground-control-station context for workloads.
//
// The workload is the pilot (paper §IV-A): it talks to the vehicle only
// through the MAVLink channel — commands out, telemetry in. The context
// caches the latest telemetry so workload steps can express conditions like
// "altitude reached" without blocking, and wraps the mission-upload state
// machine so workloads cannot deadlock the transaction (§V-A).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geo/geodesy.h"
#include "mavlink/channel.h"
#include "mavlink/messages.h"
#include "mavlink/mission_protocol.h"
#include "sim/simulator.h"

namespace avis::workload {

class GcsContext {
 public:
  GcsContext(mavlink::Endpoint& gcs, const geo::LocalFrame& frame)
      : gcs_(&gcs), uploader_(gcs), frame_(frame) {}

  // Drain incoming telemetry; called by the harness every step.
  void pump(sim::SimTimeMs now) {
    run_.now_ms = now;
    while (auto msg = gcs_->receive()) {
      // Mission-upload replies are consumed by the uploader first.
      auto remaining = uploader_.handle(std::move(*msg));
      if (!remaining) continue;
      if (const auto* hb = std::get_if<mavlink::Heartbeat>(&*remaining)) {
        run_.armed = hb->armed;
        run_.mode_id = hb->custom_mode;
        run_.have_heartbeat = true;
      } else if (const auto* gp = std::get_if<mavlink::GlobalPositionInt>(&*remaining)) {
        run_.local_position = frame_.to_local(gp->position);
        run_.relative_alt = gp->relative_alt_m;
        run_.velocity = gp->velocity_ned;
        run_.heading = gp->heading_rad;
        run_.have_position = true;
      } else if (const auto* ack = std::get_if<mavlink::CommandAck>(&*remaining)) {
        run_.last_ack = *ack;
      } else if (const auto* st = std::get_if<mavlink::StatusText>(&*remaining)) {
        run_.status_texts.push_back(st->text);
      } else if (const auto* reached = std::get_if<mavlink::MissionItemReached>(&*remaining)) {
        run_.last_reached = reached->seq;
      }
    }
  }

  // --- Command helpers (the framework's high-level API) -------------------
  void arm() { send_command(mavlink::Command::kComponentArmDisarm, 1.0); }
  void disarm() { send_command(mavlink::Command::kComponentArmDisarm, 0.0); }

  void takeoff(double altitude_m) {
    mavlink::CommandLong cmd;
    cmd.command = mavlink::Command::kNavTakeoff;
    cmd.param7 = altitude_m;
    gcs_->send(cmd);
  }

  void land() { send_command(mavlink::Command::kNavLand); }
  void return_to_launch() { send_command(mavlink::Command::kNavReturnToLaunch); }

  void set_mode(std::uint16_t composite_id) {
    mavlink::SetMode sm;
    sm.custom_mode = composite_id;
    gcs_->send(sm);
  }

  void rc(double roll, double pitch, double throttle, double yaw) {
    mavlink::RcOverride rc;
    rc.roll = roll;
    rc.pitch = pitch;
    rc.throttle = throttle;
    rc.yaw = yaw;
    gcs_->send(rc);
  }

  void enable_fence(const sim::Fence& fence) {
    mavlink::FenceEnable fe;
    fe.enable = true;
    fe.min_north = fence.min_north;
    fe.max_north = fence.max_north;
    fe.min_east = fence.min_east;
    fe.max_east = fence.max_east;
    fe.max_altitude = fence.max_altitude;
    gcs_->send(fe);
  }

  void upload_mission(std::vector<mavlink::MissionItem> items) {
    uploader_.start(std::move(items));
  }
  bool mission_uploaded() const { return uploader_.done(); }
  bool mission_upload_failed() const { return uploader_.failed(); }

  // --- Telemetry view ------------------------------------------------------
  sim::SimTimeMs now_ms() const { return run_.now_ms; }
  bool armed() const { return run_.armed; }
  std::uint16_t mode_id() const { return run_.mode_id; }
  bool have_position() const { return run_.have_position; }
  const geo::Vec3& local_position() const { return run_.local_position; }
  double altitude() const { return run_.relative_alt; }
  const geo::Vec3& velocity() const { return run_.velocity; }
  double heading() const { return run_.heading; }
  const std::vector<std::string>& status_texts() const { return run_.status_texts; }

  // Mission-item helper: build an item from a local NED position.
  mavlink::MissionItem item_at(mavlink::Command command, const geo::Vec3& local,
                               std::uint16_t seq = 0) const {
    mavlink::MissionItem item;
    item.seq = seq;
    item.command = command;
    item.position = frame_.to_geodetic(local);
    return item;
  }

  const geo::LocalFrame& frame() const { return frame_; }

  // The context's own run state: the cached telemetry view and the
  // status-text log. The endpoint and frame are per-run wiring and stay with
  // the hosting run.
  struct State {
    sim::SimTimeMs now_ms = 0;
    bool armed = false;
    std::uint16_t mode_id = 0;
    bool have_heartbeat = false;
    bool have_position = false;
    geo::Vec3 local_position;
    double relative_alt = 0.0;
    geo::Vec3 velocity;
    double heading = 0.0;
    std::optional<mavlink::CommandAck> last_ack;
    std::optional<std::uint16_t> last_reached;
    std::vector<std::string> status_texts;
  };

  // A checkpoint of the GCS (experiment checkpointing): the mission-upload
  // transaction's state and the context's own, each whole.
  struct Snapshot {
    mavlink::MissionUploader::State uploader;
    State own;
  };

  Snapshot save() const { return {uploader_.save(), run_}; }

  void load(const Snapshot& s) {
    uploader_.load(s.uploader);
    run_ = s.own;
  }

 private:
  void send_command(mavlink::Command command, double param1 = 0.0) {
    mavlink::CommandLong cmd;
    cmd.command = command;
    cmd.param1 = param1;
    gcs_->send(cmd);
  }

  mavlink::Endpoint* gcs_;
  mavlink::MissionUploader uploader_;
  geo::LocalFrame frame_;

  State run_;
};

}  // namespace avis::workload
