// In-memory duplex link between the ground-control station (workload) and
// the vehicle. Messages cross the link as encoded frames — each endpoint
// only sees bytes, mirroring the UDP link to SITL in the paper's setup.
//
// Frame vectors are recycled through a channel-owned freelist: send() packs
// into a recycled buffer, receive() returns the consumed buffer to the
// freelist. At the 20 ms GCS pump rate this makes steady-state traffic
// allocation-free (telemetry frames all reuse the same few buffers) without
// changing a byte on the wire.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "mavlink/codec.h"
#include "mavlink/messages.h"

namespace avis::mavlink {

class Channel;

// One side of the link. Endpoint identity feeds the frame header.
class Endpoint {
 public:
  Endpoint(Channel& channel, bool is_vehicle, std::uint8_t system_id)
      : channel_(&channel), is_vehicle_(is_vehicle), system_id_(system_id) {}

  void send(const Message& m);
  std::optional<Message> receive();
  bool has_pending() const;

  // Back to the boot state (sequence numbers restart); part of
  // Channel::reset_link.
  void reset_seq() { next_seq_ = 0; }

  // Sequence-number position, for mid-run checkpointing: a restored
  // endpoint must stamp its next frame exactly as the prefix run would.
  std::uint8_t seq() const { return next_seq_; }
  void set_seq(std::uint8_t seq) { next_seq_ = seq; }

 private:
  Channel* channel_;
  bool is_vehicle_;
  std::uint8_t system_id_;
  std::uint8_t next_seq_ = 0;
};

class Channel {
 public:
  Channel() : gcs_(*this, false, 255), vehicle_(*this, true, 1) {}

  Endpoint& gcs() { return gcs_; }
  Endpoint& vehicle() { return vehicle_; }

  // Frames in flight, per direction.
  std::deque<std::vector<std::uint8_t>> to_vehicle;
  std::deque<std::vector<std::uint8_t>> to_gcs;

  // Return the link to its just-constructed observable state — no traffic
  // in flight, sequence numbers at zero — while keeping the frame freelist;
  // load() starts from here.
  void reset_link() {
    while (!to_vehicle.empty()) {
      recycle_frame(std::move(to_vehicle.front()));
      to_vehicle.pop_front();
    }
    while (!to_gcs.empty()) {
      recycle_frame(std::move(to_gcs.front()));
      to_gcs.pop_front();
    }
    gcs_.reset_seq();
    vehicle_.reset_seq();
  }

  // Mid-run link state for experiment checkpointing: the encoded frames in
  // flight (bytes, direction-ordered) and both endpoints' sequence
  // positions. The freelist is capacity, not state, and stays out; the
  // channel keeps its own save/load because restored frames are recycled
  // through that freelist.
  struct Snapshot {
    std::vector<std::vector<std::uint8_t>> to_vehicle;
    std::vector<std::vector<std::uint8_t>> to_gcs;
    std::uint8_t gcs_seq = 0;
    std::uint8_t vehicle_seq = 0;
  };

  Snapshot save() const {
    Snapshot s;
    s.to_vehicle.assign(to_vehicle.begin(), to_vehicle.end());
    s.to_gcs.assign(to_gcs.begin(), to_gcs.end());
    s.gcs_seq = gcs_.seq();
    s.vehicle_seq = vehicle_.seq();
    return s;
  }

  // Restores the link to the snapshot's observable state. In-flight frames
  // are copied into recycled buffers so a warmed-up channel stays
  // allocation-light.
  void load(const Snapshot& s) {
    reset_link();
    for (const auto& bytes : s.to_vehicle) {
      std::vector<std::uint8_t> frame = acquire_frame();
      frame.assign(bytes.begin(), bytes.end());
      to_vehicle.push_back(std::move(frame));
    }
    for (const auto& bytes : s.to_gcs) {
      std::vector<std::uint8_t> frame = acquire_frame();
      frame.assign(bytes.begin(), bytes.end());
      to_gcs.push_back(std::move(frame));
    }
    gcs_.set_seq(s.gcs_seq);
    vehicle_.set_seq(s.vehicle_seq);
  }

  // Freelist of retired frame vectors. acquire hands back an empty vector
  // that keeps its old capacity; recycle caps the list so a traffic burst
  // cannot pin unbounded memory.
  std::vector<std::uint8_t> acquire_frame() {
    if (free_frames_.empty()) return {};
    std::vector<std::uint8_t> frame = std::move(free_frames_.back());
    free_frames_.pop_back();
    frame.clear();
    return frame;
  }

  void recycle_frame(std::vector<std::uint8_t>&& frame) {
    if (free_frames_.size() < kMaxFreeFrames) free_frames_.push_back(std::move(frame));
  }

  // Scratch writer for payload staging in Endpoint::send. The channel is
  // single-threaded by construction (one simulated vehicle, one GCS, both
  // pumped from the harness loop), so one scratch buffer serves both ends.
  util::ByteWriter& payload_scratch() { return payload_scratch_; }

 private:
  static constexpr std::size_t kMaxFreeFrames = 64;

  Endpoint gcs_;
  Endpoint vehicle_;
  std::vector<std::vector<std::uint8_t>> free_frames_;
  util::ByteWriter payload_scratch_;
};

inline void Endpoint::send(const Message& m) {
  std::vector<std::uint8_t> frame = channel_->acquire_frame();
  pack_into(m, next_seq_++, system_id_, 1, channel_->payload_scratch(), frame);
  if (is_vehicle_) {
    channel_->to_gcs.push_back(std::move(frame));
  } else {
    channel_->to_vehicle.push_back(std::move(frame));
  }
}

inline std::optional<Message> Endpoint::receive() {
  auto& queue = is_vehicle_ ? channel_->to_vehicle : channel_->to_gcs;
  while (!queue.empty()) {
    auto bytes = std::move(queue.front());
    queue.pop_front();
    auto msg = unpack(bytes);  // corrupted frames are dropped
    channel_->recycle_frame(std::move(bytes));
    if (msg) return msg;
  }
  return std::nullopt;
}

inline bool Endpoint::has_pending() const {
  return !(is_vehicle_ ? channel_->to_vehicle : channel_->to_gcs).empty();
}

}  // namespace avis::mavlink
