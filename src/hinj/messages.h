// hinj protocol messages (paper §V-B).
//
// libhinj reports two things to the engine — mode transitions (via
// hinj_update_mode, inserted at the firmware's single mode-set call site)
// and sensor reads (via the call inserted into each driver's read()) — and
// receives one thing back: the scheduler's per-read fail/pass decision.
//
// Every message has exactly one encoder and one decoder:
//  * ReadRequest and ReadResponse are fixed-size frames (11 and 2 bytes)
//    carried by value in std::arrays and encoded/decoded by index. They make
//    up the ~8.5 round trips of every 1 kHz step, so they never touch a
//    growable buffer or a bounds-checked reader;
//  * ModeUpdate (string-carrying) and Heartbeat write into a reusable
//    ByteWriter;
//  * encode(Message)/decode(bytes) wrap those same functions behind the
//    std::variant, for tests and any caller that wants owned values, so the
//    two views of the wire are byte-identical by construction
//    (tests/test_hinj.cc pins this).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "hinj/wire.h"
#include "sensors/sensor_types.h"

namespace avis::hinj {

enum class MessageType : std::uint8_t {
  kModeUpdate = 1,
  kReadRequest = 2,
  kReadResponse = 3,
  kHeartbeat = 4,
};

// Firmware -> engine: the vehicle's operating mode changed.
struct ModeUpdate {
  std::int64_t time_ms = 0;
  std::uint16_t mode_id = 0;
  std::string mode_name;
};

// Firmware -> engine: a sensor driver is about to complete a read().
struct ReadRequest {
  std::int64_t time_ms = 0;
  sensors::SensorId sensor;
};

// Engine -> firmware: the scheduler's decision for that read.
struct ReadResponse {
  bool fail = false;
};

// Firmware -> engine: liveness signal; the invariant monitor detects a dead
// firmware process by missing heartbeats.
struct Heartbeat {
  std::int64_t time_ms = 0;
};

using Message = std::variant<ModeUpdate, ReadRequest, ReadResponse, Heartbeat>;

// --- fixed-size read frames ------------------------------------------------
//
// ReadRequest: type, time_ms (i64 little-endian), sensor type, instance.
// ReadResponse: type, fail flag.

inline constexpr std::size_t kReadRequestSize = 11;
inline constexpr std::size_t kReadResponseSize = 2;
using ReadRequestFrame = std::array<std::uint8_t, kReadRequestSize>;
using ReadResponseFrame = std::array<std::uint8_t, kReadResponseSize>;

inline ReadRequestFrame encode_read_request(std::int64_t time_ms,
                                            const sensors::SensorId& sensor) {
  ReadRequestFrame f;
  f[0] = static_cast<std::uint8_t>(MessageType::kReadRequest);
  const auto bits = static_cast<std::uint64_t>(time_ms);
  for (std::size_t i = 0; i < 8; ++i) f[1 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  f[9] = static_cast<std::uint8_t>(sensor.type);
  f[10] = sensor.instance;
  return f;
}

inline ReadRequest decode_read_request(std::span<const std::uint8_t> frame) {
  if (frame.size() != kReadRequestSize) throw WireError("bad ReadRequest frame length");
  if (frame[0] != static_cast<std::uint8_t>(MessageType::kReadRequest)) {
    throw WireError("frame is not a ReadRequest");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(frame[1 + i]) << (8 * i);
  ReadRequest req;
  req.time_ms = static_cast<std::int64_t>(bits);
  req.sensor.type = static_cast<sensors::SensorType>(frame[9]);
  req.sensor.instance = frame[10];
  return req;
}

inline ReadResponseFrame encode_read_response(bool fail) {
  return {static_cast<std::uint8_t>(MessageType::kReadResponse),
          static_cast<std::uint8_t>(fail ? 1 : 0)};
}

inline ReadResponse decode_read_response(std::span<const std::uint8_t> frame) {
  if (frame.size() != kReadResponseSize) throw WireError("bad ReadResponse frame length");
  if (frame[0] != static_cast<std::uint8_t>(MessageType::kReadResponse)) {
    throw WireError("frame is not a ReadResponse");
  }
  return ReadResponse{frame[1] != 0};
}

// --- buffered frame encoders -------------------------------------------------

inline void encode_mode_update(ByteWriter& w, std::int64_t time_ms, std::uint16_t mode_id,
                               std::string_view mode_name) {
  w.u8(static_cast<std::uint8_t>(MessageType::kModeUpdate));
  w.i64(time_ms);
  w.u16(mode_id);
  w.str(mode_name);
}

inline void encode_heartbeat(ByteWriter& w, std::int64_t time_ms) {
  w.u8(static_cast<std::uint8_t>(MessageType::kHeartbeat));
  w.i64(time_ms);
}

// --- variant wrappers -------------------------------------------------------

inline std::vector<std::uint8_t> encode(const Message& msg) {
  ByteWriter w;
  if (const auto* m = std::get_if<ModeUpdate>(&msg)) {
    encode_mode_update(w, m->time_ms, m->mode_id, m->mode_name);
  } else if (const auto* r = std::get_if<ReadRequest>(&msg)) {
    w.raw(encode_read_request(r->time_ms, r->sensor));
  } else if (const auto* resp = std::get_if<ReadResponse>(&msg)) {
    w.raw(encode_read_response(resp->fail));
  } else if (const auto* h = std::get_if<Heartbeat>(&msg)) {
    encode_heartbeat(w, h->time_ms);
  }
  return w.take();
}

inline Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  switch (static_cast<MessageType>(r.u8())) {
    case MessageType::kModeUpdate: {
      ModeUpdate m;
      m.time_ms = r.i64();
      m.mode_id = r.u16();
      m.mode_name = r.str();
      return m;
    }
    case MessageType::kReadRequest:
      return decode_read_request(bytes);
    case MessageType::kReadResponse:
      return decode_read_response(bytes);
    case MessageType::kHeartbeat: {
      Heartbeat h;
      h.time_ms = r.i64();
      return h;
    }
  }
  throw WireError("unknown hinj message type");
}

}  // namespace avis::hinj
