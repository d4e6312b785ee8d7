// libhinj: the Hardware-fault INJection instrumentation layer (paper §V-B).
//
// Two halves:
//  * Client — linked into the firmware. Drivers call sensor_read() from
//    their read() procedures; the mode-set call site calls update_mode().
//    The client serializes these into protocol messages.
//  * Server — owned by the engine. Decodes messages, forwards them to a
//    FaultDirector (the scheduler in Avis; a no-op in golden runs), and
//    returns the fail/pass decision.
//
// Keeping the serialized boundary means the firmware cannot observe anything
// about the engine except the per-read decision — the same isolation the
// paper gets from its RPC.
//
// The read round trip is the inner loop of every experiment (~8.5
// instrumented reads per 1 kHz firmware step), so it travels as fixed-size
// frames by value: the client encodes an 11-byte ReadRequest on its stack,
// the server decodes it by index and answers with a 2-byte ReadResponse.
// The rarer ModeUpdate and Heartbeat frames go through a pair of
// connection-owned ByteWriters that keep their capacity between frames.
// Either way a steady-state round trip performs zero heap allocations
// (tests/test_hinj_alloc.cc pins this), and the bytes crossing the boundary
// are exactly those of the general encode()/decode() path.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hinj/messages.h"
#include "sensors/sensor_types.h"
#include "util/checked.h"

namespace avis::hinj {

// Engine-side policy: which reads to fail, plus visibility into mode
// transitions and heartbeats. `mode_name` is a view over the decoded frame,
// valid only for the duration of the callback — directors that keep mode
// names (e.g. core::RecordingDirector) own their copies.
class FaultDirector {
 public:
  virtual ~FaultDirector() = default;

  // Return true to fail this read (the instance latches failed afterwards).
  virtual bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) = 0;

  virtual void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                              std::int64_t time_ms) = 0;

  virtual void on_heartbeat(std::int64_t time_ms) { (void)time_ms; }
};

// A director that never injects; golden/profiling runs use this.
class NullDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId&, std::int64_t) override { return false; }
  void on_mode_update(std::uint16_t, std::string_view, std::int64_t) override {}
};

// Engine side: decode frames, dispatch, encode responses.
class Server {
 public:
  explicit Server(FaultDirector& director) : director_(&director) {}

  // The read fast path: one fixed-size ReadRequest frame in, one
  // ReadResponse frame out. A frame whose type byte is not ReadRequest
  // throws WireError.
  ReadResponseFrame handle_read(const ReadRequestFrame& frame) {
    return p_read(decode_read_request(frame));
  }

  // General dispatch: decodes one frame of any type in place and, when the
  // message warrants a response (only ReadRequest does), encodes it into
  // `response` (cleared first). The string-carrying ModeUpdate decodes its
  // mode name as a string_view over the frame, so even mode transitions
  // cross the wire without a heap allocation on the server side.
  void handle_frame(std::span<const std::uint8_t> frame, ByteWriter& response) {
    response.clear();
    ByteReader r(frame);
    switch (static_cast<MessageType>(r.u8())) {
      case MessageType::kReadRequest:
        response.raw(p_read(decode_read_request(frame)));
        return;
      case MessageType::kModeUpdate: {
        const std::int64_t time_ms = r.i64();
        const std::uint16_t mode_id = r.u16();
        director_->on_mode_update(mode_id, r.str_view(), time_ms);
        return;
      }
      case MessageType::kHeartbeat: {
        director_->on_heartbeat(r.i64());
        return;
      }
      case MessageType::kReadResponse:
        throw WireError("unexpected message direction");
    }
    throw WireError("unknown hinj message type");
  }

  // Handles one frame; returns the response frame if the message warrants
  // one (only ReadRequest does). Convenience wrapper over handle_frame for
  // callers without a connection buffer (tests, one-shot tools).
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t>& frame) {
    ByteWriter response;
    handle_frame(frame, response);
    return response.take();
  }

  void set_director(FaultDirector& director) { director_ = &director; }

 private:
  ReadResponseFrame p_read(const ReadRequest& req) {
    return encode_read_response(director_->should_fail(req.sensor, req.time_ms));
  }

  FaultDirector* director_;
};

// Firmware side. The instrumented call sites are:
//   * every sensor driver's read(): `if (hinj.sensor_read(id, now)) -> fail`
//   * the mode controller's set_mode(): `hinj.update_mode(...)`
// Sensor reads carry their frames on the stack; one Client is one
// connection for the other messages: it owns the request/response buffers
// ModeUpdate and Heartbeat reuse within a run.
class Client {
 public:
  explicit Client(Server& server) : server_(&server) {}

  // Returns true if the engine directs this read to fail.
  bool sensor_read(const sensors::SensorId& sensor, std::int64_t time_ms) {
    const ReadResponseFrame response = server_->handle_read(encode_read_request(time_ms, sensor));
    util::expects(response[0] == static_cast<std::uint8_t>(MessageType::kReadResponse),
                  "hinj read response has wrong type");
    return decode_read_response(response).fail;
  }

  void update_mode(std::uint16_t mode_id, std::string_view mode_name, std::int64_t time_ms) {
    request_.clear();
    encode_mode_update(request_, time_ms, mode_id, mode_name);
    server_->handle_frame(request_.span(), response_);
  }

  void heartbeat(std::int64_t time_ms) {
    request_.clear();
    encode_heartbeat(request_, time_ms);
    server_->handle_frame(request_.span(), response_);
  }

 private:
  Server* server_;
  ByteWriter request_;
  ByteWriter response_;
};

}  // namespace avis::hinj
