#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "hinj/hinj.h"
#include "hinj/messages.h"

namespace avis::hinj {
namespace {

// Answers every read with `fail` and counts the reads that reach it.
class CountingFailDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId&, std::int64_t) override {
    ++reads;
    return fail;
  }
  void on_mode_update(std::uint16_t, std::string_view, std::int64_t) override {}

  bool fail = false;
  int reads = 0;
};

TEST(HinjMessages, ModeUpdateRoundTrip) {
  ModeUpdate m;
  m.time_ms = 12345;
  m.mode_id = 0x0501;
  m.mode_name = "auto-wp1";
  const Message decoded = decode(encode(m));
  const auto* out = std::get_if<ModeUpdate>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 12345);
  EXPECT_EQ(out->mode_id, 0x0501);
  EXPECT_EQ(out->mode_name, "auto-wp1");
}

TEST(HinjMessages, ReadRequestRoundTrip) {
  ReadRequest r;
  r.time_ms = 777;
  r.sensor = {sensors::SensorType::kCompass, 2};
  const Message decoded = decode(encode(r));
  const auto* out = std::get_if<ReadRequest>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 777);
  EXPECT_EQ(out->sensor, (sensors::SensorId{sensors::SensorType::kCompass, 2}));
}

TEST(HinjMessages, ReadResponseRoundTrip) {
  for (bool fail : {true, false}) {
    ReadResponse r;
    r.fail = fail;
    const Message decoded = decode(encode(r));
    const auto* out = std::get_if<ReadResponse>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->fail, fail);
  }
}

TEST(HinjMessages, HeartbeatRoundTrip) {
  Heartbeat h;
  h.time_ms = 999;
  const Message decoded = decode(encode(h));
  const auto* out = std::get_if<Heartbeat>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 999);
}

TEST(HinjMessages, TruncatedFrameThrows) {
  auto bytes = encode(ReadRequest{100, {sensors::SensorType::kGps, 0}});
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(decode(bytes), WireError);
}

TEST(HinjMessages, UnknownTypeThrows) {
  std::vector<std::uint8_t> bytes{0xEE};
  EXPECT_THROW(decode(bytes), WireError);
}

// The fixed-size read frames must be exactly the bytes of the general
// encode(Message) path, and decode back to the same values — the wire
// format is the isolation boundary, so the fast path may not change a
// single byte of it. Covers the time_ms extremes (sign bit, all-ones,
// INT64_MIN/MAX), every sensor type and the instance byte's range.
TEST(HinjMessages, FixedReadFramesMatchGeneralEncode) {
  const std::int64_t times[] = {0, -1, std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max(), 777};
  const std::uint8_t instances[] = {0, 2, 255};
  for (const std::int64_t t : times) {
    for (const sensors::SensorType type : sensors::kAllSensorTypes) {
      for (const std::uint8_t instance : instances) {
        const sensors::SensorId id{type, instance};
        const ReadRequestFrame frame = encode_read_request(t, id);
        const auto general = encode(ReadRequest{t, id});
        EXPECT_EQ(std::vector<std::uint8_t>(frame.begin(), frame.end()), general);
        const ReadRequest back = decode_read_request(frame);
        EXPECT_EQ(back.time_ms, t);
        EXPECT_EQ(back.sensor, id);
      }
    }
  }
  EXPECT_EQ(sensors::kAllSensorTypes.size(), 6u);

  for (bool fail : {true, false}) {
    const ReadResponseFrame frame = encode_read_response(fail);
    EXPECT_EQ(std::vector<std::uint8_t>(frame.begin(), frame.end()),
              encode(ReadResponse{fail}));
    EXPECT_EQ(decode_read_response(frame).fail, fail);
  }
}

// The buffered encoders behind encode(Message) for the two other messages.
TEST(HinjMessages, BufferedFramesMatchGeneralEncode) {
  ByteWriter w;
  encode_heartbeat(w, 999);
  EXPECT_EQ(w.bytes(), encode(Heartbeat{999}));

  w.clear();
  encode_mode_update(w, 12345, 0x0501, "auto-wp1");
  EXPECT_EQ(w.bytes(), encode(ModeUpdate{12345, 0x0501, "auto-wp1"}));
}

// Server::handle_read (the client's fixed-frame path) and handle_frame (the
// general dispatch) must answer with the same bytes as handle().
TEST(HinjMessages, HandleFrameResponsesMatchGeneralHandle) {
  CountingFailDirector director;
  Server server(director);

  for (bool fail : {false, true}) {
    director.fail = fail;
    const ReadRequestFrame request = encode_read_request(42, {sensors::SensorType::kGps, 0});
    ByteWriter response;
    server.handle_frame(request, response);
    const ReadResponseFrame fixed = server.handle_read(request);
    EXPECT_EQ(response.bytes(), std::vector<std::uint8_t>(fixed.begin(), fixed.end()));
    EXPECT_EQ(response.bytes(), server.handle({request.begin(), request.end()}));
    EXPECT_EQ(decode_read_response(fixed).fail, fail);
  }

  // Messages without a response leave the (cleared) buffer empty, exactly
  // as handle() returns an empty frame.
  ByteWriter response;
  server.handle_frame(encode(Heartbeat{500}), response);
  EXPECT_TRUE(response.empty());
  EXPECT_TRUE(server.handle(encode(Heartbeat{500})).empty());
}

// Malformed read frames fail loudly on every entry point and never reach
// the director.
TEST(HinjMessages, MalformedReadFramesThrow) {
  CountingFailDirector director;
  Server server(director);
  const ReadRequestFrame good = encode_read_request(100, {sensors::SensorType::kGps, 0});

  // Truncated (and over-long) ReadRequest through the general dispatch.
  ByteWriter response;
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_THROW(server.handle_frame(truncated, response), WireError);
  std::vector<std::uint8_t> trailing(good.begin(), good.end());
  trailing.push_back(0);
  EXPECT_THROW(server.handle_frame(trailing, response), WireError);

  // A fixed-size frame whose type byte is not ReadRequest.
  for (const MessageType type : {MessageType::kModeUpdate, MessageType::kReadResponse,
                                 MessageType::kHeartbeat}) {
    ReadRequestFrame wrong = good;
    wrong[0] = static_cast<std::uint8_t>(type);
    EXPECT_THROW(server.handle_read(wrong), WireError);
  }
  ReadRequestFrame unknown = good;
  unknown[0] = 0xEE;
  EXPECT_THROW(server.handle_read(unknown), WireError);
  EXPECT_EQ(director.reads, 0);

  // The response decoder checks length and type the same way.
  const ReadResponseFrame resp = encode_read_response(true);
  EXPECT_THROW(decode_read_response(std::span(resp).first(1)), WireError);
  EXPECT_THROW(decode_read_response(good), WireError);
}

TEST(HinjMessages, ByteWriterClearRetainsCapacity) {
  ByteWriter w;
  encode_heartbeat(w, 1);
  const auto first = w.bytes();
  const std::size_t capacity = w.bytes().capacity();
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.bytes().capacity(), capacity);
  encode_heartbeat(w, 1);
  EXPECT_EQ(w.bytes(), first);
}

TEST(HinjMessages, ByteReaderStrViewPointsIntoFrame) {
  ByteWriter w;
  encode_mode_update(w, 7, 0x0400, "takeoff");
  ByteReader r(w.span());
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kModeUpdate);
  EXPECT_EQ(r.i64(), 7);
  EXPECT_EQ(r.u16(), 0x0400);
  const std::string_view name = r.str_view();
  EXPECT_EQ(name, "takeoff");
  // Zero-copy: the view aliases the writer's buffer, no owned string.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(name.data()), w.span().data());
  EXPECT_LT(reinterpret_cast<const std::uint8_t*>(name.data()),
            w.span().data() + w.size());
  EXPECT_TRUE(r.exhausted());
}

class CountingDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    ++reads;
    last_sensor = sensor;
    last_time = time_ms;
    return fail_next;
  }
  void on_mode_update(std::uint16_t mode_id, std::string_view name,
                      std::int64_t time_ms) override {
    modes.emplace_back(mode_id, std::string(name), time_ms);
  }
  void on_heartbeat(std::int64_t time_ms) override { last_heartbeat = time_ms; }

  int reads = 0;
  bool fail_next = false;
  sensors::SensorId last_sensor;
  std::int64_t last_time = 0;
  std::int64_t last_heartbeat = 0;
  std::vector<std::tuple<std::uint16_t, std::string, std::int64_t>> modes;
};

TEST(HinjClientServer, SensorReadRoundTrip) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  EXPECT_FALSE(client.sensor_read({sensors::SensorType::kBarometer, 0}, 42));
  EXPECT_EQ(director.reads, 1);
  EXPECT_EQ(director.last_sensor, (sensors::SensorId{sensors::SensorType::kBarometer, 0}));
  EXPECT_EQ(director.last_time, 42);

  director.fail_next = true;
  EXPECT_TRUE(client.sensor_read({sensors::SensorType::kGps, 0}, 43));
}

TEST(HinjClientServer, ModeUpdatesReachDirector) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  client.update_mode(0x0400, "takeoff", 3540);
  client.update_mode(0x0501, "auto-wp1", 13000);
  ASSERT_EQ(director.modes.size(), 2u);
  EXPECT_EQ(std::get<0>(director.modes[0]), 0x0400);
  EXPECT_EQ(std::get<1>(director.modes[1]), "auto-wp1");
  EXPECT_EQ(std::get<2>(director.modes[1]), 13000);
}

TEST(HinjClientServer, HeartbeatReachesDirector) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  client.heartbeat(500);
  EXPECT_EQ(director.last_heartbeat, 500);
}

TEST(HinjClientServer, NullDirectorNeverFails) {
  NullDirector director;
  Server server(director);
  Client client(server);
  for (int t = 0; t < 100; ++t) {
    EXPECT_FALSE(client.sensor_read({sensors::SensorType::kGyroscope, 0}, t));
  }
}

TEST(HinjClientServer, DirectorSwappableMidRun) {
  NullDirector null;
  CountingDirector counting;
  Server server(null);
  Client client(server);
  EXPECT_FALSE(client.sensor_read({sensors::SensorType::kGps, 0}, 1));
  server.set_director(counting);
  counting.fail_next = true;
  EXPECT_TRUE(client.sensor_read({sensors::SensorType::kGps, 0}, 2));
}

}  // namespace
}  // namespace avis::hinj
