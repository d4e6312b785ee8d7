// Fixed-width little-endian byte encoding, shared by the hinj protocol and
// the MAVLink-like codec. Keeping real serialization boundaries between the
// firmware, the engine, and the ground-control station reproduces the
// process isolation of the paper's artifact while staying in-process.
//
// Both ends are built for reuse: a ByteWriter can be clear()ed between
// frames (retaining its capacity, so a steady-state encode touches no
// allocator), and a ByteReader reads from a std::span, so callers can decode
// straight out of a connection-owned buffer without copying.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace avis::util {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    if (s.size() > 0xffff) throw WireError("string too long");
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Append an already-encoded frame (e.g. a protocol's fixed-size frame).
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Drop the current frame but keep the capacity, so the next frame written
  // through this writer is allocation-free once the buffer has warmed up.
  void clear() { buf_.clear(); }

  bool empty() const { return buf_.empty(); }
  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> span() const { return {buf_.data(), buf_.size()}; }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  // Spans (and anything convertible to one, e.g. std::vector<uint8_t>) are
  // read in place — the reader never copies or owns the bytes.
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() {
    p_need(1);
    return buf_[pos_++];
  }

  std::uint16_t u16() {
    p_need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(buf_[pos_]) | (static_cast<std::uint16_t>(buf_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    p_need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    p_need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Zero-copy string read: a view over the underlying frame bytes, valid
  // only as long as the frame buffer is. Hot-path decoders (the hinj
  // server's ModeUpdate dispatch) consume the view before the connection
  // buffer is reused; anything that outlives the frame must copy.
  std::string_view str_view() {
    const std::uint16_t n = u16();
    p_need(n);
    std::string_view s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::string str() { return std::string(str_view()); }

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void p_need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw WireError("truncated message");
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace avis::util
