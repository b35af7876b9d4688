// Bounds-checked big-endian wire serialization.
//
// Every packet in src/net has an explicit wire format encoded/decoded with
// these helpers. WireReader never reads past the buffer: all getters return
// false (or std::nullopt via helpers) on truncated input, so decoding
// attacker-supplied bytes can never crash — a property fuzz-tested in
// tests/wire_test.cc.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "util/bytes.h"

namespace paai {

/// Stores `v` big-endian at `out` (sizeof(T) bytes).
template <typename T>
inline void store_be(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

class WireWriter {
 public:
  WireWriter() = default;
  /// Reserves the encoded size up front, so the buffer is allocated once.
  /// Writing starts over `reuse`, whose capacity is kept: an encoder
  /// handed a recycled buffer allocates nothing once it is large enough.
  explicit WireWriter(std::size_t size, Bytes reuse = {})
      : buf_(std::move(reuse)) {
    buf_.clear();
    buf_.reserve(size);
  }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(ByteView data);
  /// Length-prefixed (u16) variable byte string.
  void var_bytes(ByteView data);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_be(buf_.data() + at, v);
  }

  Bytes buf_;
};

class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  bool u8(std::uint8_t& out);
  bool u16(std::uint16_t& out);
  bool u32(std::uint32_t& out);
  bool u64(std::uint64_t& out);
  /// Copies exactly n bytes.
  bool raw(std::size_t n, Bytes& out);
  /// Reads a u16 length prefix then that many bytes. Fails if the prefix
  /// exceeds the remaining buffer.
  bool var_bytes(Bytes& out);
  /// Like raw / var_bytes, but views the bytes in place instead of copying
  /// them; the view is valid as long as the input buffer is.
  bool view(std::size_t n, ByteView& out);
  bool var_view(ByteView& out);
  /// Copies exactly N bytes into a fixed-size field.
  template <std::size_t N>
  bool fixed(std::array<std::uint8_t, N>& out) {
    const std::uint8_t* p = nullptr;
    if (!take(N, p)) return false;
    std::memcpy(out.data(), p, N);
    return true;
  }
  /// Skips n bytes.
  bool skip(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  bool take(std::size_t n, const std::uint8_t*& p);

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace paai
