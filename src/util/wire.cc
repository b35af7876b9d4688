#include "util/wire.h"

#include <limits>
#include <stdexcept>

namespace paai {

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) { put(v); }

void WireWriter::u32(std::uint32_t v) { put(v); }

void WireWriter::u64(std::uint64_t v) { put(v); }

void WireWriter::raw(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void WireWriter::var_bytes(ByteView data) {
  // Oversized payloads indicate a programming error, not attacker input.
  if (data.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error("var_bytes: payload exceeds u16 length prefix");
  }
  u16(static_cast<std::uint16_t>(data.size()));
  raw(data);
}

bool WireReader::take(std::size_t n, const std::uint8_t*& p) {
  if (remaining() < n) return false;
  p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::u8(std::uint8_t& out) {
  const std::uint8_t* p = nullptr;
  if (!take(1, p)) return false;
  out = p[0];
  return true;
}

bool WireReader::u16(std::uint16_t& out) {
  const std::uint8_t* p = nullptr;
  if (!take(2, p)) return false;
  out = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  return true;
}

bool WireReader::u32(std::uint32_t& out) {
  const std::uint8_t* p = nullptr;
  if (!take(4, p)) return false;
  out = 0;
  for (int i = 0; i < 4; ++i) out = (out << 8) | p[i];
  return true;
}

bool WireReader::u64(std::uint64_t& out) {
  const std::uint8_t* p = nullptr;
  if (!take(8, p)) return false;
  out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | p[i];
  return true;
}

bool WireReader::raw(std::size_t n, Bytes& out) {
  ByteView v;
  if (!view(n, v)) return false;
  out.assign(v.begin(), v.end());
  return true;
}

bool WireReader::var_bytes(Bytes& out) {
  std::uint16_t len = 0;
  if (!u16(len)) return false;
  return raw(len, out);
}

bool WireReader::view(std::size_t n, ByteView& out) {
  const std::uint8_t* p = nullptr;
  if (!take(n, p)) return false;
  out = ByteView(p, n);
  return true;
}

bool WireReader::var_view(ByteView& out) {
  std::uint16_t len = 0;
  if (!u16(len)) return false;
  return view(len, out);
}

bool WireReader::skip(std::size_t n) {
  const std::uint8_t* p = nullptr;
  return take(n, p);
}

}  // namespace paai
