// Wire: the bytes of one packet in flight, shared by every copy of it.
//
// A Wire is one pointer to a pooled buffer {refs, H(m), bytes}. Copying a
// Wire bumps a plain (non-atomic) counter and moving it is free; the last
// release returns the buffer to a capped thread-local free list that keeps
// its byte capacity, so a steady-state send allocates nothing.
//
// Thread contract: a Wire and all its copies live on one thread at a
// time. A simulation run owns its simulator and every wire in it, so this
// holds for the Monte-Carlo fan-out; a wire may move to another thread
// only together with all its copies (e.g. across a join). A buffer
// released after its thread's pool was torn down is deleted directly.
//
// Bytes are never written after a Wire is built, so every holder sees the
// same packet. A data packet's H(m) rides on the buffer: the source sets
// it once on the fresh, unshared wire it originates, and every hop reads
// it instead of re-hashing. A buffer leaving the pool never carries an
// id, and an altered copy is a new Wire built from bytes, so it has none
// either and is hashed where it is received.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "util/bytes.h"

namespace paai::sim {

class Wire {
 public:
  /// An empty wire: no buffer, empty view, no id.
  Wire() = default;

  /// A wire over `bytes`, with no id.
  explicit Wire(Bytes bytes);

  /// Copies `bytes` into a pooled buffer (null gives an empty wire).
  /// Implicit only so perfbench's sim probes, which still build
  /// std::shared_ptr<const Bytes> wires, compile unchanged; delete it
  /// once they build a Wire.
  Wire(const std::shared_ptr<const Bytes>& bytes);

  /// `msg` encoded into a pooled buffer's retained capacity.
  template <class Msg>
  static Wire of(const Msg& msg) {
    Wire w(acquire());
    w.buf_->bytes = msg.encode(std::move(w.buf_->bytes));
    return w;
  }

  Wire(const Wire& other) noexcept : buf_(other.buf_) {
    if (buf_ != nullptr) ++buf_->refs;
  }
  Wire(Wire&& other) noexcept : buf_(std::exchange(other.buf_, nullptr)) {}
  Wire& operator=(Wire other) noexcept {
    std::swap(buf_, other.buf_);
    return *this;
  }
  ~Wire() {
    if (buf_ != nullptr && --buf_->refs == 0) release(buf_);
  }

  ByteView view() const {
    return buf_ != nullptr ? ByteView(buf_->bytes.data(), buf_->bytes.size())
                           : ByteView{};
  }

  /// H(m) of the data packet in this buffer, or nullptr if none was set.
  const net::PacketId* id() const {
    return buf_ != nullptr && buf_->has_id ? &buf_->id : nullptr;
  }

  /// Records H(m). Only on a fresh wire nobody else holds yet, so no
  /// holder ever sees the id change.
  void set_id(const net::PacketId& id) {
    assert(buf_ != nullptr && buf_->refs == 1);
    buf_->id = id;
    buf_->has_id = true;
  }

  /// Holders of this buffer (0 for an empty wire); for tests.
  std::uint32_t use_count() const { return buf_ != nullptr ? buf_->refs : 0; }

 private:
  struct Buf {
    std::uint32_t refs = 1;
    bool has_id = false;
    net::PacketId id{};
    Bytes bytes;
  };

  explicit Wire(Buf* buf) : buf_(buf) {}

  /// A buffer with refs == 1, no id and empty bytes (capacity kept).
  static Buf* acquire();
  static void release(Buf* buf) noexcept;
  /// This thread's free buffers; nullptr once its pool is destroyed.
  static std::vector<Buf*>* free_list();

  Buf* buf_ = nullptr;
};

}  // namespace paai::sim
