#include "sim/wire.h"

#include <vector>

namespace paai::sim {

namespace {

/// Free buffers kept per thread. A run has at most a few hundred packets
/// in flight or held in pending tables, so this covers the steady state
/// while bounding what an idle thread keeps.
constexpr std::size_t kPoolCap = 512;

// Set once the calling thread's pool is destroyed (a plain bool has no
// destructor, so it stays readable during thread teardown).
thread_local bool t_pool_gone = false;

}  // namespace

Wire::Wire(Bytes bytes) : buf_(acquire()) { buf_->bytes = std::move(bytes); }

Wire::Wire(const std::shared_ptr<const Bytes>& bytes) {
  if (bytes == nullptr) return;
  buf_ = acquire();
  buf_->bytes.assign(bytes->begin(), bytes->end());
}

std::vector<Wire::Buf*>* Wire::free_list() {
  struct Pool {
    Pool() { free.reserve(kPoolCap); }
    ~Pool() {
      for (Buf* buf : free) delete buf;
      t_pool_gone = true;
    }
    std::vector<Buf*> free;
  };
  if (t_pool_gone) return nullptr;
  thread_local Pool pool;
  return &pool.free;
}

Wire::Buf* Wire::acquire() {
  std::vector<Buf*>* free = free_list();
  if (free == nullptr || free->empty()) return new Buf;
  Buf* buf = free->back();
  free->pop_back();
  buf->refs = 1;
  buf->has_id = false;
  buf->bytes.clear();
  return buf;
}

void Wire::release(Buf* buf) noexcept {
  std::vector<Buf*>* free = free_list();
  if (free != nullptr && free->size() < kPoolCap) {
    free->push_back(buf);  // within the reserved capacity: cannot throw
  } else {
    delete buf;
  }
}

}  // namespace paai::sim
