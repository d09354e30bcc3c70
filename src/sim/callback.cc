#include "sim/callback.h"

#include <cstdlib>
#include <vector>

namespace dlog::sim::internal {
namespace {

/// Free list of fixed-size blocks for oversize callback captures. One per
/// thread, so no locking: each call touches only the calling thread's
/// list. Blocks themselves may migrate lists — a callback handed to
/// another thread is freed there — which is safe because every block is
/// a plain ::operator new allocation; migration just means a block
/// drains into the freeing thread's cache.
struct Slab {
  std::vector<void*> free_blocks;
  /// Cap the cached blocks so a burst does not pin memory forever.
  static constexpr size_t kMaxCached = 4096;

  ~Slab() {
    for (void* p : free_blocks) ::operator delete(p);
  }
};

Slab& slab() {
  thread_local Slab s;
  return s;
}

}  // namespace

void* PoolAllocate(size_t bytes) {
  (void)bytes;  // every pooled block has kPoolBlockBytes capacity
  Slab& s = slab();
  if (!s.free_blocks.empty()) {
    void* p = s.free_blocks.back();
    s.free_blocks.pop_back();
    return p;
  }
  return ::operator new(kPoolBlockBytes);
}

void PoolFree(void* p, size_t bytes) {
  (void)bytes;
  Slab& s = slab();
  if (s.free_blocks.size() < Slab::kMaxCached) {
    s.free_blocks.push_back(p);
  } else {
    ::operator delete(p);
  }
}

}  // namespace dlog::sim::internal
