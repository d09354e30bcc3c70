#include "tp/storage.h"

#include <algorithm>
#include <cassert>

namespace dlog::tp {

Page PageDisk::Read(PageId id) const {
  auto it = pages_.find(id);
  if (it != pages_.end()) return it->second;
  Page page;
  page.data.assign(page_bytes_, 0);
  return page;
}

void PageDisk::Write(PageId id, const Page& page) {
  assert(page.data.size() == page_bytes_);
  pages_[id] = page;
}

size_t BufferPool::LowerBound(PageId id) const {
  auto it = std::lower_bound(
      cache_.begin(), cache_.end(), id,
      [](const CachedPage& c, PageId key) { return c.id < key; });
  return static_cast<size_t>(it - cache_.begin());
}

BufferPool::CachedPage& BufferPool::Cached(PageId id) {
  const size_t i = LowerBound(id);
  if (!IsCachedAt(i, id)) {
    cache_.insert(cache_.begin() + static_cast<ptrdiff_t>(i),
                  CachedPage{id, false, disk_->Read(id)});
  }
  return cache_[i];
}

Status BufferPool::ApplyUpdate(PageId id, uint32_t offset,
                               std::span<const uint8_t> bytes, Lsn lsn) {
  CachedPage& cached = Cached(id);
  Page& page = cached.page;
  if (offset > page.data.size() || bytes.size() > page.data.size() - offset) {
    return Status::OutOfRange("update beyond page");
  }
  std::copy(bytes.begin(), bytes.end(), page.data.begin() + offset);
  page.lsn = lsn;
  cached.dirty = true;
  return Status::OK();
}

std::vector<PageId> BufferPool::dirty_pages() const {
  std::vector<PageId> dirty;
  for (const CachedPage& cached : cache_) {
    if (cached.dirty) dirty.push_back(cached.id);
  }
  return dirty;
}

void BufferPool::Clean(PageId id) {
  const size_t i = LowerBound(id);
  if (!IsCachedAt(i, id)) return;
  disk_->Write(id, cache_[i].page);
  cache_[i].dirty = false;
}

}  // namespace dlog::tp
