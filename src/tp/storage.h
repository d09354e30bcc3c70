#ifndef DLOG_TP_STORAGE_H_
#define DLOG_TP_STORAGE_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "tp/wal.h"

namespace dlog::tp {

/// A database page: fixed-size byte image stamped with the LSN of the
/// last update applied to it (the WAL page-LSN protocol).
struct Page {
  Lsn lsn = kNoLsn;
  Bytes data;
};

/// The transaction node's stable page storage (its single local data
/// disk, Section 2). Contents survive Crash(); timing is not modeled
/// here — the logging disks are the bottleneck under study, and data-disk
/// I/O is the same for every logging design being compared.
class PageDisk {
 public:
  explicit PageDisk(size_t page_bytes) : page_bytes_(page_bytes) {}

  size_t page_bytes() const { return page_bytes_; }

  /// Reads a page; a never-written page comes back zero-filled.
  Page Read(PageId id) const;

  /// Writes a page image (the buffer pool's "clean" operation).
  void Write(PageId id, const Page& page);

  bool Exists(PageId id) const { return pages_.count(id) > 0; }
  size_t page_count() const { return pages_.size(); }

 private:
  size_t page_bytes_;
  std::map<PageId, Page> pages_;
};

/// A volatile page cache with dirty tracking. The WAL discipline is
/// enforced by the engine: a dirty page may only be cleaned once the log
/// is forced past the page's LSN (and, under record splitting, once the
/// relevant undo components are logged — Section 5.2).
///
/// Cached pages sit in one vector sorted by page id and are found by
/// binary search, never indexed by id: a page id read from a log record
/// must not size an allocation.
class BufferPool {
 public:
  explicit BufferPool(PageDisk* disk) : disk_(disk) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page (from cache or the page disk). The reference is valid
  /// until the next call that caches another page (Get or ApplyUpdate of
  /// an uncached id) or LoseAll.
  Page& Get(PageId id) { return Cached(id).page; }

  /// Applies `bytes` at `offset` and stamps the page with `lsn`. Fails
  /// with OutOfRange, touching nothing, if the bytes overrun the page.
  Status ApplyUpdate(PageId id, uint32_t offset,
                     std::span<const uint8_t> bytes, Lsn lsn);

  bool IsDirty(PageId id) const {
    const size_t i = LowerBound(id);
    return IsCachedAt(i, id) && cache_[i].dirty;
  }
  /// Ids of the dirty pages, ascending.
  std::vector<PageId> dirty_pages() const;

  /// Writes one page image to the page disk and clears its dirty bit.
  /// The caller must have satisfied the WAL rule first.
  void Clean(PageId id);

  /// Crash: the cache is volatile.
  void LoseAll() { cache_.clear(); }

 private:
  struct CachedPage {
    PageId id = 0;
    bool dirty = false;
    Page page;
  };
  /// The cached entry for `id`, read from the page disk on a miss.
  CachedPage& Cached(PageId id);
  /// Index of the first cached page whose id is not below `id`.
  size_t LowerBound(PageId id) const;
  bool IsCachedAt(size_t i, PageId id) const {
    return i < cache_.size() && cache_[i].id == id;
  }

  PageDisk* disk_;
  std::vector<CachedPage> cache_;  // ascending by id
};

}  // namespace dlog::tp

#endif  // DLOG_TP_STORAGE_H_
