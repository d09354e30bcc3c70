#ifndef DLOG_STORAGE_NVRAM_H_
#define DLOG_STORAGE_NVRAM_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"

namespace dlog::storage {

/// The log server's group buffer in low-latency non-volatile memory
/// (Section 5.1: battery-backed CMOS): a FIFO of track images. Records
/// accumulate here (making them stable, so forces can be acknowledged
/// immediately) until a full track's worth is written to disk at once
/// (Section 4.1). Each entry is written once, in the owner's on-disk
/// format, straight into the open image; an entry that would overflow it
/// seals that image and opens the next. A flush hands the front image
/// itself to the disk. Access is at memory speed, so no simulated time is
/// charged here: callers account CPU instructions for the copy.
///
/// The queue survives Crash(): a restarted server drains whatever its
/// predecessor had buffered.
class NvramQueue {
 public:
  /// One track image: `header_bytes` reserved for the owner's track
  /// header, then entries. Its buffer is allocated at the full image size
  /// when the image opens and never moves, so views of written bytes stay
  /// valid while later entries are appended. `track` is the disk track
  /// the image is to be written to, numbered when it opens: images flush
  /// in FIFO order, so the front image always takes the next track.
  struct Image {
    std::shared_ptr<Bytes> bytes;
    uint32_t entries = 0;
    uint64_t track = 0;
  };

  /// Where an entry sits: its image's track and its offset in the image.
  struct Position {
    uint64_t track = 0;
    size_t offset = 0;
  };

  /// `capacity_bytes` bounds the buffered entry bytes (image headers are
  /// not counted); each image holds at most `image_bytes`, header
  /// included.
  NvramQueue(size_t capacity_bytes, size_t image_bytes, size_t header_bytes)
      : capacity_(capacity_bytes),
        image_bytes_(image_bytes),
        header_bytes_(header_bytes) {}

  NvramQueue(const NvramQueue&) = delete;
  NvramQueue& operator=(const NvramQueue&) = delete;

  /// True if an `n`-byte entry fits within capacity.
  bool HasRoom(size_t n) const { return used_ + n <= capacity_; }

  /// Appends an `n`-byte entry that `write(image)` appends to the open
  /// image's buffer, sealing the open image first and opening a fresh one
  /// when the entry would overflow it, and stores where it went in `at`
  /// (if given). ResourceExhausted if the entry does not fit within
  /// capacity; InvalidArgument if it is larger than an image's entry
  /// space.
  template <typename Write>
  Status Append(size_t n, Write&& write, Position* at = nullptr) {
    if (!HasRoom(n)) return Status::ResourceExhausted("nvram queue full");
    if (header_bytes_ + n > image_bytes_) {
      return Status::InvalidArgument("entry larger than an image");
    }
    Image& image = ImageFor(n);
    [[maybe_unused]] const uint8_t* const data = image.bytes->data();
    const size_t before = image.bytes->size();
    write(image.bytes);
    assert(image.bytes->size() == before + n && image.bytes->data() == data);
    ++image.entries;
    used_ += n;
    if (at != nullptr) *at = Position{image.track, before};
    return Status::OK();
  }

  /// The buffered images, oldest first. Every image but the last is
  /// sealed; the last takes the next entry unless Seal() closed it.
  const std::deque<Image>& images() const { return images_; }
  Image& front() { return images_.front(); }

  /// The track of the front image, or of the next image to open when
  /// the queue is empty. Every track below it has left the queue.
  uint64_t first_track() const { return first_track_; }

  /// The buffered image numbered `track`, which must be in the queue.
  const Image& image(uint64_t track) const {
    return images_[static_cast<size_t>(track - first_track_)];
  }

  /// Closes the open image to further entries and moves it into a buffer
  /// of exactly its written size: a partly full track is about to be
  /// flushed, and views of its entries would otherwise pin a whole
  /// track's allocation. Entries keep their positions. No-op when no
  /// image is open.
  void Seal();

  /// Removes the front image (it has reached the disk); the next image
  /// takes the next track.
  void PopFront();

  /// Re-lays every buffered entry greedily from the front, as appending
  /// them afresh in order would: a sealed, partly full image takes back
  /// the entries that followed it. The images are numbered from
  /// `first_track` on. `entry_size(image, pos)` is the size of the entry
  /// at `pos` of an image's buffer, and `moved(from, to, entry)`, when
  /// given, learns each entry's old and new position and its bytes. The
  /// buffered bytes do not change; every image gets a new buffer.
  using EntrySizeFn = size_t (*)(const Bytes& image, size_t pos);
  using MovedFn = std::function<void(Position from, Position to,
                                     std::span<const uint8_t> entry)>;
  void Repack(EntrySizeFn entry_size, uint64_t first_track,
              const MovedFn& moved = nullptr);

  /// Buffered entry bytes.
  size_t used_bytes() const { return used_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return images_.empty(); }

 private:
  /// The image an `n`-byte entry goes into: the open image if the entry
  /// fits it, else a fresh one (its header zeroed), which becomes the
  /// open image.
  Image& ImageFor(size_t n);

  size_t capacity_;
  size_t image_bytes_;
  size_t header_bytes_;
  size_t used_ = 0;
  uint64_t first_track_ = 0;
  /// Whether images_.back() takes more entries.
  bool back_open_ = false;
  std::deque<Image> images_;
};

/// A single non-volatile integer cell with atomic read/write, used for
/// the generator state representatives of Appendix I ("each store an
/// integer in non-volatile storage", with Read and Write "atomic at
/// individual representatives").
class StableCell {
 public:
  explicit StableCell(uint64_t initial = 0) : value_(initial) {}

  uint64_t Read() const { return value_; }
  void Write(uint64_t v) { value_ = v; }

 private:
  uint64_t value_;
};

}  // namespace dlog::storage

#endif  // DLOG_STORAGE_NVRAM_H_
