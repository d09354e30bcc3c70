#include "storage/nvram.h"

#include <utility>

namespace dlog::storage {

NvramQueue::Image& NvramQueue::ImageFor(size_t n) {
  if (back_open_ && images_.back().bytes->size() + n <= image_bytes_) {
    return images_.back();
  }
  auto bytes = std::make_shared<Bytes>();
  bytes->reserve(image_bytes_);
  bytes->resize(header_bytes_);
  const uint64_t track =
      images_.empty() ? first_track_ : images_.back().track + 1;
  images_.push_back(Image{std::move(bytes), 0, track});
  back_open_ = true;
  return images_.back();
}

void NvramQueue::Seal() {
  if (!back_open_) return;
  back_open_ = false;
  Image& image = images_.back();
  image.bytes = std::make_shared<Bytes>(image.bytes->begin(),
                                        image.bytes->end());
}

void NvramQueue::PopFront() {
  if (images_.empty()) return;
  used_ -= images_.front().bytes->size() - header_bytes_;
  images_.pop_front();
  ++first_track_;
  if (images_.empty()) back_open_ = false;
}

void NvramQueue::Repack(EntrySizeFn entry_size, uint64_t first_track,
                        const MovedFn& moved) {
  std::deque<Image> old = std::move(images_);
  images_.clear();
  back_open_ = false;
  first_track_ = first_track;
  for (const Image& image : old) {
    const Bytes& src = *image.bytes;
    size_t pos = header_bytes_;
    for (uint32_t i = 0; i < image.entries; ++i) {
      const size_t n = entry_size(src, pos);
      Image& dst = ImageFor(n);
      const Position to{dst.track, dst.bytes->size()};
      dst.bytes->insert(dst.bytes->end(), src.begin() + pos,
                        src.begin() + pos + n);
      ++dst.entries;
      if (moved) moved(Position{image.track, pos}, to, {src.data() + pos, n});
      pos += n;
    }
  }
}

}  // namespace dlog::storage
