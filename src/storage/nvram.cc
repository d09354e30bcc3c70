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
  images_.push_back(Image{std::move(bytes), 0});
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
  if (images_.empty()) back_open_ = false;
  if (occupancy_probe_) occupancy_probe_(used_);
}

void NvramQueue::Repack(EntrySizeFn entry_size) {
  std::deque<Image> old = std::move(images_);
  images_.clear();
  back_open_ = false;
  for (const Image& image : old) {
    const Bytes& src = *image.bytes;
    size_t pos = header_bytes_;
    for (uint32_t i = 0; i < image.entries; ++i) {
      const size_t n = entry_size(src, pos);
      Image& dst = ImageFor(n);
      dst.bytes->insert(dst.bytes->end(), src.begin() + pos,
                        src.begin() + pos + n);
      ++dst.entries;
      pos += n;
    }
  }
}

}  // namespace dlog::storage
