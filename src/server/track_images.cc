#include "server/track_images.h"

#include <algorithm>

#include "server/track_format.h"

namespace dlog::server {

std::optional<RecordLocation> MemoryTrackImages::Append(
    ClientId client, std::span<const uint8_t> record) {
  const size_t n = kStreamEntryClientBytes + record.size();
  if (images_.empty() ||
      images_.back()->capacity() - images_.back()->size() < n) {
    auto image = std::make_shared<Bytes>();
    image->reserve(std::max(kImageBytes, n));
    images_.push_back(std::move(image));
  }
  Bytes* image = images_.back().get();
  const RecordLocation at{images_.size() - 1,
                          static_cast<uint32_t>(image->size())};
  AppendStreamEntry(image, client, record);
  return at;
}

SharedBytes MemoryTrackImages::Image(uint64_t track) const {
  const std::shared_ptr<Bytes>& image = images_[static_cast<size_t>(track)];
  return SharedBytes(image, 0, image->size());
}

}  // namespace dlog::server
