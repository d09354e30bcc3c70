#ifndef DLOG_SERVER_TRACK_IMAGES_H_
#define DLOG_SERVER_TRACK_IMAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"

namespace dlog::server {

/// Where a stored copy of a record sits: the track its image is (or will
/// be) written to, and the offset of its stream entry in that image.
struct RecordLocation {
  uint64_t track = 0;
  uint32_t offset = 0;

  friend bool operator==(const RecordLocation&,
                         const RecordLocation&) = default;
};

/// The track images a ClientLogStore keeps its records in: a log server's
/// NVRAM group buffer and disk, or an in-memory stand-in. Each entry is a
/// stream entry (track_format.h): the client id, then the record's wire
/// encoding.
class TrackImages {
 public:
  virtual ~TrackImages() = default;

  /// Writes the stream entry of `client`'s record, whose wire encoding is
  /// `record`, into the open image. Where it went, or nullopt when there
  /// is no room for it.
  virtual std::optional<RecordLocation> Append(
      ClientId client, std::span<const uint8_t> record) = 0;

  /// The written bytes of image `track`, which holds a stored entry.
  virtual SharedBytes Image(uint64_t track) const = 0;
};

/// Track images kept in memory and never flushed: the storage of the
/// reference model's in-memory servers and of store tests.
class MemoryTrackImages final : public TrackImages {
 public:
  /// Bytes an image is allocated with (a larger entry gets an image of
  /// its own size).
  static constexpr size_t kImageBytes = 4096;

  std::optional<RecordLocation> Append(
      ClientId client, std::span<const uint8_t> record) override;
  SharedBytes Image(uint64_t track) const override;

 private:
  // Each buffer is allocated at its final capacity, so views of its
  // written bytes stay valid as entries are appended.
  std::vector<std::shared_ptr<Bytes>> images_;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_TRACK_IMAGES_H_
