#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "storage/nvram.h"

namespace dlog::storage {
namespace {

TEST(SimDiskTest, WriteThenReadRoundTrip) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  Bytes data = ToBytes("track zero contents");

  Status write_status = Status::Internal("not called");
  disk.WriteTrack(0, data, [&](Status st) { write_status = st; });
  sim.Run();
  EXPECT_TRUE(write_status.ok());

  Result<SharedBytes> read = Status::Internal("not called");
  disk.ReadTrack(0, [&](Result<SharedBytes> r) { read = std::move(r); });
  sim.Run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(SimDiskTest, ReadUnwrittenTrackIsNotFound) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  Result<SharedBytes> read = Status::Internal("not called");
  disk.ReadTrack(5, [&](Result<SharedBytes> r) { read = std::move(r); });
  sim.Run();
  EXPECT_TRUE(read.status().IsNotFound());
}

TEST(SimDiskTest, OversizedWriteRejected) {
  sim::Simulator sim;
  DiskConfig cfg;
  cfg.track_bytes = 64;
  SimDisk disk(&sim, cfg);
  Status st = Status::OK();
  disk.WriteTrack(0, Bytes(65, 0), [&](Status s) { st = s; });
  sim.Run();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SimDiskTest, OutOfRangeTrackRejected) {
  sim::Simulator sim;
  DiskConfig cfg;
  cfg.num_tracks = 10;
  SimDisk disk(&sim, cfg);
  Status st = Status::OK();
  disk.WriteTrack(10, Bytes(1, 0), [&](Status s) { st = s; });
  sim.Run();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SimDiskTest, WriteOnceModeForbidsOverwrite) {
  sim::Simulator sim;
  DiskConfig cfg;
  cfg.write_once = true;
  SimDisk disk(&sim, cfg);
  Status first = Status::Internal("x"), second = Status::OK();
  disk.WriteTrack(3, ToBytes("a"), [&](Status s) { first = s; });
  sim.Run();
  disk.WriteTrack(3, ToBytes("b"), [&](Status s) { second = s; });
  sim.Run();
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ToString(*disk.Peek(3)), "a");
}

TEST(SimDiskTest, SequentialWritesSkipSeek) {
  sim::Simulator sim;
  DiskConfig cfg;
  cfg.rpm = 3600;  // 16.67 ms/rotation
  cfg.avg_seek = 25 * sim::kMillisecond;
  SimDisk disk(&sim, cfg);

  sim::Time t0 = 0, t1 = 0, t2 = 0;
  disk.WriteTrack(0, Bytes(1, 0), [&](Status) { t0 = sim.Now(); });
  sim.Run();
  disk.WriteTrack(1, Bytes(1, 0), [&](Status) { t1 = sim.Now(); });
  sim.Run();
  disk.WriteTrack(500, Bytes(1, 0), [&](Status) { t2 = sim.Now(); });
  sim.Run();
  const sim::Duration sequential = t1 - t0;
  const sim::Duration seeky = t2 - t1;
  EXPECT_EQ(seeky, sequential + cfg.avg_seek);
}

TEST(SimDiskTest, CrashDropsInFlightWritePreservesContents) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  bool called = false;
  disk.WriteTrack(0, ToBytes("durable"), [&](Status) { called = true; });
  sim.Run();
  ASSERT_TRUE(called);

  bool second_called = false;
  disk.WriteTrack(1, ToBytes("torn"), [&](Status) { second_called = true; });
  disk.Crash();  // before the write completes
  sim.Run();
  EXPECT_FALSE(second_called);
  EXPECT_TRUE(disk.IsWritten(0));   // old contents survive
  EXPECT_FALSE(disk.IsWritten(1));  // in-flight write lost whole
}

TEST(SimDiskTest, RequestsAreServedFifo) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  std::vector<int> order;
  disk.WriteTrack(0, Bytes(1, 0), [&](Status) { order.push_back(0); });
  disk.WriteTrack(1, Bytes(1, 0), [&](Status) { order.push_back(1); });
  disk.ReadTrack(0, [&](Result<SharedBytes>) { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimDiskTest, UtilizationGrowsWithLoad) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  auto elapsed = [&]() {
    return sim::BusyElapsed(disk.busy_time(), disk.busy_until(), sim.Now());
  };
  disk.WriteTrack(0, Bytes(1, 0), nullptr);
  // Track 0 is under the head: half a rotation of latency, one of
  // transfer, charged at submission.
  const sim::Duration service = disk.RotationTime() / 2 + disk.RotationTime();
  EXPECT_EQ(disk.busy_time(), service);
  EXPECT_EQ(disk.busy_until(), service);
  EXPECT_EQ(elapsed(), 0u);
  sim.Run();
  EXPECT_EQ(sim.Now(), service);  // nothing but the write happened yet
  EXPECT_EQ(elapsed(), service);
  sim.RunUntil(sim.Now() * 2);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(elapsed()) / static_cast<double>(sim.Now()), 0.5);
}

TEST(SimDiskTest, CrashDropsTheUnservedTailFromTheBusyAccount) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskConfig{});
  disk.WriteTrack(0, Bytes(1, 0), nullptr);
  disk.WriteTrack(1, Bytes(1, 0), nullptr);
  const sim::Duration service = disk.RotationTime() / 2 + disk.RotationTime();
  sim.RunUntil(service / 2);
  disk.Crash();  // half of the first write served, the second never
  EXPECT_EQ(disk.busy_time(), service / 2);
  EXPECT_EQ(disk.busy_until(), service / 2);
  disk.WriteTrack(2, Bytes(1, 0), nullptr);
  sim.Run();
  // Busy from 0 until the new write ended, with no gap.
  EXPECT_EQ(disk.busy_until(), service / 2 + service);
  EXPECT_EQ(sim::BusyElapsed(disk.busy_time(), disk.busy_until(), sim.Now()),
            disk.busy_until());
}

// --- NvramQueue ---

// Images of 32 bytes with 8-byte headers: 24 bytes of entries each.
constexpr size_t kImageBytes = 32;
constexpr size_t kHeaderBytes = 8;

/// Appends an `n`-byte entry: its size in the first byte, then `fill`.
Status AppendEntry(NvramQueue* q, size_t n, uint8_t fill) {
  return q->Append(n, [&](const std::shared_ptr<Bytes>& image) {
    image->push_back(static_cast<uint8_t>(n));
    image->insert(image->end(), n - 1, fill);
  });
}

size_t SizeFromFirstByte(const Bytes& image, size_t pos) {
  return image[pos];
}

/// A header followed by the given entries.
Bytes ImageOf(const std::vector<std::pair<size_t, uint8_t>>& entries) {
  Bytes out(kHeaderBytes, 0);
  for (const auto& [n, fill] : entries) {
    out.push_back(static_cast<uint8_t>(n));
    out.insert(out.end(), n - 1, fill);
  }
  return out;
}

TEST(NvramQueueTest, OverflowingEntrySealsImageAndOpensNext) {
  NvramQueue q(1024, kImageBytes, kHeaderBytes);
  ASSERT_TRUE(AppendEntry(&q, 10, 'a').ok());
  ASSERT_TRUE(AppendEntry(&q, 10, 'b').ok());
  ASSERT_EQ(q.images().size(), 1u);
  // 30 entry bytes would overflow the 24 an image holds.
  ASSERT_TRUE(AppendEntry(&q, 10, 'c').ok());
  ASSERT_EQ(q.images().size(), 2u);
  EXPECT_EQ(q.images()[0].entries, 2u);
  EXPECT_EQ(*q.images()[0].bytes, ImageOf({{10, 'a'}, {10, 'b'}}));
  // The sealed image takes nothing more, even an entry that would fit.
  ASSERT_TRUE(AppendEntry(&q, 4, 'd').ok());
  EXPECT_EQ(q.images()[0].entries, 2u);
  EXPECT_EQ(*q.images()[1].bytes, ImageOf({{10, 'c'}, {4, 'd'}}));
  // An entry larger than an image's entry space never fits.
  EXPECT_EQ(AppendEntry(&q, 25, 'e').code(), StatusCode::kInvalidArgument);
}

TEST(NvramQueueTest, UsedBytesCountsEntryBytesOnly) {
  NvramQueue q(1024, kImageBytes, kHeaderBytes);
  ASSERT_TRUE(AppendEntry(&q, 10, 'a').ok());
  ASSERT_TRUE(AppendEntry(&q, 10, 'b').ok());
  ASSERT_TRUE(AppendEntry(&q, 10, 'c').ok());
  ASSERT_EQ(q.images().size(), 2u);
  EXPECT_EQ(q.used_bytes(), 30u);  // two images, no header counted
  q.Seal();
  EXPECT_EQ(q.used_bytes(), 30u);
}

TEST(NvramQueueTest, PopFrontFreesExactlyItsEntries) {
  NvramQueue q(1024, kImageBytes, kHeaderBytes);
  std::vector<size_t> levels;
  auto append = [&](size_t n, uint8_t fill) {
    ASSERT_TRUE(AppendEntry(&q, n, fill).ok());
    levels.push_back(q.used_bytes());
  };
  append(10, 'a');
  append(10, 'b');
  append(10, 'c');
  append(4, 'd');
  q.PopFront();
  levels.push_back(q.used_bytes());
  ASSERT_EQ(q.images().size(), 1u);
  EXPECT_EQ(*q.images()[0].bytes, ImageOf({{10, 'c'}, {4, 'd'}}));
  q.PopFront();
  EXPECT_TRUE(q.empty());
  levels.push_back(q.used_bytes());
  q.PopFront();  // nothing left: a no-op
  levels.push_back(q.used_bytes());
  EXPECT_EQ(levels, (std::vector<size_t>{10, 20, 30, 34, 14, 0, 0}));
  // The next entry opens a fresh image.
  ASSERT_TRUE(AppendEntry(&q, 10, 'e').ok());
  EXPECT_EQ(*q.images()[0].bytes, ImageOf({{10, 'e'}}));
}

TEST(NvramQueueTest, CapacityEnforced) {
  NvramQueue q(20, kImageBytes, kHeaderBytes);
  ASSERT_TRUE(AppendEntry(&q, 10, 'a').ok());
  ASSERT_TRUE(AppendEntry(&q, 10, 'b').ok());
  EXPECT_FALSE(q.HasRoom(1));
  EXPECT_EQ(AppendEntry(&q, 1, 'c').code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(q.used_bytes(), 20u);
  q.PopFront();
  EXPECT_TRUE(AppendEntry(&q, 10, 'c').ok());
}

TEST(NvramQueueTest, SealRightSizesAndRepackRestoresGreedyPacking) {
  NvramQueue q(1024, kImageBytes, kHeaderBytes);
  ASSERT_TRUE(AppendEntry(&q, 10, 'a').ok());
  // A partly full image goes out: it shrinks to its written bytes...
  q.Seal();
  EXPECT_EQ(q.images()[0].bytes->capacity(), kHeaderBytes + 10);
  // ...and the next entry opens a new image though 'a' left room.
  ASSERT_TRUE(AppendEntry(&q, 10, 'b').ok());
  ASSERT_TRUE(AppendEntry(&q, 10, 'c').ok());
  ASSERT_EQ(q.images().size(), 2u);
  // The flush failed: packing from the front again puts 'b' beside 'a'.
  q.Repack(&SizeFromFirstByte, 0);
  ASSERT_EQ(q.images().size(), 2u);
  EXPECT_EQ(*q.images()[0].bytes, ImageOf({{10, 'a'}, {10, 'b'}}));
  EXPECT_EQ(*q.images()[1].bytes, ImageOf({{10, 'c'}}));
  EXPECT_EQ(q.images()[1].entries, 1u);
  EXPECT_EQ(q.used_bytes(), 30u);
  // The last image is open again.
  ASSERT_TRUE(AppendEntry(&q, 4, 'd').ok());
  EXPECT_EQ(*q.images()[1].bytes, ImageOf({{10, 'c'}, {4, 'd'}}));
}

// Each image is numbered with the disk track it will be written to:
// images flush in order, so the front image takes the next track, and a
// repack numbers the images afresh and reports where each entry went.
TEST(NvramQueueTest, ImagesAreNumberedByTheirTracks) {
  NvramQueue q(1024, kImageBytes, kHeaderBytes);
  NvramQueue::Position at;
  ASSERT_TRUE(q.Append(10, [](const std::shared_ptr<Bytes>& image) {
                 image->push_back(10);
                 image->insert(image->end(), 9, 'a');
               }, &at).ok());
  EXPECT_EQ(at.track, 0u);
  EXPECT_EQ(at.offset, kHeaderBytes);
  ASSERT_TRUE(AppendEntry(&q, 20, 'b').ok());
  ASSERT_TRUE(AppendEntry(&q, 20, 'c').ok());
  ASSERT_EQ(q.images().size(), 3u);
  EXPECT_EQ(q.images()[2].track, 2u);
  EXPECT_EQ(q.first_track(), 0u);
  q.PopFront();
  EXPECT_EQ(q.first_track(), 1u);
  EXPECT_EQ(q.image(2).bytes, q.images()[1].bytes);

  // The write of track 1 failed and burned its number.
  std::vector<std::pair<NvramQueue::Position, NvramQueue::Position>> moves;
  q.Repack(&SizeFromFirstByte, 2,
           [&moves](NvramQueue::Position from, NvramQueue::Position to,
                    std::span<const uint8_t> entry) {
             EXPECT_EQ(entry.size(), 20u);
             moves.push_back({from, to});
           });
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].first.track, 1u);
  EXPECT_EQ(moves[0].second.track, 2u);
  EXPECT_EQ(moves[1].first.track, 2u);
  EXPECT_EQ(moves[1].second.track, 3u);
  EXPECT_EQ(moves[1].second.offset, kHeaderBytes);
  EXPECT_EQ(q.first_track(), 2u);
  q.PopFront();
  q.PopFront();
  ASSERT_TRUE(AppendEntry(&q, 4, 'd').ok());
  EXPECT_EQ(q.images()[0].track, 4u);  // an empty queue keeps counting
}

TEST(StableCellTest, ReadWrite) {
  StableCell cell(7);
  EXPECT_EQ(cell.Read(), 7u);
  cell.Write(42);
  EXPECT_EQ(cell.Read(), 42u);
}

}  // namespace
}  // namespace dlog::storage
