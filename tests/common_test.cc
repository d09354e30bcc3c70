#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/status.h"

namespace dlog {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing record");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing record");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").code() ==
              StatusCode::kInvalidArgument);
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Result<int> Doubled(Result<int> in) {
  DLOG_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::Aborted("x")).status().IsAborted());
}

// --- Encoder / Decoder ---

TEST(BytesTest, RoundTripScalars) {
  Bytes buf;
  Encoder enc(&buf, 1 + 2 + 4 + 8 + 4 + 5);
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutString("hello");

  Decoder dec(buf);
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetU16(), 0x1234);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*dec.GetString(), "hello");
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(enc.remaining(), 0u);
}

TEST(BytesTest, TruncatedDecodeFailsWithCorruption) {
  Bytes buf;
  Encoder enc(&buf, 8);
  enc.PutU64(7);
  Decoder dec(buf.data(), 3);  // cut mid-integer
  Result<uint64_t> r = dec.GetU64();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(BytesTest, TruncatedBlobFails) {
  Bytes buf;
  Encoder enc(&buf, 4 + 6);
  enc.PutBlob(ToBytes("abcdef"));
  Decoder dec(buf.data(), buf.size() - 2);
  EXPECT_FALSE(dec.GetBlob().ok());
}

TEST(BytesTest, EmptyBlobRoundTrip) {
  Bytes buf;
  Encoder enc(&buf, 4);
  enc.PutBlob(Bytes{});
  Decoder dec(buf);
  Result<Bytes> r = dec.GetBlob();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// The byte-at-a-time definition of the little-endian layout, which the
// memcpy kernels must match on a little-endian host.
uint64_t LoadLEByBytes(const uint8_t* p, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

TEST(BytesTest, LoadAndStoreAgreeWithTheByteLoopAtEveryWidthAndOffset) {
  Rng rng(29);
  for (const size_t width : {1u, 2u, 4u, 8u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (int trial = 0; trial < 32; ++trial) {
        uint8_t buf[24];
        for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
        const uint64_t expected = LoadLEByBytes(buf + offset, width);
        EXPECT_EQ(LoadLE(buf + offset, width), expected)
            << "width " << width << " offset " << offset;

        // A store writes exactly `width` bytes, low byte first, and
        // leaves its neighbours alone.
        const uint64_t v = rng.NextU64();
        uint8_t stored[24];
        std::copy(std::begin(buf), std::end(buf), stored);
        StoreLE(stored + offset, v, width);
        for (size_t i = 0; i < sizeof(stored); ++i) {
          const bool inside = i >= offset && i < offset + width;
          const uint8_t want =
              inside ? static_cast<uint8_t>(v >> (8 * (i - offset))) : buf[i];
          EXPECT_EQ(stored[i], want) << "width " << width << " offset "
                                     << offset << " byte " << i;
        }
        EXPECT_EQ(LoadLE(stored + offset, width),
                  width == 8 ? v : v & ((uint64_t{1} << (8 * width)) - 1));
      }
    }
  }
}

TEST(BytesTest, SizedEncoderWritesExactlyItsDeclaredBytes) {
  Bytes buf = ToBytes("head");
  const Bytes blob = ToBytes("xyz");
  Encoder enc(&buf, 2 + 8 + 4 + blob.size());
  // The buffer grows once, by the declared size, before anything is put.
  EXPECT_EQ(buf.size(), 4u + 17u);
  EXPECT_EQ(enc.remaining(), 17u);
  enc.PutU16(0x0102);
  enc.PutU64(0x1122334455667788ull);
  enc.PutBlob(blob);
  EXPECT_EQ(enc.remaining(), 0u);
  EXPECT_EQ(buf, Bytes({'h', 'e', 'a', 'd', 0x02, 0x01, 0x88, 0x77, 0x66,
                        0x55, 0x44, 0x33, 0x22, 0x11, 3, 0, 0, 0, 'x', 'y',
                        'z'}));
}

// An encoding whose declared size is too small must stop the program in
// every build type (asserts are off in Release), never write past it.
TEST(EncoderDeathTest, WritingPastTheDeclaredSizeAborts) {
  EXPECT_DEATH(
      {
        Bytes buf;
        Encoder enc(&buf, 6);
        enc.PutU32(1);
        enc.PutU32(2);  // 4 bytes with 2 left
      },
      "past its declared size");
  EXPECT_DEATH(
      {
        Bytes buf;
        Encoder enc(&buf, 4);
        enc.PutBlob(ToBytes("a"));  // the prefix fits, the byte does not
      },
      "past its declared size");
}

// --- SharedBytes / zero-copy decode ---

TEST(SharedBytesTest, SharesStorageAcrossCopiesAndSlices) {
  SharedBytes whole(ToBytes("hello, world"));
  SharedBytes copy = whole;                 // shares, no byte copy
  SharedBytes slice = whole.Slice(7, 5);    // "world"
  EXPECT_EQ(copy.data(), whole.data());
  EXPECT_EQ(slice.data(), whole.data() + 7);
  EXPECT_EQ(slice.view(), "world");
  EXPECT_TRUE(slice == SharedBytes(ToBytes("world")));
  EXPECT_TRUE(slice != whole);
}

TEST(SharedBytesTest, SliceKeepsBufferAliveAfterParentDies) {
  SharedBytes slice;
  {
    SharedBytes whole(ToBytes("the quick brown fox"));
    slice = whole.Slice(4, 5);
  }
  // The owning buffer is refcounted; the slice must still be readable
  // after every other handle is gone (ASan guards this).
  EXPECT_EQ(slice.view(), "quick");
}

TEST(SharedBytesTest, CopyAndToBytesAreCounted) {
  ResetBytesCopied();
  SharedBytes a(ToBytes("0123456789"));  // move-in: not a copy
  SharedBytes b = a.Slice(2, 6);         // view: not a copy
  EXPECT_EQ(BytesCopied(), 0u);
  Bytes owned = b.ToBytes();  // materialization: counted
  EXPECT_EQ(owned.size(), 6u);
  EXPECT_EQ(BytesCopied(), 6u);
  SharedBytes c = SharedBytes::Copy(a.data(), a.size());  // counted
  EXPECT_EQ(BytesCopied(), 16u);
  EXPECT_TRUE(c == a);
  ResetBytesCopied();
}

TEST(SharedBytesTest, GetStringCountsOneCopy) {
  Bytes buf;
  Encoder enc(&buf, 4 + 12);
  enc.PutString("twelve bytes");
  ResetBytesCopied();
  Decoder dec(buf);
  Result<std::string> s = dec.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "twelve bytes");
  // Exactly one copy: the materialization itself (the old implementation
  // built a temporary Bytes first, paying twice).
  EXPECT_EQ(BytesCopied(), 12u);
  ResetBytesCopied();
}

// --- CRC32C ---

TEST(Crc32cTest, KnownVector) {
  // Standard CRC-32C check value for "123456789".
  const Bytes data = ToBytes("123456789");
  EXPECT_EQ(crc32c::Value(data), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const Bytes data = ToBytes("distributed logging");
  uint32_t whole = crc32c::Value(data);
  uint32_t part = crc32c::Extend(0, data.data(), 5);
  part = crc32c::Extend(part, data.data() + 5, data.size() - 5);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, DetectsBitFlip) {
  Bytes data = ToBytes("log record payload");
  const uint32_t before = crc32c::Value(data);
  data[4] ^= 0x01;
  EXPECT_NE(before, crc32c::Value(data));
}

TEST(Crc32cTest, PortablePathGivesTheKnownVector) {
  const Bytes data = ToBytes("123456789");
  EXPECT_EQ(crc32c::internal::ExtendPortable(0, data.data(), data.size()),
            0xE3069283u);
}

// Extend runs the SSE4.2 instruction where the CPU has it; the portable
// tables are the reference it must match at every length, alignment and
// split of the input.
TEST(Crc32cTest, HardwarePathMatchesPortableTables) {
  if (!crc32c::internal::HardwareAccelerated()) {
    GTEST_SKIP() << "CPU lacks SSE4.2: Extend is the portable path";
  }
  Rng rng(20);
  Bytes buffer(20000 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextU64());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = trial < 64 ? static_cast<size_t>(trial)
                                : rng.NextBelow(20001);
    const uint32_t init = static_cast<uint32_t>(rng.NextU64());
    for (size_t start = 0; start < 8; ++start) {
      const uint8_t* data = buffer.data() + start;
      const uint32_t want = crc32c::internal::ExtendPortable(init, data, n);
      ASSERT_EQ(crc32c::Extend(init, data, n), want)
          << "n=" << n << " start=" << start;
      const size_t cut = n == 0 ? 0 : rng.NextBelow(n + 1);
      const uint32_t head = crc32c::Extend(init, data, cut);
      ASSERT_EQ(crc32c::Extend(head, data + cut, n - cut), want)
          << "n=" << n << " start=" << start << " cut=" << cut;
    }
  }
}

// --- RingQueue ---

// Elements leave in the order they came, while the ring wraps and while
// it grows with its live elements split across the wrap.
TEST(RingQueueTest, KeepsFifoOrderAcrossWrapAndGrowth) {
  RingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int depth : {1, 3, 2, 7, 4, 16, 5}) {
    while (static_cast<int>(q.size()) < depth) q.push_back(next_in++);
    for (size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(q[i], next_out + static_cast<int>(i));
    }
    while (q.size() > 1) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.front(), next_out);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(42);
  EXPECT_EQ(q.front(), 42);
}

// A pop destroys what its element held, as a deque's does.
TEST(RingQueueTest, PopReleasesTheElement) {
  auto held = std::make_shared<int>(7);
  RingQueue<std::shared_ptr<int>> q;
  q.push_back(held);
  q.push_back(nullptr);
  EXPECT_EQ(held.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(held.use_count(), 1);
  q.push_back(held);
  q.clear();
  EXPECT_EQ(held.use_count(), 1);
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kTrials, 2.0, 0.1);
}

// --- Interval / MergedLogView ---

TEST(LogTypesTest, IntervalContains) {
  Interval iv{3, 5, 9};
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_TRUE(iv.Contains(9));
  EXPECT_FALSE(iv.Contains(4));
  EXPECT_FALSE(iv.Contains(10));
}

TEST(LogTypesTest, IntervalListToStringFormats) {
  IntervalList list = {{1, 1, 3}, {3, 3, 9}};
  EXPECT_EQ(IntervalListToString(list), "[(<1,1> <3,1>) (<3,3> <9,3>)]");
}

TEST(MergedLogViewTest, EmptyInput) {
  MergedLogView view = MergedLogView::Build({});
  EXPECT_FALSE(view.HighLsn().has_value());
  EXPECT_EQ(view.Find(1), nullptr);
}

TEST(MergedLogViewTest, SingleServerSingleInterval) {
  MergedLogView view = MergedLogView::Build({{7, {2, 1, 5}}});
  ASSERT_TRUE(view.HighLsn().has_value());
  EXPECT_EQ(*view.HighLsn(), 5u);
  const auto* seg = view.Find(3);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->epoch, 2u);
  EXPECT_EQ(seg->servers, std::vector<ServerId>{7});
}

// The Figure 3-1 configuration: three servers, the merge must keep only
// the highest-epoch entry per LSN and remember every holder of it.
TEST(MergedLogViewTest, Figure31Merge) {
  std::vector<ServerInterval> intervals = {
      {1, {1, 1, 3}}, {1, {3, 3, 9}},   // server 1
      {2, {1, 1, 3}}, {2, {3, 6, 7}},   // server 2
      {3, {3, 3, 5}}, {3, {3, 8, 9}},   // server 3
  };
  MergedLogView view = MergedLogView::Build(intervals);

  ASSERT_EQ(view.segments().size(), 4u);
  // LSNs 1-2 win at epoch 1 (LSN 3 is superseded by epoch 3).
  EXPECT_EQ(view.segments()[0],
            (MergedLogView::Segment{1, 2, 1, {1, 2}}));
  EXPECT_EQ(view.segments()[1],
            (MergedLogView::Segment{3, 5, 3, {1, 3}}));
  EXPECT_EQ(view.segments()[2],
            (MergedLogView::Segment{6, 7, 3, {1, 2}}));
  EXPECT_EQ(view.segments()[3],
            (MergedLogView::Segment{8, 9, 3, {1, 3}}));
  EXPECT_EQ(*view.HighLsn(), 9u);
  EXPECT_EQ(*view.HighEpoch(), 3u);
  EXPECT_EQ(*view.MaxEpoch(), 3u);
}

TEST(MergedLogViewTest, FindBinarySearch) {
  MergedLogView view = MergedLogView::Build({
      {1, {1, 1, 10}},
      {2, {2, 11, 20}},
      {3, {3, 21, 30}},
  });
  EXPECT_EQ(view.Find(1)->epoch, 1u);
  EXPECT_EQ(view.Find(15)->epoch, 2u);
  EXPECT_EQ(view.Find(30)->epoch, 3u);
  EXPECT_EQ(view.Find(31), nullptr);
}

TEST(MergedLogViewTest, NoteWriteExtendsTail) {
  MergedLogView view;
  view.NoteWrite(1, 5, {1, 2});
  view.NoteWrite(2, 5, {1, 2});
  view.NoteWrite(3, 5, {2, 1});  // holder order normalized
  ASSERT_EQ(view.segments().size(), 1u);
  EXPECT_EQ(view.segments()[0],
            (MergedLogView::Segment{1, 3, 5, {1, 2}}));
}

TEST(MergedLogViewTest, NoteWriteNewServersSplitsSegment) {
  MergedLogView view;
  view.NoteWrite(1, 5, {1, 2});
  view.NoteWrite(2, 5, {1, 2});
  view.NoteWrite(3, 5, {1, 3});  // switched servers
  ASSERT_EQ(view.segments().size(), 2u);
  EXPECT_EQ(view.segments()[1],
            (MergedLogView::Segment{3, 3, 5, {1, 3}}));
}

// Recovery copies the tail record under a new epoch: the note must
// supersede the old coverage of that LSN.
TEST(MergedLogViewTest, NoteWriteHigherEpochOverridesInterior) {
  MergedLogView view = MergedLogView::Build({{1, {3, 1, 9}}});
  view.NoteWrite(9, 4, {1, 2});
  view.NoteWrite(10, 4, {1, 2});
  const auto* seg = view.Find(9);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->epoch, 4u);
  EXPECT_EQ(seg->servers, (std::vector<ServerId>{1, 2}));
  EXPECT_EQ(view.Find(8)->epoch, 3u);
  EXPECT_EQ(*view.HighLsn(), 10u);
}

TEST(MergedLogViewTest, NoteWriteLowerEpochIsIgnored) {
  MergedLogView view = MergedLogView::Build({{1, {5, 1, 9}}});
  view.NoteWrite(4, 3, {9});
  EXPECT_EQ(view.Find(4)->epoch, 5u);
  EXPECT_EQ(view.Find(4)->servers, (std::vector<ServerId>{1}));
}

TEST(MergedLogViewTest, EqualEpochOverlapKeepsAllHolders) {
  MergedLogView view = MergedLogView::Build({
      {1, {3, 1, 5}},
      {2, {3, 4, 8}},
  });
  EXPECT_EQ(view.Find(4)->servers, (std::vector<ServerId>{1, 2}));
  EXPECT_EQ(view.Find(2)->servers, (std::vector<ServerId>{1}));
  EXPECT_EQ(view.Find(7)->servers, (std::vector<ServerId>{2}));
}

}  // namespace
}  // namespace dlog
