#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "common/log_types.h"
#include "server/client_log_store.h"
#include "server/track_format.h"

namespace dlog::server {
namespace {

LogRecord Rec(Lsn lsn, Epoch epoch, bool present = true,
              std::string_view data = "d") {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = ToBytes(data);
  return r;
}

TEST(ClientLogStoreTest, EmptyStore) {
  ClientLogStore store;
  EXPECT_EQ(store.HighestLsn(), kNoLsn);
  EXPECT_EQ(store.TailEpoch(), 0u);
  EXPECT_TRUE(store.Intervals().empty());
  EXPECT_TRUE(store.Read(1).status().IsNotFound());
}

TEST(ClientLogStoreTest, SequentialWritesFormOneInterval) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 5}));
  EXPECT_EQ(store.HighestLsn(), 5u);
  EXPECT_EQ(store.ExpectedNextLsn(), 6u);
}

TEST(ClientLogStoreTest, LsnZeroRejected) {
  ClientLogStore store;
  EXPECT_FALSE(store.Write(Rec(0, 1)).ok());
}

TEST(ClientLogStoreTest, GapStartsNewInterval) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  // Client switched away and back: LSNs 3-4 live elsewhere.
  ASSERT_TRUE(store.Write(Rec(5, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 2}));
  EXPECT_EQ(ivs[1], (Interval{1, 5, 5}));
}

TEST(ClientLogStoreTest, EpochChangeStartsNewInterval) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 3)).ok());
  ASSERT_EQ(store.Intervals().size(), 2u);
  EXPECT_EQ(store.TailEpoch(), 3u);
}

TEST(ClientLogStoreTest, OutOfOrderRejected) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(5, 2)).ok());
  EXPECT_FALSE(store.Write(Rec(3, 2)).ok());   // lower LSN
  EXPECT_FALSE(store.Write(Rec(6, 1)).ok());   // lower epoch
  EXPECT_FALSE(store.Write(Rec(5, 2, false)).ok());  // conflicting dup
}

TEST(ClientLogStoreTest, ExactDuplicateIsIdempotent) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());  // redelivery
  EXPECT_EQ(store.record_count(), 1u);
}

// Figure 3-3, Server 1: the recovery procedure rewrites the tail record
// <9,3> as <9,4> — same LSN, higher epoch.
TEST(ClientLogStoreTest, TailRecopyWithHigherEpoch) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());
  ASSERT_TRUE(store.Write(Rec(9, 4)).ok());
  ASSERT_TRUE(store.Write(Rec(10, 4, false, "")).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{3, 1, 9}));
  EXPECT_EQ(ivs[1], (Interval{4, 9, 10}));
  // ServerReadLog returns the highest-epoch version.
  EXPECT_EQ(store.Read(9)->epoch, 4u);
  EXPECT_FALSE(store.Read(10)->present);
}

// Reconstructs Server 1 of Figure 3-1 record by record.
TEST(ClientLogStoreTest, Figure31Server1) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 3)).ok());           // recovery copy
  ASSERT_TRUE(store.Write(Rec(4, 3, false, "")).ok());  // not present
  for (Lsn l = 5; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());

  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 3}));
  EXPECT_EQ(ivs[1], (Interval{3, 3, 9}));
  EXPECT_EQ(store.Read(3)->epoch, 3u);
  EXPECT_FALSE(store.Read(4)->present);
  EXPECT_TRUE(store.Read(5)->present);
}

TEST(ClientLogStoreTest, StagedCopiesInvisibleUntilInstall) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(9, 4, true, "copy")).ok());
  ASSERT_TRUE(store.StageCopy(Rec(10, 4, false, "")).ok());

  // Not visible yet.
  EXPECT_EQ(store.Read(9)->epoch, 3u);
  EXPECT_EQ(store.HighestLsn(), 9u);
  EXPECT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.staged_count(), 2u);

  Result<std::vector<LogRecord>> installed = store.InstallCopies(4);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed->size(), 2u);
  EXPECT_EQ(store.Read(9)->epoch, 4u);
  EXPECT_EQ(store.Read(9)->data, ToBytes("copy"));
  EXPECT_EQ(store.HighestLsn(), 10u);
  EXPECT_EQ(store.staged_count(), 0u);
}

TEST(ClientLogStoreTest, InstallOfUnknownEpochIsNoOp) {
  ClientLogStore store;
  Result<std::vector<LogRecord>> r = store.InstallCopies(99);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(ClientLogStoreTest, InstallSortsByLsn) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  // Staged out of order.
  ASSERT_TRUE(store.StageCopy(Rec(5, 2, true, "b")).ok());
  ASSERT_TRUE(store.StageCopy(Rec(4, 2, true, "a")).ok());
  ASSERT_TRUE(store.InstallCopies(2).ok());
  IntervalList ivs = store.Intervals();
  // Installed copies form a contiguous epoch-2 sequence 4-5.
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[1], (Interval{2, 4, 5}));
}

TEST(ClientLogStoreTest, CopiesForDifferentEpochsAreIndependent) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(1, 2)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(1, 3)).ok());
  ASSERT_TRUE(store.InstallCopies(3).ok());
  EXPECT_EQ(store.Read(1)->epoch, 3u);
  EXPECT_EQ(store.staged_count(), 1u);  // epoch-2 copy still staged
}

TEST(ClientLogStoreTest, RestoreRoundTrip) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 3)).ok());
  ASSERT_TRUE(store.Write(Rec(4, 3, false, "")).ok());
  ASSERT_TRUE(store.Write(Rec(5, 3)).ok());

  ClientLogStore rebuilt;
  for (const LogRecord& r : store.stream()) rebuilt.Restore(r);
  EXPECT_EQ(rebuilt.Intervals(), store.Intervals());
  EXPECT_EQ(rebuilt.record_count(), store.record_count());
  EXPECT_EQ(rebuilt.Read(3)->epoch, 3u);
}

// A record flushed to two tracks is scanned twice on restart.
TEST(ClientLogStoreTest, RestoreSkipsDuplicates) {
  ClientLogStore store;
  for (const LogRecord& r :
       {Rec(1, 1), Rec(2, 1), Rec(1, 1), Rec(2, 1), Rec(3, 1)}) {
    store.Restore(r);
  }
  EXPECT_EQ(store.record_count(), 3u);
  ASSERT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.Intervals()[0], (Interval{1, 1, 3}));
}

// --- The stream rule (Sections 3.1.1, 4.2) ---

using Placement = ClientLogStore::Placement;

TEST(ClientLogStoreTest, EmptyStoreHoldsARecordPastLsnOneAndReportsTheGap) {
  ClientLogStore store;
  EXPECT_EQ(store.Place(Rec(5, 1)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{1, 4}));
  EXPECT_EQ(store.record_count(), 0u);
  EXPECT_EQ(store.Place(Rec(1, 1)), Placement::kExtend);
}

TEST(ClientLogStoreTest, HigherEpochPastAGapIsHeldUnlessAnnounced) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  EXPECT_EQ(store.Place(Rec(6, 2)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{4, 5}));

  // The announced start extends the stream; the announcement is used up
  // by it, so the next jump is held again.
  EXPECT_EQ(store.Announce(2, 9), std::nullopt);
  EXPECT_EQ(store.Gap(), std::nullopt);  // the held LSN 6 lives elsewhere
  EXPECT_EQ(store.Place(Rec(9, 2)), Placement::kExtend);
  ASSERT_TRUE(store.Write(Rec(9, 2)).ok());
  EXPECT_EQ(store.Place(Rec(12, 2)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{10, 11}));
}

TEST(ClientLogStoreTest, AnnouncementAfterItsRecordReleasesIt) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  EXPECT_EQ(store.Place(Rec(7, 1)), Placement::kHold);
  EXPECT_EQ(store.Place(Rec(8, 1)), Placement::kHold);

  const std::optional<LogRecord> start = store.Announce(1, 7);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->lsn, 7u);
  ASSERT_TRUE(store.Write(*start).ok());
  const std::optional<LogRecord> next = store.TakeNextHeld();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->lsn, 8u);
  ASSERT_TRUE(store.Write(*next).ok());
  EXPECT_EQ(store.TakeNextHeld(), std::nullopt);
  EXPECT_EQ(store.Gap(), std::nullopt);
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 1, 3}, {1, 7, 8}}));
}

TEST(ClientLogStoreTest, HoldKeepsTheLatestCopyUpToItsCap) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  store.Place(Rec(3, 1, true, "old"));
  store.Place(Rec(3, 1, true, "new"));
  for (Lsn l = 4; l < 3 + ClientLogStore::kMaxHeld; ++l) {
    store.Place(Rec(l, 1));
  }
  store.Place(Rec(3 + ClientLogStore::kMaxHeld, 1));  // the hold is full

  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  Lsn taken = 2;
  while (std::optional<LogRecord> r = store.TakeNextHeld()) {
    if (r->lsn == 3) EXPECT_EQ(r->data, ToBytes("new"));
    ASSERT_TRUE(store.Write(*std::move(r)).ok());
    ++taken;
  }
  EXPECT_EQ(taken, 2 + ClientLogStore::kMaxHeld);
}

// A repair copy (re-stamped with a newer epoch) lands below the stream's
// highest LSN, and a stream write may then start right after it: both
// take sorted inserts into the index, which must keep every lookup right.
TEST(ClientLogStoreTest, CopyInstalledBelowTheTailKeepsLookupsCorrect) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 10; ++l) ASSERT_TRUE(store.Write(Rec(l, 2)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(5, 3, true, "copy5")).ok());
  ASSERT_TRUE(store.StageCopy(Rec(4, 3, true, "copy4")).ok());
  ASSERT_TRUE(store.InstallCopies(3).ok());
  ASSERT_TRUE(store.Write(Rec(6, 3, true, "new6")).ok());

  EXPECT_EQ(store.Read(4)->data, ToBytes("copy4"));
  EXPECT_EQ(store.Read(6)->data, ToBytes("new6"));
  EXPECT_EQ(store.Read(7)->epoch, 2u);
  EXPECT_EQ(store.Read(10)->epoch, 2u);
  EXPECT_TRUE(store.Contains(4, 2));
  EXPECT_TRUE(store.Contains(4, 3));
  EXPECT_TRUE(store.Contains(6, 3));
  EXPECT_FALSE(store.Contains(7, 3));
  EXPECT_EQ(store.HighestLsn(), 10u);
  EXPECT_EQ(store.Intervals(), (IntervalList{{2, 1, 10}, {3, 4, 6}}));
  EXPECT_TRUE(std::is_sorted(
      store.index().begin(), store.index().end(),
      [](const ClientLogStore::IndexEntry& a,
         const ClientLogStore::IndexEntry& b) {
        return a.lsn != b.lsn ? a.lsn < b.lsn : a.epoch < b.epoch;
      }));
}

// The disk track the index holds for <lsn, epoch>; nullopt while the
// record is only in NVRAM or when it is not stored.
std::optional<uint64_t> TrackOf(const ClientLogStore& store, Lsn lsn,
                                Epoch epoch) {
  for (const ClientLogStore::IndexEntry& e : store.index()) {
    if (e.lsn == lsn && e.epoch == epoch &&
        e.track != ClientLogStore::kNoTrack) {
      return e.track;
    }
  }
  return std::nullopt;
}

TEST(ClientLogStoreTest, TruncateBelowKeepsTracksOfRetainedRecords) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 6; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(5, 2)).ok());
  ASSERT_TRUE(store.InstallCopies(2).ok());
  store.SetTrack(2, 1, 7);
  store.SetTrack(4, 1, 7);
  store.SetTrack(4, 1, 8);  // flushed again later: the later track wins
  store.SetTrack(5, 1, 8);
  store.SetTrack(5, 2, 9);

  ASSERT_EQ(store.TruncateBelow(3), 2u);
  EXPECT_EQ(TrackOf(store, 4, 1), 8u);
  EXPECT_EQ(TrackOf(store, 5, 1), 8u);
  EXPECT_EQ(store.ReadTrack(5), 9u);  // the highest epoch's track
  EXPECT_EQ(store.ReadTrack(3), std::nullopt);  // still only in NVRAM
  EXPECT_EQ(store.ReadTrack(2), std::nullopt);  // discarded
  store.SetTrack(2, 1, 10);  // a discarded record takes no track
  EXPECT_FALSE(store.Contains(2, 1));
  EXPECT_EQ(TrackOf(store, 2, 1), std::nullopt);
}

// --- Track format ---

TEST(TrackFormatTest, EntryRoundTrip) {
  StreamEntry e{42, Rec(7, 3, true, "payload")};
  Bytes encoded = EncodeStreamEntry(e);
  EXPECT_EQ(encoded.size(), StreamEntrySize(e.record));
  Result<StreamEntry> decoded = DecodeStreamEntry(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, e);
}

TEST(TrackFormatTest, TrackRoundTrip) {
  std::vector<StreamEntry> entries = {
      {1, Rec(1, 1, true, "a")},
      {2, Rec(100, 5, false, "")},
      {1, Rec(2, 1, true, "interleaved")},
  };
  Bytes track = EncodeTrack(entries);
  Result<std::vector<StreamEntry>> decoded = DecodeTrack(track);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entries);
}

TEST(TrackFormatTest, CorruptTrackDetected) {
  Bytes track = EncodeTrack({{1, Rec(1, 1)}});
  track[track.size() / 2] ^= 0xFF;
  EXPECT_TRUE(DecodeTrack(track).status().IsCorruption());
}

TEST(TrackFormatTest, EmptyTrack) {
  Bytes track = EncodeTrack({});
  Result<std::vector<StreamEntry>> decoded = DecodeTrack(track);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

}  // namespace
}  // namespace dlog::server
