#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "common/log_types.h"
#include "server/client_log_store.h"
#include "server/track_format.h"
#include "server/track_images.h"
#include "wire/messages.h"

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

/// A store whose records live in in-memory track images.
class ClientLogStoreTest : public ::testing::Test {
 protected:
  /// Place() for an arriving stream record, holding it (as its wire
  /// encoding) when it lands past a gap, as the server does.
  ClientLogStore::Placement Place(const LogRecord& r) {
    const ClientLogStore::Placement p = store.Place(r.lsn, r.epoch);
    if (p == ClientLogStore::Placement::kHold) {
      store.Hold(SharedBytes(wire::EncodeRecord(r)));
    }
    return p;
  }

  /// Stages `r` as a recovery copy, as its wire encoding.
  Status StageCopy(const LogRecord& r) {
    return store.StageCopy(wire::EncodeRecord(r));
  }

  /// Stores `r`'s entry in the images without indexing it: another copy,
  /// such as a later track holding the same record.
  RecordLocation CopyOf(const LogRecord& r) {
    return *images.Append(kClient, wire::EncodeRecord(r));
  }

  static constexpr ClientId kClient = 7;
  MemoryTrackImages images;
  ClientLogStore store{kClient, &images};
};

TEST_F(ClientLogStoreTest, EmptyStore) {
  EXPECT_EQ(store.HighestLsn(), kNoLsn);
  EXPECT_EQ(store.TailEpoch(), 0u);
  EXPECT_TRUE(store.Intervals().empty());
  EXPECT_TRUE(store.Read(1).status().IsNotFound());
}

TEST_F(ClientLogStoreTest, SequentialWritesFormOneInterval) {
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 5}));
  EXPECT_EQ(store.HighestLsn(), 5u);
  EXPECT_EQ(store.ExpectedNextLsn(), 6u);
}

TEST_F(ClientLogStoreTest, LsnZeroRejected) {
  EXPECT_FALSE(store.Write(Rec(0, 1)).ok());
}

TEST_F(ClientLogStoreTest, GapStartsNewInterval) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  // Client switched away and back: LSNs 3-4 live elsewhere.
  ASSERT_TRUE(store.Write(Rec(5, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 2}));
  EXPECT_EQ(ivs[1], (Interval{1, 5, 5}));
}

TEST_F(ClientLogStoreTest, EpochChangeStartsNewInterval) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 3)).ok());
  ASSERT_EQ(store.Intervals().size(), 2u);
  EXPECT_EQ(store.TailEpoch(), 3u);
}

TEST_F(ClientLogStoreTest, OutOfOrderRejected) {
  ASSERT_TRUE(store.Write(Rec(5, 2)).ok());
  EXPECT_FALSE(store.Write(Rec(3, 2)).ok());   // lower LSN
  EXPECT_FALSE(store.Write(Rec(6, 1)).ok());   // lower epoch
  EXPECT_FALSE(store.Write(Rec(5, 2, false)).ok());  // conflicting dup
}

TEST_F(ClientLogStoreTest, ExactDuplicateIsIdempotent) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());  // redelivery
  EXPECT_EQ(store.record_count(), 1u);
}

// Figure 3-3, Server 1: the recovery procedure rewrites the tail record
// <9,3> as <9,4> — same LSN, higher epoch.
TEST_F(ClientLogStoreTest, TailRecopyWithHigherEpoch) {
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
TEST_F(ClientLogStoreTest, Figure31Server1) {
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

TEST_F(ClientLogStoreTest, StagedCopiesInvisibleUntilInstall) {
  for (Lsn l = 1; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());
  ASSERT_TRUE(StageCopy(Rec(9, 4, true, "copy")).ok());
  ASSERT_TRUE(StageCopy(Rec(10, 4, false, "")).ok());

  // Not visible yet.
  EXPECT_EQ(store.Read(9)->epoch, 3u);
  EXPECT_EQ(store.HighestLsn(), 9u);
  EXPECT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.staged_count(), 2u);

  Result<std::vector<SharedBytes>> installed = store.InstallCopies(4);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed->size(), 2u);
  EXPECT_EQ(store.Read(9)->epoch, 4u);
  EXPECT_EQ(store.Read(9)->data, ToBytes("copy"));
  EXPECT_EQ(store.HighestLsn(), 10u);
  EXPECT_EQ(store.staged_count(), 0u);
}

TEST_F(ClientLogStoreTest, InstallOfUnknownEpochIsNoOp) {
  Result<std::vector<SharedBytes>> r = store.InstallCopies(99);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(ClientLogStoreTest, InstallSortsByLsn) {
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  // Staged out of order.
  ASSERT_TRUE(StageCopy(Rec(5, 2, true, "b")).ok());
  ASSERT_TRUE(StageCopy(Rec(4, 2, true, "a")).ok());
  ASSERT_TRUE(store.InstallCopies(2).ok());
  IntervalList ivs = store.Intervals();
  // Installed copies form a contiguous epoch-2 sequence 4-5.
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[1], (Interval{2, 4, 5}));
}

TEST_F(ClientLogStoreTest, CopiesForDifferentEpochsAreIndependent) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(StageCopy(Rec(1, 2)).ok());
  ASSERT_TRUE(StageCopy(Rec(1, 3)).ok());
  ASSERT_TRUE(store.InstallCopies(3).ok());
  EXPECT_EQ(store.Read(1)->epoch, 3u);
  EXPECT_EQ(store.staged_count(), 1u);  // epoch-2 copy still staged
}

// The restart scan rebuilds a store from the copies in its images, in
// write order.
TEST_F(ClientLogStoreTest, RestoreRoundTrip) {
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 3)).ok());
  ASSERT_TRUE(store.Write(Rec(4, 3, false, "")).ok());
  ASSERT_TRUE(store.Write(Rec(5, 3)).ok());
  const std::vector<LogRecord> written = {Rec(1, 1), Rec(2, 1),
                                          Rec(3, 1), Rec(3, 3),
                                          Rec(4, 3, false, ""), Rec(5, 3)};
  EXPECT_EQ(store.Records(), written);

  std::vector<ClientLogStore::IndexEntry> by_pos = store.index();
  std::sort(by_pos.begin(), by_pos.end(),
            [](const auto& a, const auto& b) { return a.pos < b.pos; });
  ClientLogStore rebuilt(kClient, &images);
  for (const ClientLogStore::IndexEntry& e : by_pos) {
    EXPECT_TRUE(rebuilt.Recover(e.lsn, e.epoch, e.location()));
  }
  EXPECT_EQ(rebuilt.Intervals(), store.Intervals());
  EXPECT_EQ(rebuilt.record_count(), store.record_count());
  EXPECT_EQ(rebuilt.Read(3)->epoch, 3u);
  EXPECT_EQ(rebuilt.Records(), written);
}

// A record flushed to two tracks is scanned twice on restart: it keeps
// its first place in write order, and the caller moves it to the later
// copy.
TEST_F(ClientLogStoreTest, RestoreSkipsDuplicates) {
  std::vector<bool> indexed;
  std::vector<RecordLocation> at;
  for (const LogRecord& r :
       {Rec(1, 1), Rec(2, 1), Rec(1, 1), Rec(2, 1), Rec(3, 1)}) {
    at.push_back(CopyOf(r));
    indexed.push_back(store.Recover(r.lsn, r.epoch, at.back()));
  }
  EXPECT_EQ(indexed, (std::vector<bool>{true, true, false, false, true}));
  EXPECT_EQ(store.record_count(), 3u);
  ASSERT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.Intervals()[0], (Interval{1, 1, 3}));
  EXPECT_EQ(store.ReadLocation(1), at[0]);
  store.Relocate(1, 1, at[2]);
  EXPECT_EQ(store.ReadLocation(1), at[2]);
  EXPECT_EQ(store.Records(),
            (std::vector<LogRecord>{Rec(1, 1), Rec(2, 1), Rec(3, 1)}));
}

// Each stored record is one stream entry in the images — the client id,
// then the record's wire encoding — and reads back as a view of it.
TEST_F(ClientLogStoreTest, RecordsLiveInTheirTrackImages) {
  static_assert(sizeof(ClientLogStore::IndexEntry) <= 32);
  ASSERT_TRUE(store.Write(Rec(1, 1, true, "first")).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1, false, "")).ok());
  const RecordLocation at = *store.ReadLocation(1);
  const SharedBytes image = images.Image(at.track);
  Bytes entry = {kClient, 0, 0, 0};
  const Bytes wire = wire::EncodeRecord(Rec(1, 1, true, "first"));
  entry.insert(entry.end(), wire.begin(), wire.end());
  EXPECT_EQ(Bytes(image.begin() + at.offset,
                  image.begin() + at.offset + entry.size()),
            entry);
  const LogRecord read = *store.Read(1);
  EXPECT_EQ(read, Rec(1, 1, true, "first"));
  EXPECT_EQ(read.data.data(), image.data() + at.offset +
                                  kStreamEntryFixedBytes);
  EXPECT_EQ(*store.Read(2), Rec(2, 1, false, ""));
}

// --- The stream rule (Sections 3.1.1, 4.2) ---

using Placement = ClientLogStore::Placement;

TEST_F(ClientLogStoreTest, EmptyStoreHoldsARecordPastLsnOneAndReportsTheGap) {
  EXPECT_EQ(Place(Rec(5, 1)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{1, 4}));
  EXPECT_EQ(store.record_count(), 0u);
  EXPECT_EQ(Place(Rec(1, 1)), Placement::kExtend);
}

TEST_F(ClientLogStoreTest, HigherEpochPastAGapIsHeldUnlessAnnounced) {
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  EXPECT_EQ(Place(Rec(6, 2)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{4, 5}));

  // The announced start extends the stream; the announcement is used up
  // by it, so the next jump is held again.
  EXPECT_EQ(store.Announce(2, 9), std::nullopt);
  EXPECT_EQ(store.Gap(), std::nullopt);  // the held LSN 6 lives elsewhere
  EXPECT_EQ(Place(Rec(9, 2)), Placement::kExtend);
  ASSERT_TRUE(store.Write(Rec(9, 2)).ok());
  EXPECT_EQ(Place(Rec(12, 2)), Placement::kHold);
  EXPECT_EQ(store.Gap(), (std::pair<Lsn, Lsn>{10, 11}));
}

TEST_F(ClientLogStoreTest, AnnouncementAfterItsRecordReleasesIt) {
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  EXPECT_EQ(Place(Rec(7, 1)), Placement::kHold);
  EXPECT_EQ(Place(Rec(8, 1)), Placement::kHold);

  const std::optional<SharedBytes> start = store.Announce(1, 7);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(wire::ToLogRecord(*start), Rec(7, 1));
  ASSERT_TRUE(store.Write(wire::ToLogRecord(*start)).ok());
  const std::optional<SharedBytes> next = store.TakeNextHeld();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(wire::ToLogRecord(*next).lsn, 8u);
  ASSERT_TRUE(store.Write(wire::ToLogRecord(*next)).ok());
  EXPECT_EQ(store.TakeNextHeld(), std::nullopt);
  EXPECT_EQ(store.Gap(), std::nullopt);
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 1, 3}, {1, 7, 8}}));
}

TEST_F(ClientLogStoreTest, HoldKeepsTheLatestCopyUpToItsCap) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  Place(Rec(3, 1, true, "old"));
  Place(Rec(3, 1, true, "new"));
  for (Lsn l = 4; l < 3 + ClientLogStore::kMaxHeld; ++l) {
    Place(Rec(l, 1));
  }
  Place(Rec(3 + ClientLogStore::kMaxHeld, 1));  // the hold is full

  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  Lsn taken = 2;
  while (std::optional<SharedBytes> held = store.TakeNextHeld()) {
    const LogRecord r = wire::ToLogRecord(*held);
    if (r.lsn == 3) {
      EXPECT_EQ(r.data, ToBytes("new"));
    }
    ASSERT_TRUE(store.Write(r).ok());
    ++taken;
  }
  EXPECT_EQ(taken, 2 + ClientLogStore::kMaxHeld);
}

// A repair copy (re-stamped with a newer epoch) lands below the stream's
// highest LSN, and a stream write may then start right after it: both
// take sorted inserts into the index, which must keep every lookup right.
TEST_F(ClientLogStoreTest, CopyInstalledBelowTheTailKeepsLookupsCorrect) {
  for (Lsn l = 1; l <= 10; ++l) ASSERT_TRUE(store.Write(Rec(l, 2)).ok());
  ASSERT_TRUE(StageCopy(Rec(5, 3, true, "copy5")).ok());
  ASSERT_TRUE(StageCopy(Rec(4, 3, true, "copy4")).ok());
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

TEST_F(ClientLogStoreTest, TruncateBelowKeepsTracksOfRetainedRecords) {
  for (Lsn l = 1; l <= 6; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(StageCopy(Rec(5, 2)).ok());
  ASSERT_TRUE(store.InstallCopies(2).ok());
  const RecordLocation buffered3 = *store.LocationOf(3, 1);
  // Flushes move records to the tracks they were written to.
  store.Relocate(2, 1, {7, 8});
  store.Relocate(4, 1, {7, 40});
  store.Relocate(4, 1, {8, 8});  // flushed again later: the later track wins
  store.Relocate(5, 1, {8, 40});
  store.Relocate(5, 2, {9, 8});

  ASSERT_EQ(store.TruncateBelow(3), 2u);
  EXPECT_EQ(store.LocationOf(4, 1), (RecordLocation{8, 8}));
  EXPECT_EQ(store.LocationOf(5, 1), (RecordLocation{8, 40}));
  EXPECT_EQ(store.ReadLocation(5), (RecordLocation{9, 8}));  // highest epoch
  EXPECT_EQ(store.ReadLocation(3), buffered3);  // never moved
  EXPECT_EQ(store.ReadLocation(2), std::nullopt);  // discarded
  store.Relocate(2, 1, {10, 8});  // a discarded record takes no track
  EXPECT_FALSE(store.Contains(2, 1));
  EXPECT_EQ(store.LocationOf(2, 1), std::nullopt);
}

// InstallCopies is all or nothing: a staged copy that conflicts with a
// stored <LSN, Epoch> leaves every other staged copy out too, so nothing
// readable is missing from the images.
TEST_F(ClientLogStoreTest, ConflictingCopyInstallsNone) {
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(5, 2)).ok());
  ASSERT_TRUE(StageCopy(Rec(3, 2, true, "c")).ok());
  ASSERT_TRUE(StageCopy(Rec(5, 2, true, "y")).ok());
  EXPECT_TRUE(store.InstallCopies(2).status().IsCorruption());
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 1, 2}, {2, 5, 5}}));
  EXPECT_TRUE(store.Read(3).status().IsNotFound());
  EXPECT_EQ(store.record_count(), 3u);
  EXPECT_EQ(store.staged_count(), 0u);
}

// A copy staged twice (a retried CopyLog) installs once; two different
// copies of one <LSN, Epoch> conflict.
TEST_F(ClientLogStoreTest, CopyStagedTwiceInstallsOnce) {
  ASSERT_TRUE(StageCopy(Rec(1, 2, true, "a")).ok());
  ASSERT_TRUE(StageCopy(Rec(1, 2, true, "a")).ok());
  Result<std::vector<SharedBytes>> installed = store.InstallCopies(2);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed->size(), 1u);
  EXPECT_EQ(store.record_count(), 1u);

  ASSERT_TRUE(StageCopy(Rec(2, 3, true, "b")).ok());
  ASSERT_TRUE(StageCopy(Rec(2, 3, true, "c")).ok());
  EXPECT_TRUE(store.InstallCopies(3).status().IsCorruption());
  EXPECT_EQ(store.record_count(), 1u);
}

// --- Track format ---

TEST(TrackFormatTest, EntryRoundTrip) {
  const LogRecord r = Rec(7, 3, true, "payload");
  const Bytes record = wire::EncodeRecord(r);
  Bytes image(3, 0xAA);  // an entry may start anywhere in its image
  image.reserve(image.size() + kStreamEntryClientBytes + record.size());
  AppendStreamEntry(&image, 42, record);
  EXPECT_EQ(image.size(), 3 + kStreamEntryFixedBytes + r.data.size());
  EXPECT_EQ(StreamEntrySizeAt(image, 3), image.size() - 3);
  const StreamEntryRef e = StreamEntryAt(image, 3);
  EXPECT_EQ(e.offset, 3u);
  EXPECT_EQ(e.client, 42u);
  EXPECT_EQ(Bytes(e.record.bytes.begin(), e.record.bytes.end()), record);
  EXPECT_EQ(e.record.lsn, 7u);
  EXPECT_EQ(e.record.epoch, 3u);
  EXPECT_TRUE(e.record.present);
}

/// The (client, record) entries of `track`, read through TrackView.
std::vector<std::pair<ClientId, LogRecord>> EntriesOf(const TrackView& track) {
  std::vector<std::pair<ClientId, LogRecord>> entries;
  for (const StreamEntryRef& e : track) {
    entries.emplace_back(
        e.client, wire::ToLogRecord(SharedBytes::Copy(e.record.bytes.data(),
                                                      e.record.bytes.size())));
  }
  return entries;
}

TEST(TrackFormatTest, TrackRoundTrip) {
  const std::vector<std::pair<ClientId, LogRecord>> entries = {
      {1, Rec(1, 1, true, "a")},
      {2, Rec(100, 5, false, "")},
      {1, Rec(2, 1, true, "interleaved")},
  };
  const Bytes track = EncodeTrack(entries);
  Result<TrackView> parsed = TrackView::Parse(track);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(EntriesOf(*parsed), entries);
  // An image this node built reads the same without the check.
  EXPECT_EQ(EntriesOf(TrackView(track, 3)), entries);
}

// Hostile tracks: each is rejected whole, so the restart scan stops at it
// instead of indexing part of it.
TEST(TrackFormatTest, CorruptTrackDetected) {
  const Bytes good =
      EncodeTrack({{1, Rec(1, 1, true, "first")},
                   {1, Rec(2, 1, true, "last")}});
  ASSERT_TRUE(TrackView::Parse(good).ok());
  const size_t first_entry = kTrackOverhead;
  const size_t last_len = good.size() - 4 - 4;  // before "last"
  struct Case {
    const char* name;
    std::function<void(Bytes*)> mutate;
  };
  const Case cases[] = {
      {"checksum mismatch", [](Bytes* t) { (*t)[t->size() / 2] ^= 0xFF; }},
      {"count beyond its entries",
       [](Bytes* t) { FinishTrackImage(t, 3); }},
      {"an 8-byte track counting 0xFFFFFFFF entries",
       [](Bytes* t) {
         t->resize(kTrackOverhead);
         FinishTrackImage(t, 0xFFFFFFFFu);
       }},
      {"an entry overrunning the track",
       [last_len](Bytes* t) {
         StoreLE(t->data() + last_len, 5, 4);
         FinishTrackImage(t, 2);
       }},
      {"a non-canonical present byte",
       [first_entry](Bytes* t) {
         (*t)[first_entry + kStreamEntryClientBytes + 16] = 2;
         FinishTrackImage(t, 2);
       }},
      {"trailing bytes",
       [](Bytes* t) {
         t->push_back(0);
         FinishTrackImage(t, 2);
       }},
  };
  for (const Case& c : cases) {
    Bytes track = good;
    c.mutate(&track);
    EXPECT_TRUE(TrackView::Parse(track).status().IsCorruption()) << c.name;
  }
  // Every truncation, down into the header (resealed once it has one).
  for (size_t n = 0; n < good.size(); ++n) {
    Bytes track(good.begin(), good.begin() + n);
    if (n >= kTrackOverhead) FinishTrackImage(&track, 2);
    EXPECT_TRUE(TrackView::Parse(track).status().IsCorruption())
        << n << " bytes";
  }
}

TEST(TrackFormatTest, EmptyTrack) {
  const Bytes track = EncodeTrack({});
  EXPECT_EQ(track.size(), kTrackOverhead);
  Result<TrackView> parsed = TrackView::Parse(track);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 0u);
  EXPECT_FALSE(parsed->begin() != parsed->end());
}

}  // namespace
}  // namespace dlog::server
