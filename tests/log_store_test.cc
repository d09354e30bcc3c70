#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log_types.h"
#include "common/rng.h"
#include "server/client_log_store.h"
#include "server/track_format.h"
#include "server/track_images.h"
#include "wire/messages.h"

namespace dlog::server {
namespace {

/// Each run of `store` as <first LSN, epoch, record count>, in key order.
std::vector<std::tuple<Lsn, Epoch, uint32_t>> RunShape(
    const ClientLogStore& store) {
  std::vector<std::tuple<Lsn, Epoch, uint32_t>> shape;
  for (const ClientLogStore::Run& run : store.runs()) {
    shape.emplace_back(run.lsn, run.epoch, run.count);
  }
  return shape;
}

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

  /// The record whose stream entry sits at `at`, read in place.
  wire::RecordView ViewAt(RecordLocation at) const {
    const SharedBytes image = images.Image(at.track);
    return StreamEntryAt({image.data(), image.size()}, at.offset).record;
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

  std::vector<ClientLogStore::Run> by_pos = store.runs();
  std::sort(by_pos.begin(), by_pos.end(),
            [](const auto& a, const auto& b) { return a.pos < b.pos; });
  ClientLogStore rebuilt(kClient, &images);
  for (const ClientLogStore::Run& run : by_pos) {
    for (Lsn lsn = run.lsn; lsn < run.lsn + run.count; ++lsn) {
      const RecordLocation at = *store.LocationOf(lsn, run.epoch);
      EXPECT_TRUE(rebuilt.Recover(ViewAt(at), at));
    }
  }
  EXPECT_EQ(RunShape(rebuilt), RunShape(store));
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
    indexed.push_back(store.Recover(ViewAt(at.back()), at.back()));
  }
  EXPECT_EQ(indexed, (std::vector<bool>{true, true, false, false, true}));
  EXPECT_EQ(store.record_count(), 3u);
  ASSERT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.Intervals()[0], (Interval{1, 1, 3}));
  EXPECT_EQ(store.LocationOf(1, 1), at[0]);
  store.Relocate(1, 1, at[2]);
  EXPECT_EQ(store.LocationOf(1, 1), at[2]);
  EXPECT_EQ(store.TrackOf(1), at[2].track);
  EXPECT_EQ(store.Records(),
            (std::vector<LogRecord>{Rec(1, 1), Rec(2, 1), Rec(3, 1)}));
}

// A moved record leaves its run. The run's records after it stay a run
// that the next write may extend; a write right after the old entry of a
// moved last record does not follow its copy, so it starts a run.
TEST_F(ClientLogStoreTest, MovedRecordLeavesItsRun) {
  const RecordLocation three = CopyOf(Rec(3, 2, true, "three"));
  const RecordLocation five = CopyOf(Rec(5, 2));
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 2, true, "three")).ok());
  store.Relocate(3, 2, three);
  ASSERT_TRUE(store.Write(Rec(4, 2, true, "four")).ok());
  EXPECT_EQ(store.LocationOf(3, 2), three);
  EXPECT_EQ(*store.Read(4), Rec(4, 2, true, "four"));
  for (Lsn l = 5; l <= 7; ++l) ASSERT_TRUE(store.Write(Rec(l, 2)).ok());
  store.Relocate(5, 2, five);
  ASSERT_TRUE(store.Write(Rec(8, 2, true, "eight")).ok());
  EXPECT_EQ(store.LocationOf(5, 2), five);
  EXPECT_EQ(*store.Read(8), Rec(8, 2, true, "eight"));
  EXPECT_EQ(RunShape(store),
            (std::vector<std::tuple<Lsn, Epoch, uint32_t>>{
                {1, 1, 2}, {3, 2, 1}, {4, 2, 1}, {5, 2, 1}, {6, 2, 3}}));
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 1, 2}, {2, 3, 8}}));
}

// Each stored record is one stream entry in the images — the client id,
// then the record's wire encoding — and reads back as a view of it.
TEST_F(ClientLogStoreTest, RecordsLiveInTheirTrackImages) {
  static_assert(sizeof(ClientLogStore::Run) <= 40);
  ASSERT_TRUE(store.Write(Rec(1, 1, true, "first")).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1, false, "")).ok());
  const RecordLocation at = *store.LocationOf(1, 1);
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
      store.runs().begin(), store.runs().end(),
      [](const ClientLogStore::Run& a, const ClientLogStore::Run& b) {
        return a.lsn != b.lsn ? a.lsn < b.lsn : a.epoch < b.epoch;
      }));
  // The stream's run, the copies' run (which the stream write after them
  // extends) and nothing else.
  EXPECT_EQ(RunShape(store),
            (std::vector<std::tuple<Lsn, Epoch, uint32_t>>{{1, 2, 10},
                                                           {4, 3, 3}}));
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
  EXPECT_EQ(store.LocationOf(5, 2), (RecordLocation{9, 8}));
  EXPECT_EQ(store.TrackOf(5), 9u);  // the highest epoch's
  EXPECT_EQ(store.LocationOf(3, 1), buffered3);  // never moved
  EXPECT_EQ(store.TrackOf(2), std::nullopt);  // discarded
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

// Section 5.3 truncation over copies installed below the tail under three
// epochs. The run straddling the mark is trimmed to start at it, whole
// runs below it go, and the interval list is clipped in place: the two
// epoch-3 stream intervals the discarded copies <1..2, 3> separated merge,
// as a replay of the kept records in write order merges them.
TEST_F(ClientLogStoreTest, TruncateBelowClipsRunsAndIntervalsAcrossEpochs) {
  const auto rec = [](Lsn l, Epoch e) {
    return Rec(l, e, true, "r" + std::to_string(l) + "e" + std::to_string(e));
  };
  const auto write = [&](Lsn from, Lsn to, Epoch e) {
    for (Lsn l = from; l <= to; ++l) ASSERT_TRUE(store.Write(rec(l, e)).ok());
  };
  const auto install = [&](Lsn from, Lsn to, Epoch e) {
    for (Lsn l = from; l <= to; ++l) ASSERT_TRUE(StageCopy(rec(l, e)).ok());
    ASSERT_TRUE(store.InstallCopies(e).ok());
  };
  write(4, 12, 1);
  install(2, 3, 1);
  install(6, 7, 2);
  write(13, 16, 2);
  install(8, 9, 3);
  write(17, 18, 3);
  install(1, 2, 3);
  write(19, 20, 3);
  ASSERT_EQ(store.Intervals(),
            (IntervalList{{1, 4, 12},
                          {1, 2, 3},
                          {2, 6, 7},
                          {2, 13, 16},
                          {3, 8, 9},
                          {3, 17, 18},
                          {3, 1, 2},
                          {3, 19, 20}}));

  ASSERT_EQ(store.TruncateBelow(8), 10u);
  EXPECT_EQ(store.Intervals(),
            (IntervalList{{1, 8, 12}, {2, 13, 16}, {3, 8, 9}, {3, 17, 20}}));
  std::vector<LogRecord> kept;
  for (const auto& [from, to, e] :
       {std::tuple<Lsn, Lsn, Epoch>{8, 12, 1}, {13, 16, 2}, {8, 9, 3},
        {17, 20, 3}}) {
    for (Lsn l = from; l <= to; ++l) kept.push_back(rec(l, e));
  }
  EXPECT_EQ(store.Records(), kept);
  EXPECT_EQ(store.record_count(), 15u);
  EXPECT_EQ(store.HighestLsn(), 20u);
  EXPECT_EQ(store.Read(8)->epoch, 3u);
  EXPECT_EQ(*store.Read(10), rec(10, 1));
  EXPECT_TRUE(store.Read(7).status().IsNotFound());
  EXPECT_EQ(RunShape(store),
            (std::vector<std::tuple<Lsn, Epoch, uint32_t>>{
                {8, 1, 5}, {8, 3, 2}, {13, 2, 4}, {17, 3, 2}, {19, 3, 2}}));

  // The stream goes on from the merged interval, in the run it was in.
  write(21, 21, 3);
  EXPECT_EQ(store.Intervals().back(), (Interval{3, 17, 21}));
  EXPECT_EQ(RunShape(store).back(),
            (std::tuple<Lsn, Epoch, uint32_t>{19, 3, 3}));
}

// --- ReadLog reply packing ---

/// In-memory track images whose full images can be flushed: each image
/// below the open one is then served from a copy of its bytes in a buffer
/// of its own, as a log server serves the disk tracks below its NVRAM
/// queue. Counts the images fetched.
class FlushingImages final : public TrackImages {
 public:
  std::optional<RecordLocation> Append(
      ClientId client, std::span<const uint8_t> record) override {
    const std::optional<RecordLocation> at = memory_.Append(client, record);
    tracks_ = std::max(tracks_, at->track + 1);
    return at;
  }
  SharedBytes Image(uint64_t track) const override {
    ++fetched_;
    auto it = disk_.find(track);
    return it != disk_.end() ? it->second : memory_.Image(track);
  }
  /// Moves every image but the open one to the "disk".
  void Flush() {
    for (uint64_t track = 0; track + 1 < tracks_; ++track) {
      const SharedBytes image = memory_.Image(track);
      disk_.try_emplace(track, Bytes(image.begin(), image.end()));
    }
  }
  bool OnDisk(uint64_t track) const { return disk_.count(track) > 0; }
  uint64_t tracks() const { return tracks_; }
  size_t fetched() const { return fetched_; }

 private:
  MemoryTrackImages memory_;
  std::map<uint64_t, SharedBytes> disk_;
  uint64_t tracks_ = 0;
  mutable size_t fetched_ = 0;
};

/// The records a reply from `lsn` packs, read one LSN at a time with
/// ReadEncoded under a budget of `max_bytes`, as the log server packed
/// them before it walked the store once per reply.
std::vector<Bytes> PerLsnReply(const ClientLogStore& store, Lsn lsn,
                               bool forward, size_t max_bytes) {
  std::vector<Bytes> reply;
  size_t budget = max_bytes;
  for (;;) {
    const Result<SharedBytes> rec = store.ReadEncoded(lsn);
    if (!rec.ok()) break;
    const size_t cost = rec->size();
    if (!reply.empty() && cost > budget) break;
    reply.emplace_back(rec->begin(), rec->end());
    budget = cost > budget ? 0 : budget - cost;
    if (forward) {
      ++lsn;
    } else {
      if (lsn == 1) break;
      --lsn;
    }
  }
  return reply;
}

// A store whose records cross track images, the NVRAM/disk boundary (the
// flushed images) and a gap, with copies installed below the tail at a
// higher epoch: every reply ReadReply packs, from every LSN in both
// directions, is the one per-LSN reads pack, and an unbudgeted walk
// fetches an image for its first record and at each change of track.
TEST(ReadReplyTest, PacksWhatPerLsnReadsPack) {
  constexpr size_t kBudget = 1200;
  FlushingImages images;
  ClientLogStore store(7, &images);
  const auto rec = [](Lsn l, Epoch e) {
    // 0 to 299 data bytes, every 11th record past the budget, and LSNs
    // 45 to 50 a third of the budget each, so three of them fill it.
    size_t size = (l * 37) % 300;
    if (l % 11 == 0) size = kBudget + 100;
    if (l >= 45 && l <= 50) size = kBudget / 3 - wire::kRecordFixedBytes;
    return Rec(l, e, l % 13 != 0,
               std::string(size, static_cast<char>('a' + l % 26 + e)));
  };
  for (Lsn l = 1; l <= 40; ++l) ASSERT_TRUE(store.Write(rec(l, 1)).ok());
  for (Lsn l = 44; l <= 60; ++l) ASSERT_TRUE(store.Write(rec(l, 1)).ok());
  for (Lsn l = 20; l <= 25; ++l) {
    ASSERT_TRUE(store.StageCopy(wire::EncodeRecord(rec(l, 2))).ok());
  }
  ASSERT_TRUE(store.InstallCopies(2).ok());
  for (Lsn l = 61; l <= 70; ++l) ASSERT_TRUE(store.Write(rec(l, 2)).ok());
  images.Flush();
  ASSERT_GE(images.tracks(), 4u);
  ASSERT_TRUE(images.OnDisk(*store.TrackOf(1)));
  ASSERT_FALSE(images.OnDisk(*store.TrackOf(70)));
  ASSERT_EQ(store.Read(22)->epoch, 2u);

  bool crossed_tracks = false;
  bool crossed_flush = false;
  for (Lsn from = 0; from <= 72; ++from) {
    for (const bool forward : {true, false}) {
      SCOPED_TRACE(testing::Message() << "from " << from
                                      << (forward ? " forward" : " backward"));
      for (const size_t max_bytes : {kBudget, SIZE_MAX}) {
        std::vector<std::span<const uint8_t>> got;
        const size_t fetched = images.fetched();
        const size_t bytes = store.ReadReply(from, forward, max_bytes, &got);
        const size_t fetches = images.fetched() - fetched;
        const std::vector<Bytes> want =
            PerLsnReply(store, from, forward, max_bytes);
        ASSERT_EQ(got.size(), want.size());
        size_t want_bytes = 0;
        size_t switches = 0;
        for (size_t k = 0; k < got.size(); ++k) {
          ASSERT_EQ(Bytes(got[k].begin(), got[k].end()), want[k]) << k;
          want_bytes += want[k].size();
          const Lsn lsn = forward ? from + k : from - k;
          if (k > 0) {
            const uint64_t track = *store.TrackOf(lsn);
            const uint64_t before = *store.TrackOf(forward ? lsn - 1 : lsn + 1);
            switches += track != before;
            crossed_flush |= images.OnDisk(track) != images.OnDisk(before);
          }
        }
        EXPECT_EQ(bytes, want_bytes);
        crossed_tracks |= switches > 0;
        // Stopped only by an LSN not stored, the walk fetched an image for
        // its first record and at each change of track.
        if (max_bytes == SIZE_MAX && !got.empty()) {
          EXPECT_EQ(fetches, 1 + switches);
        }
      }
    }
  }
  EXPECT_TRUE(crossed_tracks);
  EXPECT_TRUE(crossed_flush);
}

// --- The run index's shape ---

/// A 50-byte data record of `client`, tagged with its LSN.
LogRecord BatchRec(ClientId client, Lsn lsn) {
  std::string data(50, static_cast<char>('a' + client));
  data.replace(0, std::to_string(lsn).size(), std::to_string(lsn));
  return Rec(lsn, 1, true, data);
}

// Two clients' 7-record stream batches interleave in the images: each
// batch is one run, unless it overflows an image and is split into two,
// so a history of them keeps at most 8 bytes of run index per record.
TEST(ClientLogStoreShapeTest, EachStreamBatchIsOneRunUnlessAnImageSplitsIt) {
  MemoryTrackImages images;
  ClientLogStore a(1, &images);
  ClientLogStore b(2, &images);
  constexpr Lsn kBatch = 7;
  constexpr int kBatches = 40;
  size_t split = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const Lsn first = 1 + static_cast<Lsn>(batch) * kBatch;
    for (ClientLogStore* store : {&a, &b}) {
      const ClientId client = store == &a ? 1 : 2;
      for (Lsn l = first; l < first + kBatch; ++l) {
        ASSERT_TRUE(store->Write(BatchRec(client, l)).ok());
      }
      if (store == &a) {
        split += store->LocationOf(first, 1)->track !=
                 store->LocationOf(first + kBatch - 1, 1)->track;
      }
    }
    if (batch == 0) {
      EXPECT_EQ(RunShape(a), (std::vector<std::tuple<Lsn, Epoch, uint32_t>>{
                                 {1, 1, kBatch}}));
    }
  }
  ASSERT_GT(split, 0u);  // some batch did overflow an image
  EXPECT_EQ(a.runs().size(), kBatches + split);
  for (const ClientLogStore* store : {&a, &b}) {
    EXPECT_EQ(store->record_count(), kBatches * kBatch);
    EXPECT_LE(store->runs().size() * sizeof(ClientLogStore::Run),
              8 * store->record_count());
    for (Lsn l = 1; l <= kBatches * kBatch; ++l) {
      EXPECT_EQ(*store->Read(l), BatchRec(store == &a ? 1 : 2, l));
    }
  }
}

// --- The run index against a per-record model ---

/// Track images that log where each entry went, so a model can learn
/// where the store's records sit without asking the store.
class LoggedImages final : public TrackImages {
 public:
  std::optional<RecordLocation> Append(
      ClientId client, std::span<const uint8_t> record) override {
    const std::optional<RecordLocation> at = images_.Append(client, record);
    appended_.push_back(*at);
    return at;
  }
  SharedBytes Image(uint64_t track) const override {
    return images_.Image(track);
  }
  /// The locations of the entries appended since the last call.
  std::vector<RecordLocation> TakeAppended() {
    return std::exchange(appended_, {});
  }

 private:
  MemoryTrackImages images_;
  std::vector<RecordLocation> appended_;
};

/// One client of a random history: its store, the per-record model the
/// store must agree with, and the client's side of its stream.
struct ModelClient {
  struct Copy {
    Bytes encoding;
    RecordLocation at;
    uint64_t order = 0;  // write order
  };

  ModelClient(ClientId id, TrackImages* images)
      : id(id), store(std::make_unique<ClientLogStore>(id, images)) {}

  ClientId id;
  std::unique_ptr<ClientLogStore> store;
  std::map<std::pair<Lsn, Epoch>, Copy> model;
  Epoch epoch = 1;
  Lsn start = 1;  // first LSN of the current epoch's sequence
  Lsn next = 1;   // next LSN to send
  std::map<Lsn, LogRecord> sent;  // this epoch's stream records, by LSN
};

class RunIndexModelTest : public ::testing::Test {
 protected:
  /// Notes the records `c`'s store just wrote, in write order.
  void Wrote(ModelClient& c, const std::vector<Bytes>& encodings) {
    const std::vector<RecordLocation> at = images_.TakeAppended();
    ASSERT_EQ(at.size(), encodings.size());
    for (size_t i = 0; i < at.size(); ++i) {
      const wire::RecordView r = wire::RecordAt(encodings[i].data());
      c.model[{r.lsn, r.epoch}] = {encodings[i], at[i], next_order_++};
    }
  }

  /// LogServer::ApplyRecord's use of the store.
  bool Apply(ModelClient& c, const Bytes& encoding) {
    const wire::RecordView r = wire::RecordAt(encoding.data());
    if (c.store->Contains(r.lsn, r.epoch)) return true;
    if (!c.store->CheckAppend(r.lsn, r.epoch).ok()) return false;
    EXPECT_TRUE(c.store->Append(r));
    Wrote(c, {encoding});
    return true;
  }

  void ApplyHeld(ModelClient& c) {
    while (std::optional<SharedBytes> held = c.store->TakeNextHeld()) {
      if (!Apply(c, Bytes(held->begin(), held->end()))) break;
    }
  }

  /// LogServer's handling of one stream record.
  void Deliver(ModelClient& c, const LogRecord& r) {
    const Bytes encoding = wire::EncodeRecord(r);
    switch (c.store->Place(r.lsn, r.epoch)) {
      case ClientLogStore::Placement::kExtend:
        Apply(c, encoding);
        ApplyHeld(c);
        break;
      case ClientLogStore::Placement::kTail:
        Apply(c, encoding);
        break;
      case ClientLogStore::Placement::kHold:
        c.store->Hold(SharedBytes(encoding));
        break;
      case ClientLogStore::Placement::kStale:
        break;
    }
  }

  /// A record of random size (an image-sized one now and then).
  LogRecord RandomRecord(Lsn lsn, Epoch epoch) {
    const size_t size = rng_.NextBelow(20) == 0 ? 1500 + rng_.NextBelow(1500)
                                                : rng_.NextBelow(120);
    return Rec(lsn, epoch, rng_.NextBelow(8) != 0,
               std::string(size, static_cast<char>('a' + rng_.NextBelow(26))));
  }

  /// A stream batch of mostly 7 records; some are lost on the way.
  void StreamBatch(ModelClient& c) {
    const Lsn n = rng_.NextBelow(4) == 0 ? 1 + rng_.NextBelow(9) : 7;
    for (Lsn i = 0; i < n; ++i) {
      const LogRecord r = RandomRecord(c.next++, c.epoch);
      c.sent[r.lsn] = r;
      if (rng_.NextBelow(12) != 0) Deliver(c, r);
    }
  }

  /// The client resends what the store lacks: the announcement of its
  /// sequence, then every record past the store's highest (and one the
  /// store holds already, as a redelivery).
  void Resend(ModelClient& c) {
    if (c.store->HighestLsn() < c.start) {
      if (const std::optional<SharedBytes> first =
              c.store->Announce(c.epoch, c.start)) {
        if (Apply(c, Bytes(first->begin(), first->end()))) ApplyHeld(c);
      }
    }
    if (!c.sent.empty()) {
      auto dup = c.sent.begin();
      std::advance(dup, static_cast<long>(rng_.NextBelow(c.sent.size())));
      Deliver(c, dup->second);
    }
    for (auto it = c.sent.upper_bound(c.store->HighestLsn());
         it != c.sent.end(); ++it) {
      Deliver(c, it->second);
    }
  }

  /// Recovery copies under a new epoch, installed below the stream's tail
  /// (and sometimes past it); the stream then goes on, announced, at the
  /// new epoch.
  void InstallCopies(ModelClient& c) {
    const Epoch epoch = c.epoch + 1;
    const Lsn low = 1 + rng_.NextBelow(c.next);
    const Lsn high = low + rng_.NextBelow(8);
    std::vector<Bytes> staged;
    for (Lsn l = low; l <= high; ++l) {
      staged.push_back(wire::EncodeRecord(RandomRecord(l, epoch)));
    }
    // Staged out of order, one of them twice (a retried CopyLog).
    for (size_t i = staged.size(); i > 1; --i) {
      std::swap(staged[i - 1], staged[rng_.NextBelow(i)]);
    }
    staged.push_back(staged.front());
    for (const Bytes& copy : staged) {
      ASSERT_TRUE(c.store->StageCopy(SharedBytes(copy)).ok());
    }
    Result<std::vector<SharedBytes>> installed = c.store->InstallCopies(epoch);
    ASSERT_TRUE(installed.ok());
    ASSERT_EQ(installed->size(), high - low + 1);
    std::vector<Bytes> encodings;
    for (const SharedBytes& r : *installed) {
      encodings.emplace_back(r.begin(), r.end());
    }
    Wrote(c, encodings);
    c.epoch = epoch;
    c.start = c.next = std::max(c.next, high + 1) + rng_.NextBelow(3);
    c.sent.clear();
    // Nothing of the new epoch was sent yet, so nothing is released.
    EXPECT_EQ(c.store->Announce(c.epoch, c.start), std::nullopt);
  }

  /// Moves a stored record to another copy of its entry (or asks to move
  /// a record the store does not hold).
  void Relocate(ModelClient& c) {
    if (c.model.empty() || rng_.NextBelow(5) == 0) {
      c.store->Relocate(c.next + 1, c.epoch, {99, 0});  // not stored: no-op
      return;
    }
    auto it = c.model.begin();
    std::advance(it, static_cast<long>(rng_.NextBelow(c.model.size())));
    const RecordLocation to = *images_.Append(c.id, it->second.encoding);
    images_.TakeAppended();
    c.store->Relocate(it->first.first, it->first.second, to);
    it->second.at = to;
  }

  void Truncate(ModelClient& c) {
    const Lsn below = 1 + rng_.NextBelow(c.next + 1);
    size_t below_count = 0;
    for (auto it = c.model.begin();
         it != c.model.end() && it->first.first < below;) {
      it = c.model.erase(it);
      ++below_count;
    }
    EXPECT_EQ(c.store->TruncateBelow(below), below_count);
  }

  /// The restart scan: a new store recovers the copies in write order
  /// (held records, the announcement and staged copies are lost).
  void Rebuild(ModelClient& c) {
    std::vector<const ModelClient::Copy*> order;
    for (const auto& [key, copy] : c.model) order.push_back(&copy);
    std::sort(order.begin(), order.end(),
              [](const auto* a, const auto* b) { return a->order < b->order; });
    auto rebuilt = std::make_unique<ClientLogStore>(c.id, &images_);
    for (const ModelClient::Copy* copy : order) {
      const wire::RecordView r = wire::RecordAt(copy->encoding.data());
      EXPECT_TRUE(rebuilt->Recover(r, copy->at));
      if (copy == order.front()) {
        EXPECT_FALSE(rebuilt->Recover(r, copy->at));
      }
    }
    c.store = std::move(rebuilt);
  }

  /// Every lookup of `c`'s store against its model.
  void Check(const ModelClient& c) {
    const ClientLogStore& store = *c.store;
    ASSERT_EQ(store.record_count(), c.model.size());
    const Lsn high = c.model.empty() ? kNoLsn : c.model.rbegin()->first.first;
    ASSERT_EQ(store.HighestLsn(), high);
    size_t in_runs = 0;
    for (size_t i = 0; i < store.runs().size(); ++i) {
      const ClientLogStore::Run& run = store.runs()[i];
      ASSERT_GE(run.count, 1u);
      ASSERT_LE(run.count, ClientLogStore::kMaxRunRecords);
      in_runs += run.count;
      if (i > 0) {
        const ClientLogStore::Run& prev = store.runs()[i - 1];
        ASSERT_TRUE(prev.lsn != run.lsn ? prev.lsn < run.lsn
                                        : prev.epoch < run.epoch);
      }
    }
    ASSERT_EQ(in_runs, c.model.size());

    for (const auto& [key, copy] : c.model) {
      // The entry at the model's location is the record's.
      const SharedBytes image = images_.Image(copy.at.track);
      const StreamEntryRef e =
          StreamEntryAt({image.data(), image.size()}, copy.at.offset);
      ASSERT_EQ(e.client, c.id);
      ASSERT_EQ(Bytes(e.record.bytes.begin(), e.record.bytes.end()),
                copy.encoding);
      ASSERT_EQ(store.LocationOf(key.first, key.second), copy.at);
    }
    for (Lsn lsn = 1; lsn <= high + 1; ++lsn) {
      for (Epoch e = 0; e <= c.epoch + 1; ++e) {
        ASSERT_EQ(store.Contains(lsn, e), c.model.count({lsn, e}) > 0)
            << "<" << lsn << ", " << e << ">";
        if (c.model.count({lsn, e}) == 0) {
          ASSERT_EQ(store.LocationOf(lsn, e), std::nullopt);
        }
      }
      // The highest epoch stored for the LSN, if any.
      auto top = c.model.lower_bound({lsn + 1, 0});
      if (top == c.model.begin() || std::prev(top)->first.first != lsn) {
        ASSERT_TRUE(store.Read(lsn).status().IsNotFound()) << lsn;
        ASSERT_TRUE(store.ReadEncoded(lsn).status().IsNotFound()) << lsn;
        ASSERT_EQ(store.TrackOf(lsn), std::nullopt) << lsn;
        continue;
      }
      const ModelClient::Copy& copy = std::prev(top)->second;
      const Result<SharedBytes> encoded = store.ReadEncoded(lsn);
      ASSERT_TRUE(encoded.ok()) << lsn;
      ASSERT_EQ(Bytes(encoded->begin(), encoded->end()), copy.encoding);
      ASSERT_EQ(*store.Read(lsn), wire::ToLogRecord(SharedBytes(copy.encoding)));
      ASSERT_EQ(store.LocationOf(lsn, std::prev(top)->first.second), copy.at);
      ASSERT_EQ(store.TrackOf(lsn), copy.at.track);
    }

    // Intervals() and Records(): the model's records in write order.
    std::vector<const ModelClient::Copy*> order;
    for (const auto& [key, copy] : c.model) order.push_back(&copy);
    std::sort(order.begin(), order.end(),
              [](const auto* a, const auto* b) { return a->order < b->order; });
    IntervalList intervals;
    std::vector<LogRecord> records;
    for (const ModelClient::Copy* copy : order) {
      records.push_back(wire::ToLogRecord(SharedBytes(copy->encoding)));
      const LogRecord& r = records.back();
      if (!intervals.empty() && intervals.back().epoch == r.epoch &&
          intervals.back().high + 1 == r.lsn) {
        intervals.back().high = r.lsn;
      } else {
        intervals.push_back({r.epoch, r.lsn, r.lsn});
      }
    }
    ASSERT_EQ(store.Intervals(), intervals);
    ASSERT_EQ(store.Records(), records);
  }

  /// Runs one random history of `steps` steps over three clients.
  void RunHistory(uint64_t seed, int steps) {
    rng_ = Rng(seed);
    std::vector<ModelClient> clients;
    for (ClientId id = 1; id <= 3; ++id) clients.emplace_back(id, &images_);
    for (int step = 0; step < steps; ++step) {
      ModelClient& c = clients[rng_.NextBelow(clients.size())];
      const uint64_t op = rng_.NextBelow(20);
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step
                                        << " client " << c.id << " op " << op);
      if (op < 9) {
        StreamBatch(c);
      } else if (op < 12) {
        Resend(c);
      } else if (op < 14) {
        InstallCopies(c);
      } else if (op < 16) {
        Relocate(c);
      } else if (op < 18) {
        Truncate(c);
      } else {
        Rebuild(c);
      }
      Check(c);
      if (HasFailure()) return;
    }
    for (const ModelClient& c : clients) Check(c);
  }

  LoggedImages images_;
  Rng rng_{0};
  uint64_t next_order_ = 0;
};

TEST_F(RunIndexModelTest, RandomHistoriesMatchAPerRecordModel) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunHistory(seed, 60);
    if (HasFailure()) return;
  }
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
