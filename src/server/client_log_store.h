#ifndef DLOG_SERVER_CLIENT_LOG_STORE_H_
#define DLOG_SERVER_CLIENT_LOG_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"
#include "forest/append_forest.h"
#include "server/track_images.h"
#include "wire/messages.h"

namespace dlog::server {

/// One client's portion of a log server's state (Section 3.1.1): the
/// index of its stored records (keyed <LSN, Epoch>, each with a present
/// flag), the derived interval list, the staging area for recovery-time
/// copies, the records held past a gap, and the index of its
/// disk-resident tracks.
///
/// Semantics enforced here:
///  * the stream rule: "Successive records on a log server are written
///    with non decreasing LSNs and non decreasing epoch numbers". An
///    arriving stream record extends the stream when it is the tail's
///    next LSN or the start a NewInterval announced; a record past the
///    tail is otherwise held until a resend or announcement closes the
///    gap, which the server reports at once (Section 4.2: "It notifies
///    the client of the missing interval immediately");
///  * CopyLog records may have lower LSNs but are invisible until
///    InstallCopies atomically installs every copy staged with the same
///    epoch number;
///  * duplicates (same <LSN, Epoch>, same contents) are accepted
///    idempotently — the transport may redeliver.
///
/// The records themselves live in the owner's track images (Section
/// 4.1's merged data stream): the store writes each one there once, as
/// its stream entry, and keeps only where it sits — the track its image
/// is (or will be) written to and the entry's offset in it. A LogRecord
/// is built only when something reads one. The <LSN, Epoch> index is a
/// sorted vector: stream writes arrive in ascending key order and append
/// at its tail, so only recovery copies installed below the tail pay for
/// a sorted insert. The append forest summarizes the client's disk
/// tracks by LSN range (Section 4.3).
class ClientLogStore {
 public:
  /// Records held past a gap at most; a record arriving when the hold is
  /// full is dropped (the client resends it).
  static constexpr size_t kMaxHeld = 128;

  /// One stored record: its key, where its copy sits (RecordLocation,
  /// flattened to keep the entry at 32 bytes), and its position in write
  /// order.
  struct IndexEntry {
    Lsn lsn = kNoLsn;
    Epoch epoch = 0;
    uint64_t track = 0;
    uint32_t offset = 0;
    uint32_t pos = 0;

    RecordLocation location() const { return {track, offset}; }
  };

  /// Where Place() puts an arriving stream record.
  enum class Placement {
    /// It extends the stream: the caller writes it, then writes the held
    /// records it made contiguous (TakeNextHeld).
    kExtend,
    /// It repeats the tail LSN (a redelivery, or the recovery re-copy of
    /// the tail with a higher epoch): the caller writes it.
    kTail,
    /// It is past a gap: the caller holds it (Hold).
    kHold,
    /// It is below the tail: already stored or superseded.
    kStale,
  };

  /// A store for `client` whose records live in `images`, which must
  /// outlive it.
  ClientLogStore(ClientId client, TrackImages* images)
      : client_(client), images_(images) {}

  /// The stream rule for a WriteLog/ForceLog record, in any arrival
  /// order: it extends the stream only as the tail's next LSN (LSN 1 in
  /// an empty store) or as the announced start, which it uses up.
  Placement Place(Lsn lsn, Epoch epoch);

  /// Holds a record Place() found past a gap: `record` is its wire
  /// encoding, kept as it arrived (a view of its packet). Dropped when the
  /// hold is full; a later copy of a held LSN replaces the earlier one.
  void Hold(SharedBytes record);

  /// Removes and returns (as its wire encoding) the lowest held record if
  /// it extends the stream now, discarding held records the stream has
  /// passed meanwhile.
  std::optional<SharedBytes> TakeNextHeld();

  /// The LSNs missing between the stream's tail and the lowest held
  /// record, as [low, high]; nullopt when none are.
  std::optional<std::pair<Lsn, Lsn>> Gap() const;

  /// A NewInterval: the client's next sequence starts at <start, epoch>,
  /// and the records below `start` live elsewhere, so held ones are
  /// dropped. Returns the held record that starts the sequence (its wire
  /// encoding), if it already arrived (the announcement is then used up).
  std::optional<SharedBytes> Announce(Epoch epoch, Lsn start);

  /// Stores `record`, subject to the monotonicity rules above: OK for a
  /// redelivery, FailedPrecondition for an out-of-order write, Corruption
  /// for a <LSN, Epoch> duplicate with different contents, and
  /// ResourceExhausted when the images have no room for it.
  Status Write(const LogRecord& record);

  /// The monotonicity rules alone, for a record not yet stored: what
  /// Write would return for <lsn, epoch> if the images had room.
  Status CheckAppend(Lsn lsn, Epoch epoch) const;

  /// Stores a record the caller has checked (not Contains, CheckAppend
  /// OK): writes its stream entry into the images and indexes it. False,
  /// storing nothing, when the images have no room for it.
  bool Append(const wire::RecordView& record);

  /// Indexes a copy the restart scan found at `at`, in stream write
  /// order. False, indexing nothing, when <lsn, epoch> is already stored.
  bool Recover(Lsn lsn, Epoch epoch, RecordLocation at);

  /// Where the stored record <lsn, epoch> sits; nullopt if not stored.
  std::optional<RecordLocation> LocationOf(Lsn lsn, Epoch epoch) const;

  /// Points the stored record <lsn, epoch> at `to`, another copy of the
  /// same entry (a later track holding it, or its place after the images
  /// were repacked). No-op when the record is not stored.
  void Relocate(Lsn lsn, Epoch epoch, RecordLocation to);

  /// ServerReadLog: "returns the present flag and log record with highest
  /// epoch number and the requested LSN". NotFound if the LSN is not
  /// stored at any epoch. The payload is a view of its track image.
  Result<LogRecord> Read(Lsn lsn) const;

  /// The wire encoding of the record Read(lsn) returns, as stored: a view
  /// of its track image.
  Result<SharedBytes> ReadEncoded(Lsn lsn) const;

  /// Where the record Read(lsn) returns sits; nullopt when the LSN is not
  /// stored.
  std::optional<RecordLocation> ReadLocation(Lsn lsn) const;

  /// True if a record with this exact <LSN, Epoch> is stored.
  bool Contains(Lsn lsn, Epoch epoch) const {
    return IndexOf(lsn, epoch) < index_.size();
  }

  /// Adds disk track `track`, which holds this client's records with
  /// LSNs in [low, high], to the append forest. Only the part of the
  /// range past the forest's last node is new: a track of recovery
  /// copies below it adds nothing.
  void AddToForest(uint64_t track, Lsn low, Lsn high);

  /// The IntervalList operation: maximal runs of consecutive LSNs with
  /// equal epochs, in stream order.
  IntervalList Intervals() const;

  /// Stages a recovery-time copy, `record` being its wire encoding (a view
  /// of its packet) tagged with the client's new epoch. Staged records are
  /// not readable and not in Intervals(). Copies may target any LSN ("log
  /// servers accept CopyLog calls for records with LSNs that are lower
  /// than the highest...").
  Status StageCopy(SharedBytes record);

  /// Atomically installs every record staged with `epoch`, in LSN order,
  /// and returns the wire encodings actually installed. Every copy is
  /// checked first: if its bytes differ from a stored <LSN, Epoch>'s (or
  /// from another staged copy's), none is installed and the result is
  /// Corruption. OK and empty if none are staged. Either way the staged
  /// copies are used up. The caller guarantees the images have room for
  /// them (StagedBytes).
  Result<std::vector<SharedBytes>> InstallCopies(Epoch epoch);

  /// Bytes the stream entries of the copies staged under `epoch` take in
  /// the track images: what Append charges to install them all.
  size_t StagedBytes(Epoch epoch) const;

  /// Log space management (Section 5.3): discards every record with
  /// LSN < `below`, clipping intervals accordingly; retained records keep
  /// their locations. Returns the number of records discarded.
  size_t TruncateBelow(Lsn below);

  /// Highest LSN in the stream (kNoLsn when empty).
  Lsn HighestLsn() const {
    return index_.empty() ? kNoLsn : index_.back().lsn;
  }
  /// Epoch of the tail sequence (0 when empty).
  Epoch TailEpoch() const;
  /// The LSN that would extend the tail sequence.
  Lsn ExpectedNextLsn() const { return HighestLsn() + 1; }

  size_t record_count() const { return index_.size(); }
  size_t staged_count() const;

  /// All stored records in stream write order, read from their images.
  std::vector<LogRecord> Records() const;

  /// Every stored record's index entry, in ascending <LSN, Epoch> order.
  const std::vector<IndexEntry>& index() const { return index_; }

  /// The Section 4.3 index over the client's disk tracks.
  const forest::AppendForest& forest() const { return forest_; }

 private:
  /// Indexes <lsn, epoch> at `at`, next in write order, and extends the
  /// sequence list. Callers only index keys not yet indexed.
  void Index(Lsn lsn, Epoch epoch, RecordLocation at);
  /// Extends the sequence list by the record <lsn, epoch>.
  void ExtendSequences(Lsn lsn, Epoch epoch);
  /// The wire encoding of index_[i]'s record, a view of its image.
  SharedBytes EncodingOf(size_t i) const;
  /// Position in index_ of exactly <lsn, epoch>; index_.size() if absent.
  size_t IndexOf(Lsn lsn, Epoch epoch) const;
  /// Position in index_ of the highest epoch stored for `lsn`;
  /// index_.size() if the LSN is not stored.
  size_t HighestEpochOf(Lsn lsn) const;

  ClientId client_;
  TrackImages* images_;
  std::vector<IndexEntry> index_;  // ascending <LSN, Epoch>
  uint32_t next_pos_ = 0;          // write-order position of the next record
  // Derived interval list in write order; the last element is the tail.
  std::vector<Interval> sequences_;
  // Wire encodings of the copies staged by epoch, in arrival order.
  std::map<Epoch, std::vector<SharedBytes>> staged_;
  // Wire encodings of stream records received past a gap, by LSN.
  std::map<Lsn, SharedBytes> held_;
  // The <epoch, LSN> a NewInterval announced, until its record arrives.
  std::optional<std::pair<Epoch, Lsn>> announced_;
  forest::AppendForest forest_;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_CLIENT_LOG_STORE_H_
