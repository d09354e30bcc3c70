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
#include "server/track_images.h"
#include "wire/messages.h"

namespace dlog::server {

/// One client's portion of a log server's state (Section 3.1.1): the
/// index of its stored records (keyed <LSN, Epoch>, each with a present
/// flag), the derived interval list, the staging area for recovery-time
/// copies, and the records held past a gap.
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
/// its stream entry, and keeps only where it sits. A LogRecord is built
/// only when something reads one. The index holds one entry per run of
/// records written one after another (a stream batch, a batch of
/// installed copies), sorted by each run's first <LSN, Epoch>: stream
/// writes arrive in ascending key order and extend the tail run or append
/// a run, so only recovery copies installed below the tail pay for a
/// sorted insert. A lookup finds a record's run by binary search and its
/// entry by walking the run's entries in their image.
class ClientLogStore {
 public:
  /// Records held past a gap at most; a record arriving when the hold is
  /// full is dropped (the client resends it).
  static constexpr size_t kMaxHeld = 128;

  /// Records one run holds at most, so that a lookup walks at most
  /// kMaxRunRecords - 1 entries. A 7-record ET1 stream batch stays whole.
  static constexpr uint32_t kMaxRunRecords = 16;

  /// One index entry: a run of records with consecutive LSNs of one
  /// epoch, whose stream entries lie back to back in one track image and
  /// were written one after another. It holds the first record's key,
  /// where that record's entry sits (RecordLocation, flattened) and its
  /// position in write order; the run's i-th record has LSN lsn + i and
  /// position pos + i.
  struct Run {
    Lsn lsn = kNoLsn;
    Epoch epoch = 0;
    uint64_t track = 0;
    uint32_t offset = 0;
    uint32_t pos = 0;
    uint32_t count = 0;

    /// True if the run holds LSN `l` (at its epoch).
    bool Holds(Lsn l) const { return l >= lsn && l - lsn < count; }
  };
  static_assert(sizeof(Run) <= 40);

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

  /// Indexes `record`, a copy the restart scan found at `at`, in stream
  /// write order. False, indexing nothing, when its <LSN, Epoch> is
  /// already stored.
  bool Recover(const wire::RecordView& record, RecordLocation at);

  /// Where the stored record <lsn, epoch> sits; nullopt if not stored.
  std::optional<RecordLocation> LocationOf(Lsn lsn, Epoch epoch) const;

  /// Points the stored record <lsn, epoch> at `to`, another copy of the
  /// same entry (a later track holding it, or its place after the images
  /// were repacked). No-op when the record is not stored. The record
  /// leaves its run, which splits around it; finding the records after
  /// it reads the run's image, so moving the last record of a run reads
  /// none.
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
    return IndexOf(lsn, epoch) < runs_.size();
  }

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

  /// Highest LSN stored (kNoLsn when empty).
  Lsn HighestLsn() const { return max_key_.first; }
  /// Epoch of the tail sequence (0 when empty).
  Epoch TailEpoch() const;
  /// The LSN that would extend the tail sequence.
  Lsn ExpectedNextLsn() const { return HighestLsn() + 1; }

  size_t record_count() const { return record_count_; }
  size_t staged_count() const;

  /// All stored records in stream write order, read from their images.
  std::vector<LogRecord> Records() const;

  /// Every run, in ascending order of its first <LSN, Epoch>. Runs of
  /// different epochs may overlap in LSN.
  const std::vector<Run>& runs() const { return runs_; }

 private:
  /// Index into runs_ meaning "no run".
  static constexpr size_t kNoRun = ~size_t{0};

  /// Indexes <lsn, epoch>, whose stream entry of `entry_bytes` bytes sits
  /// at `at`, next in write order, and extends the sequence list. Callers
  /// only index keys not yet indexed.
  void Index(Lsn lsn, Epoch epoch, RecordLocation at, uint32_t entry_bytes);
  /// Inserts `run` at its place in key order; its position in runs_.
  size_t InsertRun(const Run& run);
  /// Extends the sequence list by the record <lsn, epoch>.
  void ExtendSequences(Lsn lsn, Epoch epoch);
  /// Where the record of LSN `lsn` in `run` sits.
  RecordLocation LocationIn(const Run& run, Lsn lsn) const;
  /// The wire encoding of the record of LSN `lsn` in `run`, a view of its
  /// image.
  SharedBytes EncodingOf(const Run& run, Lsn lsn) const;
  /// Position in runs_ of the run holding exactly <lsn, epoch>;
  /// runs_.size() if absent.
  size_t IndexOf(Lsn lsn, Epoch epoch) const;
  /// Position in runs_ of the run holding the highest epoch stored for
  /// `lsn`; runs_.size() if the LSN is not stored.
  size_t HighestEpochOf(Lsn lsn) const;
  /// Position in runs_ of the first run that may hold `lsn`: every run
  /// before it ends below `lsn`.
  size_t FirstRunNear(Lsn lsn) const;

  ClientId client_;
  TrackImages* images_;
  std::vector<Run> runs_;      // ascending first <LSN, Epoch>
  size_t record_count_ = 0;    // records the runs hold
  // The highest <LSN, Epoch> stored; <kNoLsn, 0> when empty.
  std::pair<Lsn, Epoch> max_key_{kNoLsn, 0};
  uint32_t next_pos_ = 0;      // write-order position of the next record
  // The run holding the last record indexed, which the next one may
  // extend, and where that record's entry ends; kNoRun once the record
  // moved or was discarded.
  size_t tail_ = kNoRun;
  RecordLocation tail_end_;
  // Derived interval list in write order; the last element is the tail.
  std::vector<Interval> sequences_;
  // Wire encodings of the copies staged by epoch, in arrival order.
  std::map<Epoch, std::vector<SharedBytes>> staged_;
  // Wire encodings of stream records received past a gap, by LSN.
  std::map<Lsn, SharedBytes> held_;
  // The <epoch, LSN> a NewInterval announced, until its record arrives.
  std::optional<std::pair<Epoch, Lsn>> announced_;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_CLIENT_LOG_STORE_H_
