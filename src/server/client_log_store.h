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

namespace dlog::server {

/// One client's portion of a log server's state (Section 3.1.1): the
/// records themselves (keyed <LSN, Epoch>, each with a present flag), the
/// derived interval list, the staging area for recovery-time copies, the
/// client's record stream as it arrives, and the index of its
/// disk-resident records.
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
/// The <LSN, Epoch> index is a sorted vector: stream writes arrive in
/// ascending key order and append at its tail, so only recovery copies
/// installed below the tail pay for a sorted insert. Each index entry
/// also carries the disk track its record was flushed to, which the read
/// path charges for, and the append forest summarizes those tracks by
/// LSN range (Section 4.3).
class ClientLogStore {
 public:
  /// The track of a record that so far sits only in the NVRAM buffer.
  static constexpr uint64_t kNoTrack = ~uint64_t{0};
  /// Records held past a gap at most; a record arriving when the hold is
  /// full is dropped (the client resends it).
  static constexpr size_t kMaxHeld = 128;

  /// One stored record: its key, its position in stream(), and its disk
  /// track (kNoTrack until a flush makes it disk-resident).
  struct IndexEntry {
    Lsn lsn = kNoLsn;
    Epoch epoch = 0;
    size_t pos = 0;
    uint64_t track = kNoTrack;
  };

  /// Where Place() put an arriving stream record.
  enum class Placement {
    /// It extends the stream: the caller writes it, then writes the held
    /// records it made contiguous (TakeNextHeld).
    kExtend,
    /// It repeats the tail LSN (a redelivery, or the recovery re-copy of
    /// the tail with a higher epoch): the caller writes it.
    kTail,
    /// It is past a gap and now held (dropped if the hold is full).
    kHold,
    /// It is below the tail: already stored or superseded.
    kStale,
  };

  ClientLogStore() = default;

  /// The stream rule for a WriteLog/ForceLog record, in any arrival
  /// order: it extends the stream only as the tail's next LSN (LSN 1 in
  /// an empty store) or as the announced start, which it uses up.
  Placement Place(const LogRecord& record);

  /// Removes and returns the lowest held record if it extends the stream
  /// now, discarding held records the stream has passed meanwhile.
  std::optional<LogRecord> TakeNextHeld();

  /// The LSNs missing between the stream's tail and the lowest held
  /// record, as [low, high]; nullopt when none are.
  std::optional<std::pair<Lsn, Lsn>> Gap() const;

  /// A NewInterval: the client's next sequence starts at <start, epoch>,
  /// and the records below `start` live elsewhere, so held ones are
  /// dropped. Returns the held record that starts the sequence, if it
  /// already arrived (the announcement is then used up).
  std::optional<LogRecord> Announce(Epoch epoch, Lsn start);

  /// Appends `record` to the stream, subject to the monotonicity rules
  /// above. Returns FailedPrecondition for out-of-order writes and
  /// Corruption for a <LSN, Epoch> duplicate with different contents.
  Status Write(LogRecord record);

  /// What Write(record) would return, without writing. Lets a caller
  /// persist the record first and then store it with its payload in the
  /// persisted image.
  Status CheckWrite(const LogRecord& record) const;

  /// Appends a record found by the restart scan, in stream write order,
  /// without validation. A record already stored (one flushed to several
  /// tracks) keeps its first copy.
  void Restore(LogRecord record);

  /// Points the payload of the stored record <lsn, epoch> at `data` when
  /// the two hold equal bytes (the server moves buffered records between
  /// NVRAM images). No-op otherwise, or when the record is not stored.
  void RebindPayload(Lsn lsn, Epoch epoch, SharedBytes data);

  /// ServerReadLog: "returns the present flag and log record with highest
  /// epoch number and the requested LSN". NotFound if the LSN is not
  /// stored at any epoch.
  Result<LogRecord> Read(Lsn lsn) const;

  /// True if a record with this exact <LSN, Epoch> is stored.
  bool Contains(Lsn lsn, Epoch epoch) const {
    return IndexOf(lsn, epoch) < index_.size();
  }

  /// Notes that the stored record <lsn, epoch> now sits on disk in
  /// `track`; a later flush of the same record moves it to the later
  /// track. No-op when the record is not stored (truncated meanwhile).
  void SetTrack(Lsn lsn, Epoch epoch, uint64_t track);

  /// Adds disk track `track`, which holds this client's records with
  /// LSNs in [low, high], to the append forest. Only the part of the
  /// range past the forest's last node is new: a track of recovery
  /// copies below it adds nothing.
  void AddToForest(uint64_t track, Lsn low, Lsn high);

  /// The disk track of the record Read(lsn) returns; nullopt when that
  /// record is only in NVRAM or the LSN is not stored.
  std::optional<uint64_t> ReadTrack(Lsn lsn) const;

  /// The IntervalList operation: maximal runs of consecutive LSNs with
  /// equal epochs, in stream order.
  IntervalList Intervals() const;

  /// Stages a recovery-time copy tagged with `record.epoch` (the client's
  /// new epoch). Staged records are not readable and not in Intervals().
  /// Copies may target any LSN ("log servers accept CopyLog calls for
  /// records with LSNs that are lower than the highest...").
  Status StageCopy(const LogRecord& record);

  /// Atomically installs every record staged with `epoch` (appending them
  /// to the stream in LSN order) and returns the records actually
  /// appended (so the caller can persist them). OK and empty if none are
  /// staged.
  Result<std::vector<LogRecord>> InstallCopies(Epoch epoch);

  /// Total encoded payload bytes staged under `epoch` (capacity checks).
  size_t StagedBytes(Epoch epoch) const;

  /// Log space management (Section 5.3): discards every record with
  /// LSN < `below`, clipping intervals accordingly; retained records keep
  /// their disk tracks. Returns the number of records discarded.
  size_t TruncateBelow(Lsn below);

  /// Highest LSN in the stream (kNoLsn when empty).
  Lsn HighestLsn() const {
    return index_.empty() ? kNoLsn : index_.back().lsn;
  }
  /// Epoch of the tail sequence (0 when empty).
  Epoch TailEpoch() const;
  /// The LSN that would extend the tail sequence.
  Lsn ExpectedNextLsn() const { return HighestLsn() + 1; }

  size_t record_count() const { return stream_.size(); }
  size_t staged_count() const;

  /// All stored records in stream write order.
  const std::vector<LogRecord>& stream() const { return stream_; }

  /// Every stored record's index entry, in ascending <LSN, Epoch> order.
  const std::vector<IndexEntry>& index() const { return index_; }

  /// The Section 4.3 index over the client's disk tracks.
  const forest::AppendForest& forest() const { return forest_; }

 private:
  /// Appends without validation and maintains the index and the
  /// sequence list.
  void AppendToStream(LogRecord record, uint64_t track = kNoTrack);
  /// Position in index_ of exactly <lsn, epoch>; index_.size() if absent.
  size_t IndexOf(Lsn lsn, Epoch epoch) const;
  /// Position in index_ of the highest epoch stored for `lsn`;
  /// index_.size() if the LSN is not stored.
  size_t HighestEpochOf(Lsn lsn) const;

  std::vector<LogRecord> stream_;  // write order, including installed copies
  std::vector<IndexEntry> index_;  // ascending <LSN, Epoch>
  // Derived interval list in write order; the last element is the tail.
  std::vector<Interval> sequences_;
  // Copies staged by epoch, in arrival order.
  std::map<Epoch, std::vector<LogRecord>> staged_;
  // Stream records received past a gap, by LSN.
  std::map<Lsn, LogRecord> held_;
  // The <epoch, LSN> a NewInterval announced, until its record arrives.
  std::optional<std::pair<Epoch, Lsn>> announced_;
  forest::AppendForest forest_;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_CLIENT_LOG_STORE_H_
