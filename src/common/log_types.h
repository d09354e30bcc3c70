#ifndef DLOG_COMMON_LOG_TYPES_H_
#define DLOG_COMMON_LOG_TYPES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace dlog {

/// Log Sequence Number: records in a replicated log are identified by
/// LSNs, "which are increasing integers" (Section 3.1). LSN 0 is reserved
/// to mean "no record"; the first record of a log has LSN 1.
using Lsn = uint64_t;

/// Epoch numbers are "non decreasing integers and all log records written
/// between two client restarts have the same epoch number" (Section
/// 3.1.1). A log record is uniquely identified by a <LSN, Epoch> pair.
using Epoch = uint64_t;

/// Identifies a replicated-log client node. Log servers "may store
/// portions of the replicated logs from many clients" keyed by this id.
using ClientId = uint32_t;

/// Identifies a log server node within a replicated-log configuration.
using ServerId = uint32_t;

constexpr Lsn kNoLsn = 0;

/// A log record as stored on a log server: "log records stored on log
/// servers contain an epoch number and a boolean present flag ... If the
/// present flag is false, no log data need be stored" (Section 3.1.1).
///
/// The payload is a refcounted immutable SharedBytes: a record decoded
/// from an arriving packet is a view into that packet's buffer, and
/// copying records between reorder buffers, stores, and read replies
/// shares the bytes. The payload is materialized (copied) only when it
/// is serialized into stable storage or handed back to a caller as an
/// owned Bytes.
struct LogRecord {
  Lsn lsn = kNoLsn;
  Epoch epoch = 0;
  bool present = true;
  SharedBytes data;

  friend bool operator==(const LogRecord& a, const LogRecord& b) {
    return a.lsn == b.lsn && a.epoch == b.epoch && a.present == b.present &&
           a.data == b.data;
  }
};

/// A maximal run of log records on one server with the same epoch and
/// consecutive LSNs (Section 3.1.1). Bounds are inclusive.
struct Interval {
  Epoch epoch = 0;
  Lsn low = kNoLsn;
  Lsn high = kNoLsn;

  bool Contains(Lsn lsn) const { return lsn >= low && lsn <= high; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.epoch == b.epoch && a.low == b.low && a.high == b.high;
  }
};

/// The result of an IntervalList server operation: "the epoch number, low
/// LSN, and high LSN for each consecutive sequence of log records stored
/// for a client node".
using IntervalList = std::vector<Interval>;

/// Renders "(<low,epoch> <high,epoch>)" lists for diagnostics and the
/// Figure 3-x reproductions.
std::string IntervalListToString(const IntervalList& list);

/// An interval tagged with the server that reported it, the unit of the
/// client-initialization merge.
struct ServerInterval {
  ServerId server = 0;
  Interval interval;
};

/// The merged view of interval lists gathered from M-N+1 (or more) log
/// servers at client initialization (Section 3.1.2): "In merging the
/// interval lists, only the entries with the highest epoch number for a
/// particular LSN are kept." The merge "performs the voting needed to
/// achieve quorum consensus for all ReadLog operations" once, so that each
/// subsequent ReadLog needs a single ServerReadLog.
class MergedLogView {
 public:
  /// A run of LSNs all winning with the same epoch, together with every
  /// server that stores those records at that epoch.
  struct Segment {
    Lsn low = kNoLsn;
    Lsn high = kNoLsn;
    Epoch epoch = 0;
    std::vector<ServerId> servers;

    friend bool operator==(const Segment& a, const Segment& b) {
      return a.low == b.low && a.high == b.high && a.epoch == b.epoch &&
             a.servers == b.servers;
    }
  };

  /// Builds the merged view from per-server interval lists.
  static MergedLogView Build(const std::vector<ServerInterval>& intervals);

  const std::vector<Segment>& segments() const { return segments_; }

  /// The LSN of the most recently written record (EndOfLog), or nullopt
  /// for an empty log.
  std::optional<Lsn> HighLsn() const;

  /// The epoch of the record at HighLsn().
  std::optional<Epoch> HighEpoch() const;

  /// The highest epoch appearing anywhere in the merged view.
  std::optional<Epoch> MaxEpoch() const;

  /// Finds the segment containing `lsn` (the winning-epoch holder set),
  /// or nullptr if no server reported it.
  const Segment* Find(Lsn lsn) const;

  /// Appends/extends coverage after a successful write of <lsn, epoch> to
  /// `servers` so the cached view stays current during normal operation.
  /// Extending the tail segment by a record with the same holders, given
  /// sorted and duplicate-free, allocates nothing.
  void NoteWrite(Lsn lsn, Epoch epoch, std::span<const ServerId> servers);
  void NoteWrite(Lsn lsn, Epoch epoch, const std::vector<ServerId>& servers) {
    NoteWrite(lsn, epoch, std::span<const ServerId>(servers));
  }

  /// Drops coverage of LSNs below `below` (log truncation, Section 5.3).
  void TruncateBelow(Lsn below);

 private:
  std::vector<Segment> segments_;  // sorted by low, non-overlapping
};

}  // namespace dlog

#endif  // DLOG_COMMON_LOG_TYPES_H_
