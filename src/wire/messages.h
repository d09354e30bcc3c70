#ifndef DLOG_WIRE_MESSAGES_H_
#define DLOG_WIRE_MESSAGES_H_

#include <cassert>
#include <concepts>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"

namespace dlog::wire {

/// Message types of the client/log-server interface (Figure 4-1).
///
/// Asynchronous client -> server : kWriteLog, kForceLog, kNewInterval
/// Asynchronous server -> client : kNewHighLsn, kMissingInterval
/// Synchronous RPCs              : the *Req/*Resp pairs
enum class MessageType : uint8_t {
  kWriteLog = 1,
  kForceLog = 2,
  kNewInterval = 3,
  kNewHighLsn = 4,
  kMissingInterval = 5,
  kIntervalListReq = 6,
  kIntervalListResp = 7,
  kReadLogForwardReq = 8,
  kReadLogBackwardReq = 9,
  kReadLogResp = 10,
  kCopyLogReq = 11,
  kCopyLogResp = 12,
  kInstallCopiesReq = 13,
  kInstallCopiesResp = 14,
  // Generator-state-representative access (Appendix I). The paper hosts
  // representatives "on log server nodes"; these two RPCs are the "few
  // other [operations] for reasons of efficiency" implementations add.
  kGenReadReq = 15,
  kGenReadResp = 16,
  kGenWriteReq = 17,
  kGenWriteResp = 18,
  /// Log space management (Section 5.3): "client recovery managers can
  /// use checkpoints and other mechanisms to limit the online log storage
  /// required for node recovery." Asynchronous; the server discards the
  /// client's records with LSNs below the given point.
  kTruncateLog = 19,
  /// Explicit load-shed reply (Section 4.2 lets servers "ignore ForceLog
  /// and WriteLog messages if they become too heavily loaded"; this makes
  /// the refusal visible). Asynchronous server -> client; carries an
  /// advisory retry-after hint and the server's current stored high LSN
  /// so the client's N-of-M accounting stays correct while backing off.
  kOverloaded = 20,
};

/// Every message starts with a fixed header: type, then an RPC id that is
/// zero for asynchronous messages and non-zero (echoed in the response)
/// for synchronous calls. The body is a zero-copy view into the buffer
/// the envelope was decoded from.
struct Envelope {
  MessageType type;
  uint64_t rpc_id = 0;
  SharedBytes body;
};

/// Bytes a LogRecord occupies inside a run of records; used by the client
/// to pack "as many log records as will fit in a network packet".
size_t EncodedRecordSize(const LogRecord& record);

/// Fixed bytes of a record's wire encoding: lsn(8) + epoch(8) +
/// present(1) + data length(4); the data follows.
inline constexpr size_t kRecordFixedBytes = 8 + 8 + 1 + 4;

/// One record read in place from its wire encoding: its key, its present
/// flag, and the whole encoding (fixed fields and data). Valid while the
/// buffer it was read from is.
struct RecordView {
  Lsn lsn = kNoLsn;
  Epoch epoch = 0;
  bool present = true;
  std::span<const uint8_t> bytes;

  std::span<const uint8_t> data() const {
    return bytes.subspan(kRecordFixedBytes);
  }
};

/// Reads the record whose wire encoding starts at `p`, with bounds the
/// caller has checked (CheckedRecordSize, or an encoding this process
/// made).
inline RecordView RecordAt(const uint8_t* p) {
  RecordView r;
  r.lsn = LoadLE(p, 8);
  r.epoch = LoadLE(p + 8, 8);
  r.present = p[16] != 0;
  r.bytes = {p, kRecordFixedBytes + static_cast<size_t>(LoadLE(p + 17, 4))};
  return r;
}

/// The size of the record encoding at the start of `bytes`; 0 if it
/// overruns them or its present byte is neither 0 nor 1 (nodes store and
/// serve an encoding as it arrived, so only canonical ones pass). The
/// one check of a record's bytes, in a run or in a track.
size_t CheckedRecordSize(std::span<const uint8_t> bytes);

/// A record's wire encoding in an owned buffer (the reference model's
/// writes; the log client encodes its batches in place).
Bytes EncodeRecord(const LogRecord& record);

/// The record whose wire encoding is `encoding`, its data a view sharing
/// it (empty when the data is).
LogRecord ToLogRecord(const SharedBytes& encoding);

/// A count-prefixed run of records (a u32 count, then each record's wire
/// encoding) read in place: the records of a WriteLog/ForceLog batch, a
/// CopyLog request or a ReadLog reply. Parse checks the count and every
/// record in one pass; iterating then yields each record as a RecordView
/// of the message, with no allocation.
class RecordRun {
 public:
  /// The run whose count starts at byte `offset` of `body`. Corruption,
  /// accepting no record, if the count is truncated, a record overruns
  /// the body (however its count or length field lies), or a present
  /// byte is neither 0 nor 1. Bytes after the last record are ignored.
  static Result<RecordRun> Parse(const SharedBytes& body, size_t offset);
  /// A run of `records`' wire encodings in a buffer of its own: how a
  /// sender that keeps LogRecords puts them in a request.
  static RecordRun Of(std::span<const LogRecord> records);

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// The records' wire encodings, back to back (the run without its
  /// count).
  std::span<const uint8_t> bytes() const {
    return {records_.data(), records_.size()};
  }

  class Iterator {
   public:
    RecordView operator*() const { return RecordAt(pos_); }
    Iterator& operator++() {
      pos_ += kRecordFixedBytes + static_cast<size_t>(LoadLE(pos_ + 17, 4));
      --left_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return left_ != other.left_;
    }

   private:
    friend class RecordRun;
    Iterator(const uint8_t* pos, uint32_t left) : pos_(pos), left_(left) {}
    const uint8_t* pos_;
    uint32_t left_;
  };
  Iterator begin() const { return Iterator(records_.data(), count_); }
  Iterator end() const { return Iterator(nullptr, 0); }
  /// The first record; the run must not be empty.
  RecordView front() const { return *begin(); }

  /// `record`, one of this run's, as a view sharing the message's buffer:
  /// how a record is kept past its message.
  SharedBytes Share(const RecordView& record) const {
    return records_.Slice(
        static_cast<size_t>(record.bytes.data() - records_.data()),
        record.bytes.size());
  }

 private:
  SharedBytes records_;  // from the first record to the end of the last
  uint32_t count_ = 0;
};

// --- Messages ---
// Each message struct names its MessageType (kType), a request names the
// reply that answers it (Reply), and Fields(m) ties its fields once, in
// wire order. Encode and Decode derive every message's size, writer and
// checked reader from that list. A field is one of:
//   - uint8_t, uint32_t or uint64_t: little-endian, of its own width;
//   - RpcStatus: one byte; a byte above kOverloaded is Corruption;
//   - IntervalList: a u32 count, then each interval's epoch, low and high
//     as u64s; a count the bytes left cannot hold is Corruption, found
//     before anything is reserved for it;
//   - RecordRun, as the last field: a u32 count, then the records' wire
//     encodings, read in place by RecordRun::Parse.
// Bytes after the last field are ignored.

/// WriteLog / ForceLog (Figure 4-1): "Client processes and log servers
/// attempt to pack as many log records as will fit in a network packet in
/// each call." ForceLog additionally requests an immediate NewHighLsn
/// acknowledgment. Senders write one with RecordBatchWriter, naming which
/// of the two it is; the server reads it in place with Decode.
struct RecordBatch {
  static constexpr MessageType kType = MessageType::kWriteLog;
  static constexpr MessageType kAltType = MessageType::kForceLog;
  ClientId client = 0;
  Epoch epoch = 0;
  /// Causal-trace metadata (src/obs): the wire.send span covering this
  /// batch's delivery. Zero when tracing is off. Carried in the message
  /// so the receiving server can close the sender's span and attribute
  /// buffering/track writes to the originating transaction.
  uint64_t trace = 0;
  uint64_t span = 0;
  RecordRun records;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.epoch, m.trace, m.span, m.records);
  }
};

/// NewInterval: tells the server to ignore a missing-LSN gap and start a
/// new interval at `starting_lsn` (used when the client switched servers).
struct NewIntervalMsg {
  static constexpr MessageType kType = MessageType::kNewInterval;
  ClientId client = 0;
  Epoch epoch = 0;
  Lsn starting_lsn = kNoLsn;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.epoch, m.starting_lsn);
  }
};

/// NewHighLsn: the server's acknowledgment carrying "the highest forced
/// log sequence number".
struct NewHighLsnMsg {
  static constexpr MessageType kType = MessageType::kNewHighLsn;
  Lsn new_high_lsn = kNoLsn;
  static constexpr auto Fields(auto& m) { return std::tie(m.new_high_lsn); }
};

/// Overloaded: the server's admission controller rejected a WriteLog /
/// ForceLog batch instead of queueing it.
struct OverloadedMsg {
  static constexpr MessageType kType = MessageType::kOverloaded;
  ClientId client = 0;
  /// The shed message's type (kWriteLog or kForceLog), as a raw byte.
  uint8_t shed_type = 0;
  /// The server's stored high LSN for this client at shed time: progress
  /// the server *did* make keeps counting toward the client's N copies.
  Lsn high_lsn = kNoLsn;
  /// Advisory backoff hint in microseconds (clients may wait longer).
  uint64_t retry_after_us = 0;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.shed_type, m.high_lsn, m.retry_after_us);
  }
};

/// MissingInterval: prompt negative acknowledgment naming the LSN gap the
/// server noticed ([low, high] inclusive).
struct MissingIntervalMsg {
  static constexpr MessageType kType = MessageType::kMissingInterval;
  Lsn low = kNoLsn;
  Lsn high = kNoLsn;
  static constexpr auto Fields(auto& m) { return std::tie(m.low, m.high); }
};

// The replies, named by their requests ahead of their definitions.
struct IntervalListResp;
struct ReadLogResp;
struct CopyLogResp;
struct InstallCopiesResp;
struct GenReadResp;
struct GenWriteResp;

struct IntervalListReq {
  static constexpr MessageType kType = MessageType::kIntervalListReq;
  using Reply = IntervalListResp;
  ClientId client = 0;
  static constexpr auto Fields(auto& m) { return std::tie(m.client); }
};

/// RPC responses carry a status byte so server-side errors (e.g., reading
/// an unstored LSN) travel back to the caller.
enum class RpcStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
  kOverloaded = 3,
};

struct IntervalListResp {
  static constexpr MessageType kType = MessageType::kIntervalListResp;
  RpcStatus status = RpcStatus::kOk;
  IntervalList intervals;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.status, m.intervals);
  }
};

/// ReadLogForward / ReadLogBackward: "differ as to whether log records
/// with log sequence number greater or less than the input LSN are used
/// to fill the packet." One request serves both; a backward read names
/// its type when encoded.
struct ReadLogReq {
  static constexpr MessageType kType = MessageType::kReadLogForwardReq;
  static constexpr MessageType kAltType = MessageType::kReadLogBackwardReq;
  using Reply = ReadLogResp;
  ClientId client = 0;
  Lsn lsn = kNoLsn;
  static constexpr auto Fields(auto& m) { return std::tie(m.client, m.lsn); }
};

/// Written with RecordBatchWriter; Decode reads it in place.
struct ReadLogResp {
  static constexpr MessageType kType = MessageType::kReadLogResp;
  RpcStatus status = RpcStatus::kOk;
  RecordRun records;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.status, m.records);
  }
};

/// CopyLog: recovery-time rewrite of possibly partially-written records;
/// "log servers accept CopyLog calls for records with LSNs that are lower
/// than the highest log sequence number written to the log server."
/// Written with RecordBatchWriter; Decode reads it in place.
struct CopyLogReq {
  static constexpr MessageType kType = MessageType::kCopyLogReq;
  using Reply = CopyLogResp;
  ClientId client = 0;
  Epoch epoch = 0;
  RecordRun records;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.epoch, m.records);
  }
};

struct CopyLogResp {
  static constexpr MessageType kType = MessageType::kCopyLogResp;
  RpcStatus status = RpcStatus::kOk;
  static constexpr auto Fields(auto& m) { return std::tie(m.status); }
};

/// InstallCopies: atomically installs all records copied with `epoch`.
struct InstallCopiesReq {
  static constexpr MessageType kType = MessageType::kInstallCopiesReq;
  using Reply = InstallCopiesResp;
  ClientId client = 0;
  Epoch epoch = 0;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.epoch);
  }
};

struct InstallCopiesResp {
  static constexpr MessageType kType = MessageType::kInstallCopiesResp;
  RpcStatus status = RpcStatus::kOk;
  static constexpr auto Fields(auto& m) { return std::tie(m.status); }
};

/// Reads the generator state representative hosted on this server for
/// the given client's identifier generator.
struct GenReadReq {
  static constexpr MessageType kType = MessageType::kGenReadReq;
  using Reply = GenReadResp;
  ClientId client = 0;
  static constexpr auto Fields(auto& m) { return std::tie(m.client); }
};

struct GenReadResp {
  static constexpr MessageType kType = MessageType::kGenReadResp;
  RpcStatus status = RpcStatus::kOk;
  uint64_t value = 0;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.status, m.value);
  }
};

/// Writes the representative (atomic at this server).
struct GenWriteReq {
  static constexpr MessageType kType = MessageType::kGenWriteReq;
  using Reply = GenWriteResp;
  ClientId client = 0;
  uint64_t value = 0;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.value);
  }
};

/// Discard this client's records with LSN < below (Section 5.3).
struct TruncateLogMsg {
  static constexpr MessageType kType = MessageType::kTruncateLog;
  ClientId client = 0;
  Lsn below = kNoLsn;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.client, m.below);
  }
};

struct GenWriteResp {
  static constexpr MessageType kType = MessageType::kGenWriteResp;
  RpcStatus status = RpcStatus::kOk;
  static constexpr auto Fields(auto& m) { return std::tie(m.status); }
};

/// The transport frame wire::Endpoint appends to every message: a fixed
/// trailer rather than a header, so framing appends into the headroom
/// every encoding reserves instead of copying the payload. Not a message:
/// it has no type and no rpc id.
struct FrameTrailer {
  uint8_t frame_type = 0;
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  /// The sender's allocation (moving-window flow control).
  uint64_t alloc = 0;
  /// The payload's length, so a truncated packet is found before the
  /// payload is sliced out.
  uint32_t payload_len = 0;
  static constexpr auto Fields(auto& m) {
    return std::tie(m.frame_type, m.conn_id, m.seq, m.alloc, m.payload_len);
  }
};

// --- Encoding and decoding ---

namespace fields {

// Each field kind's size and writer; Reader holds the checked readers.
// Declared ahead of the templates below, which find them by name.

template <typename T>
concept FixedWidth = std::same_as<T, uint8_t> || std::same_as<T, uint32_t> ||
                     std::same_as<T, uint64_t>;

template <FixedWidth T>
constexpr size_t Size(T) {
  return sizeof(T);
}
constexpr size_t Size(RpcStatus) { return 1; }
inline constexpr size_t kIntervalBytes = 8 + 8 + 8;
inline size_t Size(const IntervalList& v) {
  return 4 + kIntervalBytes * v.size();
}
inline size_t Size(const RecordRun& v) { return 4 + v.bytes().size(); }

template <FixedWidth T>
void Put(Encoder* enc, T v) {
  if constexpr (sizeof(T) == 1) {
    enc->PutU8(v);
  } else if constexpr (sizeof(T) == 4) {
    enc->PutU32(v);
  } else {
    enc->PutU64(v);
  }
}
inline void Put(Encoder* enc, RpcStatus v) {
  enc->PutU8(static_cast<uint8_t>(v));
}
void Put(Encoder* enc, const IntervalList& v);
void Put(Encoder* enc, const RecordRun& v);

/// Reads fields in wire order from a body, each checked as the list above
/// says. The first that fails keeps its Corruption status and stops the
/// reading.
class Reader {
 public:
  Reader(const SharedBytes& body, size_t offset) : body_(body), pos_(offset) {}

  template <FixedWidth T>
  bool Get(T* v) {
    if (body_.size() - pos_ < sizeof(T)) {
      return Fail("decode past end of buffer");
    }
    *v = static_cast<T>(LoadLE(body_.data() + pos_, sizeof(T)));
    pos_ += sizeof(T);
    return true;
  }
  bool Get(RpcStatus* v);
  bool Get(IntervalList* v);
  bool Get(RecordRun* v) {
    Result<RecordRun> run = RecordRun::Parse(body_, pos_);
    if (!run.ok()) {
      status_ = run.status();
      return false;
    }
    *v = *std::move(run);
    pos_ += Size(*v);
    return true;
  }

  Status TakeStatus() { return std::move(status_); }

 private:
  /// Keeps `why` as the Corruption status; out of line, so the reads
  /// that succeed stay small enough to inline.
  bool Fail(const char* why);

  const SharedBytes& body_;
  size_t pos_;
  Status status_;
};

/// The bytes of `m`'s fields.
template <typename M>
constexpr size_t SizeOf(const M& m) {
  return std::apply([](const auto&... f) { return (Size(f) + ... + 0); },
                    M::Fields(m));
}

/// Writes `m`'s fields in wire order.
template <typename M>
void PutAll(Encoder* enc, const M& m) {
  std::apply([enc](const auto&... f) { (Put(enc, f), ...); }, M::Fields(m));
}

/// Whether message struct M may be sent as `type`: its own, or the
/// other type a RecordBatch or a ReadLogReq serves.
template <typename M>
constexpr bool SentAs(MessageType type) {
  if constexpr (requires { M::kAltType; }) {
    if (type == M::kAltType) return true;
  }
  return type == M::kType;
}

}  // namespace fields

/// Bytes of the FrameTrailer.
inline constexpr size_t kFrameTrailerBytes = fields::SizeOf(FrameTrailer{});

/// Bytes of the header every message starts with: type, then rpc id.
inline constexpr size_t kHeaderBytes = 1 + 8;

namespace fields {

/// `m` as a message of `type` with `room` bytes to spare, then
/// kFrameTrailerBytes of headroom: one allocation, at its exact size.
template <typename M>
Bytes Message(const M& m, uint64_t rpc_id, MessageType type, size_t room) {
  assert(SentAs<M>(type));
  const size_t size = kHeaderBytes + SizeOf(m);
  Bytes out;
  out.reserve(size + room + kFrameTrailerBytes);
  Encoder enc(&out, size);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU64(rpc_id);
  PutAll(&enc, m);
  return out;
}

}  // namespace fields

/// `m` as a complete message ready to hand to a wire::Connection: the
/// header, then its fields. `rpc_id` is zero for an asynchronous message;
/// `type` is M's own, or ForceLog for a RecordBatch and ReadLogBackward
/// for a ReadLogReq. The buffer is allocated once, at its exact size plus
/// kFrameTrailerBytes, so neither encoding nor framing reallocates.
template <typename M>
Bytes Encode(const M& m, uint64_t rpc_id = 0, MessageType type = M::kType) {
  return fields::Message(m, rpc_id, type, 0);
}

/// Reads a message struct M (or the FrameTrailer) from `body`, from byte
/// `offset` on, checking every field: Corruption, at the first field that
/// fails its check, accepting nothing. Record runs are views sharing
/// `body`'s buffer. A Bytes argument converts (with a copy) for callers
/// that hold an owned buffer.
template <typename M>
inline Result<M> Decode(const SharedBytes& body, size_t offset = 0) {
  assert(offset <= body.size());
  fields::Reader in(body, offset);
  M m;
  const bool read = std::apply(
      [&in](auto&... f) { return (in.Get(&f) && ...); }, M::Fields(m));
  if (!read) return in.TakeStatus();
  return m;
}

/// Splits the header off `wire`; the returned Envelope's body is a view
/// sharing `wire`'s buffer (no copy). DecodeEnvelope names the type; the
/// caller then reads the body with Decode of the matching struct. The
/// Bytes overload wraps its input in a fresh SharedBytes first (one
/// counted copy) — convenient for tests and offline tooling.
Result<Envelope> DecodeEnvelope(const SharedBytes& wire);
Result<Envelope> DecodeEnvelope(const Bytes& wire);

/// Writes a message that ends in a run of records (a WriteLog/ForceLog
/// batch, a CopyLog request or a ReadLog reply) record by record, from
/// wherever the sender keeps them: the log client's pending ring, the log
/// server's track images.
class RecordBatchWriter {
 public:
  /// The message of `header`'s fields, as `type` (see Encode), whose run
  /// is the records Add is given; `header.records` must be empty.
  /// `record_bytes` is the EncodedRecordSize sum of the records to come,
  /// so the buffer is allocated once, at its final size; Take fills in
  /// their count.
  template <typename H>
  RecordBatchWriter(const H& header, uint64_t rpc_id, size_t record_bytes,
                    MessageType type = H::kType)
      : out_(fields::Message(header, rpc_id, type, record_bytes)),
        count_at_(out_.size() - 4) {
    assert(header.records.empty());
  }

  /// Adds the record <lsn, epoch> holding `data` (present unless told
  /// otherwise): how the log client writes the records it keeps.
  void Add(Lsn lsn, Epoch epoch, std::span<const uint8_t> data,
           bool present = true);
  void Add(const LogRecord& record) {
    Add(record.lsn, record.epoch, {record.data.data(), record.data.size()},
        record.present);
  }
  /// Adds a record's wire encoding as it is.
  void Add(std::span<const uint8_t> encoding);
  /// The finished message.
  Bytes Take();

 private:
  Bytes out_;
  size_t count_at_;
  uint32_t count_ = 0;
};

/// Fixed per-RecordBatch overhead (envelope header + batch fields).
size_t RecordBatchOverhead();

}  // namespace dlog::wire

#endif  // DLOG_WIRE_MESSAGES_H_
