#ifndef DLOG_WIRE_MESSAGES_H_
#define DLOG_WIRE_MESSAGES_H_

#include <cstdint>
#include <span>

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

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

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

/// WriteLog / ForceLog (Figure 4-1): "Client processes and log servers
/// attempt to pack as many log records as will fit in a network packet in
/// each call." ForceLog additionally requests an immediate NewHighLsn
/// acknowledgment. These are the fields ahead of the batch's records:
/// senders write one with RecordBatchWriter, the server reads it in place
/// with RecordBatchView.
struct RecordBatch {
  ClientId client = 0;
  Epoch epoch = 0;
  /// Causal-trace metadata (src/obs): the wire.send span covering this
  /// batch's delivery. Zero when tracing is off. Carried in the message
  /// so the receiving server can close the sender's span and attribute
  /// buffering/track writes to the originating transaction.
  uint64_t trace = 0;
  uint64_t span = 0;
};

/// NewInterval: tells the server to ignore a missing-LSN gap and start a
/// new interval at `starting_lsn` (used when the client switched servers).
struct NewIntervalMsg {
  ClientId client = 0;
  Epoch epoch = 0;
  Lsn starting_lsn = kNoLsn;
};

/// NewHighLsn: the server's acknowledgment carrying "the highest forced
/// log sequence number".
struct NewHighLsnMsg {
  Lsn new_high_lsn = kNoLsn;
};

/// Overloaded: the server's admission controller rejected a WriteLog /
/// ForceLog batch instead of queueing it.
struct OverloadedMsg {
  ClientId client = 0;
  /// The shed message's type (kWriteLog or kForceLog), as a raw byte.
  uint8_t shed_type = 0;
  /// The server's stored high LSN for this client at shed time: progress
  /// the server *did* make keeps counting toward the client's N copies.
  Lsn high_lsn = kNoLsn;
  /// Advisory backoff hint in microseconds (clients may wait longer).
  uint64_t retry_after_us = 0;
};

/// MissingInterval: prompt negative acknowledgment naming the LSN gap the
/// server noticed ([low, high] inclusive).
struct MissingIntervalMsg {
  Lsn low = kNoLsn;
  Lsn high = kNoLsn;
};

struct IntervalListReq {
  ClientId client = 0;
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
  RpcStatus status = RpcStatus::kOk;
  IntervalList intervals;
};

/// ReadLogForward / ReadLogBackward: "differ as to whether log records
/// with log sequence number greater or less than the input LSN are used
/// to fill the packet."
struct ReadLogReq {
  ClientId client = 0;
  Lsn lsn = kNoLsn;
};

/// Written with RecordBatchWriter; DecodeReadLogResp reads it in place.
struct ReadLogResp {
  RpcStatus status = RpcStatus::kOk;
  RecordRun records;
};

/// CopyLog: recovery-time rewrite of possibly partially-written records;
/// "log servers accept CopyLog calls for records with LSNs that are lower
/// than the highest log sequence number written to the log server."
/// Written with RecordBatchWriter; DecodeCopyLogReq reads it in place.
struct CopyLogReq {
  ClientId client = 0;
  Epoch epoch = 0;
  RecordRun records;
};

struct CopyLogResp {
  RpcStatus status = RpcStatus::kOk;
};

/// InstallCopies: atomically installs all records copied with `epoch`.
struct InstallCopiesReq {
  ClientId client = 0;
  Epoch epoch = 0;
};

struct InstallCopiesResp {
  RpcStatus status = RpcStatus::kOk;
};

/// Reads the generator state representative hosted on this server for
/// the given client's identifier generator.
struct GenReadReq {
  ClientId client = 0;
};

struct GenReadResp {
  RpcStatus status = RpcStatus::kOk;
  uint64_t value = 0;
};

/// Writes the representative (atomic at this server).
struct GenWriteReq {
  ClientId client = 0;
  uint64_t value = 0;
};

/// Discard this client's records with LSN < below (Section 5.3).
struct TruncateLogMsg {
  ClientId client = 0;
  Lsn below = kNoLsn;
};

struct GenWriteResp {
  RpcStatus status = RpcStatus::kOk;
};

// --- Encoding ---
// Each Encode* returns a complete message (header + body) ready to hand
// to a wire::Connection. DecodeEnvelope splits the header off; the caller
// then dispatches on type to the matching Decode*. Encoders size their
// buffer up front: the exact message plus kFrameTrailerBytes of headroom.

/// The transport frame wire::Endpoint appends to every message: a fixed
/// trailer (frame type, connection id, sequence number, allocation,
/// payload length) rather than a header, so framing appends into the
/// headroom the encoders reserve instead of copying the payload.
inline constexpr size_t kFrameTrailerBytes = 1 + 8 + 8 + 8 + 4;

/// Writes a message that ends in a run of records (a WriteLog/ForceLog
/// batch, a CopyLog request or a ReadLog reply) record by record, from
/// wherever the sender keeps them: the log client's pending ring, the log
/// server's track images. The header's own records are not read.
/// `record_bytes` is the EncodedRecordSize sum of the records to come, so
/// the buffer is allocated once, at its final size; Take fills in their
/// count.
class RecordBatchWriter {
 public:
  /// A WriteLog or ForceLog message (rpc id 0).
  RecordBatchWriter(MessageType type, const RecordBatch& header,
                    size_t record_bytes);
  RecordBatchWriter(const CopyLogReq& header, uint64_t rpc_id,
                    size_t record_bytes);
  RecordBatchWriter(const ReadLogResp& header, uint64_t rpc_id,
                    size_t record_bytes);

  void Add(const LogRecord& record);
  /// Adds a record's wire encoding as it is.
  void Add(std::span<const uint8_t> encoding);
  /// The finished message.
  Bytes Take();

 private:
  /// An empty message of `message_bytes`; the caller writes its header.
  explicit RecordBatchWriter(size_t message_bytes);
  /// Writes the count's placeholder, after the header.
  void StartRun();

  Bytes out_;
  size_t count_at_ = 0;
  uint32_t count_ = 0;
};

Bytes EncodeNewInterval(const NewIntervalMsg& m);
Bytes EncodeNewHighLsn(const NewHighLsnMsg& m);
Bytes EncodeOverloaded(const OverloadedMsg& m);
Bytes EncodeMissingInterval(const MissingIntervalMsg& m);
Bytes EncodeIntervalListReq(const IntervalListReq& m, uint64_t rpc_id);
Bytes EncodeIntervalListResp(const IntervalListResp& m, uint64_t rpc_id);
Bytes EncodeReadLogReq(MessageType type, const ReadLogReq& m,
                       uint64_t rpc_id);
Bytes EncodeCopyLogResp(const CopyLogResp& m, uint64_t rpc_id);
Bytes EncodeInstallCopiesReq(const InstallCopiesReq& m, uint64_t rpc_id);
Bytes EncodeInstallCopiesResp(const InstallCopiesResp& m, uint64_t rpc_id);
Bytes EncodeGenReadReq(const GenReadReq& m, uint64_t rpc_id);
Bytes EncodeGenReadResp(const GenReadResp& m, uint64_t rpc_id);
Bytes EncodeGenWriteReq(const GenWriteReq& m, uint64_t rpc_id);
Bytes EncodeGenWriteResp(const GenWriteResp& m, uint64_t rpc_id);
Bytes EncodeTruncateLog(const TruncateLogMsg& m);

/// Splits the header off `wire`; the returned Envelope's body is a view
/// sharing `wire`'s buffer (no copy). The Bytes overload wraps its input
/// in a fresh SharedBytes first (one counted copy) — convenient for
/// tests and offline tooling.
Result<Envelope> DecodeEnvelope(const SharedBytes& wire);
Result<Envelope> DecodeEnvelope(const Bytes& wire);

/// Decode* bodies are SharedBytes so record payloads come out as views
/// into the arriving buffer; a Bytes argument converts implicitly (with
/// a copy) for callers that hold an owned buffer.
Result<NewIntervalMsg> DecodeNewInterval(const SharedBytes& body);
Result<NewHighLsnMsg> DecodeNewHighLsn(const SharedBytes& body);
Result<OverloadedMsg> DecodeOverloaded(const SharedBytes& body);
Result<MissingIntervalMsg> DecodeMissingInterval(const SharedBytes& body);
Result<IntervalListReq> DecodeIntervalListReq(const SharedBytes& body);
Result<IntervalListResp> DecodeIntervalListResp(const SharedBytes& body);
Result<ReadLogReq> DecodeReadLogReq(const SharedBytes& body);
Result<ReadLogResp> DecodeReadLogResp(const SharedBytes& body);
Result<CopyLogReq> DecodeCopyLogReq(const SharedBytes& body);
Result<CopyLogResp> DecodeCopyLogResp(const SharedBytes& body);
Result<InstallCopiesReq> DecodeInstallCopiesReq(const SharedBytes& body);
Result<InstallCopiesResp> DecodeInstallCopiesResp(const SharedBytes& body);
Result<GenReadReq> DecodeGenReadReq(const SharedBytes& body);
Result<GenReadResp> DecodeGenReadResp(const SharedBytes& body);
Result<GenWriteReq> DecodeGenWriteReq(const SharedBytes& body);
Result<GenWriteResp> DecodeGenWriteResp(const SharedBytes& body);
Result<TruncateLogMsg> DecodeTruncateLog(const SharedBytes& body);

/// A WriteLog/ForceLog body read in place: the batch fields, then its run
/// of records.
struct RecordBatchView {
  RecordBatch header;
  RecordRun records;

  /// Corruption, accepting no record, if the batch fields are truncated
  /// or the run is malformed (RecordRun::Parse).
  static Result<RecordBatchView> Parse(const SharedBytes& body);
};

/// Fixed per-RecordBatch overhead (envelope header + batch fields).
size_t RecordBatchOverhead();

}  // namespace dlog::wire

#endif  // DLOG_WIRE_MESSAGES_H_
