#include "wire/messages.h"

#include <cassert>
#include <utility>

namespace dlog::wire {
namespace {

// type(1) + rpc_id(8)
constexpr size_t kHeaderBytes = 1 + 8;

/// An empty message buffer with room for `size` bytes plus the frame
/// trailer, so neither encoding nor framing reallocates.
Bytes MessageBuffer(size_t size) {
  Bytes out;
  out.reserve(size + kFrameTrailerBytes);
  return out;
}

void PutHeader(Encoder* enc, MessageType type, uint64_t rpc_id) {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutU64(rpc_id);
}

void PutRecord(Encoder* enc, const LogRecord& r) {
  enc->PutU64(r.lsn);
  enc->PutU64(r.epoch);
  enc->PutU8(r.present ? 1 : 0);
  enc->PutBlob(r.data);
}

Result<RpcStatus> GetRpcStatus(Decoder* dec) {
  DLOG_ASSIGN_OR_RETURN(uint8_t v, dec->GetU8());
  if (v > static_cast<uint8_t>(RpcStatus::kOverloaded)) {
    return Status::Corruption("bad rpc status byte");
  }
  return static_cast<RpcStatus>(v);
}

}  // namespace

size_t EncodedRecordSize(const LogRecord& record) {
  return kRecordFixedBytes + record.data.size();
}

size_t CheckedRecordSize(std::span<const uint8_t> bytes) {
  if (bytes.size() < kRecordFixedBytes) return 0;
  // Only the canonical present bytes: nodes keep the encoding as it
  // arrived.
  if (bytes[16] > 1) return 0;
  const size_t n = static_cast<size_t>(LoadLE(bytes.data() + 17, 4));
  if (bytes.size() - kRecordFixedBytes < n) return 0;
  return kRecordFixedBytes + n;
}

LogRecord ToLogRecord(const SharedBytes& encoding) {
  const RecordView v = RecordAt(encoding.data());
  LogRecord record{v.lsn, v.epoch, v.present, {}};
  if (!v.data().empty()) {
    record.data = encoding.Slice(kRecordFixedBytes, v.data().size());
  }
  return record;
}

Bytes EncodeRecord(const LogRecord& record) {
  Bytes out;
  out.reserve(EncodedRecordSize(record));
  Encoder enc(&out);
  PutRecord(&enc, record);
  return out;
}

size_t RecordBatchOverhead() {
  // type(1) + rpc_id(8) + client(4) + epoch(8) + trace(8) + span(8) +
  // count(4)
  return 1 + 8 + 4 + 8 + 8 + 8 + 4;
}

RecordBatchWriter::RecordBatchWriter(size_t message_bytes)
    : out_(MessageBuffer(message_bytes)) {}

void RecordBatchWriter::StartRun() {
  count_at_ = out_.size();
  Encoder(&out_).PutU32(0);
}

RecordBatchWriter::RecordBatchWriter(MessageType type,
                                     const RecordBatch& header,
                                     size_t record_bytes)
    : RecordBatchWriter(RecordBatchOverhead() + record_bytes) {
  assert(type == MessageType::kWriteLog || type == MessageType::kForceLog);
  Encoder enc(&out_);
  PutHeader(&enc, type, 0);
  enc.PutU32(header.client);
  enc.PutU64(header.epoch);
  enc.PutU64(header.trace);
  enc.PutU64(header.span);
  StartRun();
}

RecordBatchWriter::RecordBatchWriter(const CopyLogReq& header,
                                     uint64_t rpc_id, size_t record_bytes)
    : RecordBatchWriter(kHeaderBytes + 4 + 8 + 4 + record_bytes) {
  Encoder enc(&out_);
  PutHeader(&enc, MessageType::kCopyLogReq, rpc_id);
  enc.PutU32(header.client);
  enc.PutU64(header.epoch);
  StartRun();
}

RecordBatchWriter::RecordBatchWriter(const ReadLogResp& header,
                                     uint64_t rpc_id, size_t record_bytes)
    : RecordBatchWriter(kHeaderBytes + 1 + 4 + record_bytes) {
  Encoder enc(&out_);
  PutHeader(&enc, MessageType::kReadLogResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(header.status));
  StartRun();
}

void RecordBatchWriter::Add(const LogRecord& record) {
  Encoder enc(&out_);
  PutRecord(&enc, record);
  ++count_;
}

void RecordBatchWriter::Add(std::span<const uint8_t> encoding) {
  out_.insert(out_.end(), encoding.begin(), encoding.end());
  ++count_;
}

Bytes RecordBatchWriter::Take() {
  StoreLE(out_.data() + count_at_, count_, 4);
  return std::move(out_);
}

Bytes EncodeNewInterval(const NewIntervalMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kNewInterval, 0);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  enc.PutU64(m.starting_lsn);
  return out;
}

Bytes EncodeNewHighLsn(const NewHighLsnMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kNewHighLsn, 0);
  enc.PutU64(m.new_high_lsn);
  return out;
}

Bytes EncodeOverloaded(const OverloadedMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 1 + 8 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kOverloaded, 0);
  enc.PutU32(m.client);
  enc.PutU8(m.shed_type);
  enc.PutU64(m.high_lsn);
  enc.PutU64(m.retry_after_us);
  return out;
}

Bytes EncodeMissingInterval(const MissingIntervalMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 8 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kMissingInterval, 0);
  enc.PutU64(m.low);
  enc.PutU64(m.high);
  return out;
}

Bytes EncodeIntervalListReq(const IntervalListReq& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 4);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kIntervalListReq, rpc_id);
  enc.PutU32(m.client);
  return out;
}

Bytes EncodeIntervalListResp(const IntervalListResp& m, uint64_t rpc_id) {
  Bytes out =
      MessageBuffer(kHeaderBytes + 1 + 4 + (8 + 8 + 8) * m.intervals.size());
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kIntervalListResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  enc.PutU32(static_cast<uint32_t>(m.intervals.size()));
  for (const Interval& iv : m.intervals) {
    enc.PutU64(iv.epoch);
    enc.PutU64(iv.low);
    enc.PutU64(iv.high);
  }
  return out;
}

Bytes EncodeReadLogReq(MessageType type, const ReadLogReq& m,
                       uint64_t rpc_id) {
  assert(type == MessageType::kReadLogForwardReq ||
         type == MessageType::kReadLogBackwardReq);
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8);
  Encoder enc(&out);
  PutHeader(&enc, type, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.lsn);
  return out;
}

Bytes EncodeCopyLogResp(const CopyLogResp& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 1);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kCopyLogResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Bytes EncodeInstallCopiesReq(const InstallCopiesReq& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kInstallCopiesReq, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  return out;
}

Bytes EncodeInstallCopiesResp(const InstallCopiesResp& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 1);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kInstallCopiesResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Bytes EncodeGenReadReq(const GenReadReq& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 4);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenReadReq, rpc_id);
  enc.PutU32(m.client);
  return out;
}

Bytes EncodeGenReadResp(const GenReadResp& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 1 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenReadResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  enc.PutU64(m.value);
  return out;
}

Bytes EncodeGenWriteReq(const GenWriteReq& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenWriteReq, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.value);
  return out;
}

Bytes EncodeGenWriteResp(const GenWriteResp& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 1);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenWriteResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Result<GenReadReq> DecodeGenReadReq(const SharedBytes& body) {
  Decoder dec(body);
  GenReadReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  return m;
}

Result<GenReadResp> DecodeGenReadResp(const SharedBytes& body) {
  Decoder dec(body);
  GenReadResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(m.value, dec.GetU64());
  return m;
}

Result<GenWriteReq> DecodeGenWriteReq(const SharedBytes& body) {
  Decoder dec(body);
  GenWriteReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.value, dec.GetU64());
  return m;
}

Result<GenWriteResp> DecodeGenWriteResp(const SharedBytes& body) {
  Decoder dec(body);
  GenWriteResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

Bytes EncodeTruncateLog(const TruncateLogMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kTruncateLog, 0);
  enc.PutU32(m.client);
  enc.PutU64(m.below);
  return out;
}

Result<TruncateLogMsg> DecodeTruncateLog(const SharedBytes& body) {
  Decoder dec(body);
  TruncateLogMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.below, dec.GetU64());
  return m;
}

Result<Envelope> DecodeEnvelope(const SharedBytes& wire) {
  Decoder dec(wire);
  Envelope env;
  DLOG_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < static_cast<uint8_t>(MessageType::kWriteLog) ||
      type > static_cast<uint8_t>(MessageType::kOverloaded)) {
    return Status::Corruption("unknown message type");
  }
  env.type = static_cast<MessageType>(type);
  DLOG_ASSIGN_OR_RETURN(env.rpc_id, dec.GetU64());
  // Body is a slice of the arriving buffer — no copy.
  const size_t header = wire.size() - dec.remaining();
  env.body = wire.Slice(header, wire.size() - header);
  return env;
}

Result<Envelope> DecodeEnvelope(const Bytes& wire) {
  // Offline/test convenience: wrap the owned buffer first (one copy so
  // the envelope's body view cannot dangle past `wire`).
  return DecodeEnvelope(SharedBytes::Copy(wire.data(), wire.size()));
}

Result<RecordRun> RecordRun::Parse(const SharedBytes& body, size_t offset) {
  if (body.size() < offset || body.size() - offset < 4) {
    return Status::Corruption("truncated record count");
  }
  RecordRun run;
  run.count_ = static_cast<uint32_t>(LoadLE(body.data() + offset, 4));
  // Every bound is checked here, before any record is applied, so an
  // overrun anywhere rejects the whole run. A lying count ends the loop
  // when the bytes run out, so it allocates nothing.
  const size_t first = offset + 4;
  size_t pos = first;
  for (uint32_t i = 0; i < run.count_; ++i) {
    const size_t n =
        CheckedRecordSize({body.data() + pos, body.size() - pos});
    if (n == 0) return Status::Corruption("malformed record in a run");
    pos += n;
  }
  run.records_ = body.Slice(first, pos - first);
  return run;
}

Result<RecordBatchView> RecordBatchView::Parse(const SharedBytes& body) {
  Decoder dec(body);
  RecordBatchView batch;
  DLOG_ASSIGN_OR_RETURN(batch.header.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(batch.header.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(batch.header.trace, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(batch.header.span, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(batch.records,
                        RecordRun::Parse(body, body.size() - dec.remaining()));
  return batch;
}

Result<NewIntervalMsg> DecodeNewInterval(const SharedBytes& body) {
  Decoder dec(body);
  NewIntervalMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.starting_lsn, dec.GetU64());
  return m;
}

Result<NewHighLsnMsg> DecodeNewHighLsn(const SharedBytes& body) {
  Decoder dec(body);
  NewHighLsnMsg m;
  DLOG_ASSIGN_OR_RETURN(m.new_high_lsn, dec.GetU64());
  return m;
}

Result<OverloadedMsg> DecodeOverloaded(const SharedBytes& body) {
  Decoder dec(body);
  OverloadedMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.shed_type, dec.GetU8());
  DLOG_ASSIGN_OR_RETURN(m.high_lsn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.retry_after_us, dec.GetU64());
  return m;
}

Result<MissingIntervalMsg> DecodeMissingInterval(const SharedBytes& body) {
  Decoder dec(body);
  MissingIntervalMsg m;
  DLOG_ASSIGN_OR_RETURN(m.low, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.high, dec.GetU64());
  return m;
}

Result<IntervalListReq> DecodeIntervalListReq(const SharedBytes& body) {
  Decoder dec(body);
  IntervalListReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  return m;
}

Result<IntervalListResp> DecodeIntervalListResp(const SharedBytes& body) {
  Decoder dec(body);
  IntervalListResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  // Check the count against the bytes before reserving for it.
  if (dec.remaining() / (8 + 8 + 8) < n) {
    return Status::Corruption("interval count overruns the message");
  }
  m.intervals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Interval iv;
    DLOG_ASSIGN_OR_RETURN(iv.epoch, dec.GetU64());
    DLOG_ASSIGN_OR_RETURN(iv.low, dec.GetU64());
    DLOG_ASSIGN_OR_RETURN(iv.high, dec.GetU64());
    m.intervals.push_back(iv);
  }
  return m;
}

Result<ReadLogReq> DecodeReadLogReq(const SharedBytes& body) {
  Decoder dec(body);
  ReadLogReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.lsn, dec.GetU64());
  return m;
}

Result<ReadLogResp> DecodeReadLogResp(const SharedBytes& body) {
  Decoder dec(body);
  ReadLogResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(m.records,
                        RecordRun::Parse(body, body.size() - dec.remaining()));
  return m;
}

Result<CopyLogReq> DecodeCopyLogReq(const SharedBytes& body) {
  Decoder dec(body);
  CopyLogReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.records,
                        RecordRun::Parse(body, body.size() - dec.remaining()));
  return m;
}

Result<CopyLogResp> DecodeCopyLogResp(const SharedBytes& body) {
  Decoder dec(body);
  CopyLogResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

Result<InstallCopiesReq> DecodeInstallCopiesReq(const SharedBytes& body) {
  Decoder dec(body);
  InstallCopiesReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  return m;
}

Result<InstallCopiesResp> DecodeInstallCopiesResp(const SharedBytes& body) {
  Decoder dec(body);
  InstallCopiesResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

}  // namespace dlog::wire
