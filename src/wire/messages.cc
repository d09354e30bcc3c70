#include "wire/messages.h"

#include <utility>

namespace dlog::wire {
namespace {

/// Writes one record's wire encoding: kRecordFixedBytes + data.size()
/// bytes.
void PutRecord(Encoder* enc, Lsn lsn, Epoch epoch, bool present,
               std::span<const uint8_t> data) {
  enc->PutU64(lsn);
  enc->PutU64(epoch);
  enc->PutU8(present ? 1 : 0);
  enc->PutBlob(data.data(), data.size());
}

void PutRecord(Encoder* enc, const LogRecord& r) {
  PutRecord(enc, r.lsn, r.epoch, r.present, {r.data.data(), r.data.size()});
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
  Encoder enc(&out, EncodedRecordSize(record));
  PutRecord(&enc, record);
  return out;
}

size_t RecordBatchOverhead() {
  return kHeaderBytes + fields::SizeOf(RecordBatch{});
}

namespace fields {

void Put(Encoder* enc, const IntervalList& v) {
  enc->PutU32(static_cast<uint32_t>(v.size()));
  for (const Interval& iv : v) {
    enc->PutU64(iv.epoch);
    enc->PutU64(iv.low);
    enc->PutU64(iv.high);
  }
}

void Put(Encoder* enc, const RecordRun& v) {
  enc->PutU32(v.size());
  enc->PutRaw(v.bytes().data(), v.bytes().size());
}

bool Reader::Fail(const char* why) {
  status_ = Status::Corruption(why);
  return false;
}

bool Reader::Get(RpcStatus* v) {
  uint8_t byte = 0;
  if (!Get(&byte)) return false;
  if (byte > static_cast<uint8_t>(RpcStatus::kOverloaded)) {
    return Fail("bad rpc status byte");
  }
  *v = static_cast<RpcStatus>(byte);
  return true;
}

bool Reader::Get(IntervalList* v) {
  uint32_t n = 0;
  if (!Get(&n)) return false;
  // Check the count against the bytes before reserving for it.
  if ((body_.size() - pos_) / kIntervalBytes < n) {
    return Fail("interval count overruns the message");
  }
  v->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Interval iv;
    if (!Get(&iv.epoch) || !Get(&iv.low) || !Get(&iv.high)) return false;
    v->push_back(iv);
  }
  return true;
}

}  // namespace fields

void RecordBatchWriter::Add(Lsn lsn, Epoch epoch,
                            std::span<const uint8_t> data, bool present) {
  Encoder enc(&out_, kRecordFixedBytes + data.size());
  PutRecord(&enc, lsn, epoch, present, data);
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

RecordRun RecordRun::Of(std::span<const LogRecord> records) {
  size_t bytes = 0;
  for (const LogRecord& r : records) bytes += EncodedRecordSize(r);
  Bytes out;
  Encoder enc(&out, bytes);
  for (const LogRecord& r : records) PutRecord(&enc, r);
  RecordRun run;
  run.count_ = static_cast<uint32_t>(records.size());
  run.records_ = SharedBytes(std::move(out));
  return run;
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

}  // namespace dlog::wire
