#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "wire/connection.h"
#include "wire/messages.h"
#include "wire/rpc.h"

namespace dlog::wire {
namespace {

// --- Message codecs ---

LogRecord MakeRecord(Lsn lsn, Epoch epoch, bool present,
                     std::string_view data) {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = ToBytes(data);
  return r;
}

/// `view` as an owned record.
LogRecord ToRecord(const RecordView& view) {
  return MakeRecord(view.lsn, view.epoch, view.present,
                    {reinterpret_cast<const char*>(view.data().data()),
                     view.data().size()});
}

/// The records of `run`, as owned records.
std::vector<LogRecord> RecordsOf(const RecordRun& run) {
  std::vector<LogRecord> records;
  for (const RecordView r : run) records.push_back(ToRecord(r));
  return records;
}

/// `header`'s message ending in `records`, written by the one
/// RecordBatchWriter.
template <typename Header>
Bytes WriteWithRecords(const std::vector<LogRecord>& records,
                       const Header& header, uint64_t rpc_id = 0,
                       MessageType type = Header::kType) {
  size_t bytes = 0;
  for (const LogRecord& r : records) bytes += EncodedRecordSize(r);
  RecordBatchWriter writer(header, rpc_id, bytes, type);
  for (const LogRecord& r : records) writer.Add(r);
  return writer.Take();
}

TEST(MessagesTest, RecordBatchRoundTrip) {
  RecordBatch batch;
  batch.client = 42;
  batch.epoch = 3;
  batch.trace = 11;
  batch.span = 12;
  const std::vector<LogRecord> records = {MakeRecord(1, 3, true, "alpha"),
                                          MakeRecord(2, 3, false, "")};
  Bytes wire = WriteWithRecords(records, batch, 0, MessageType::kForceLog);

  Result<Envelope> env = DecodeEnvelope(wire);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, MessageType::kForceLog);
  EXPECT_EQ(env->rpc_id, 0u);
  Result<RecordBatch> decoded = Decode<RecordBatch>(env->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->client, 42u);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->trace, 11u);
  EXPECT_EQ(decoded->span, 12u);
  ASSERT_EQ(decoded->records.size(), 2u);
  size_t i = 0;
  for (const RecordView r : decoded->records) {
    // Each record is read in place: its bytes are its wire encoding,
    // inside the body.
    EXPECT_EQ(Bytes(r.bytes.begin(), r.bytes.end()),
              EncodeRecord(records[i++]));
    EXPECT_GE(r.bytes.data(), env->body.begin());
    EXPECT_LE(r.bytes.data() + r.bytes.size(), env->body.end());
  }
  EXPECT_EQ(RecordsOf(decoded->records), records);
}

// A record kept past its message is a view sharing the packet's buffer.
TEST(MessagesTest, RecordBatchShareOutlivesTheView) {
  RecordBatch batch;
  batch.client = 1;
  const LogRecord record = MakeRecord(9, 1, true, "kept");
  SharedBytes held;
  {
    Result<Envelope> env = DecodeEnvelope(WriteWithRecords({record}, batch));
    ASSERT_TRUE(env.ok());
    Result<RecordBatch> view = Decode<RecordBatch>(env->body);
    ASSERT_TRUE(view.ok());
    held = view->records.Share(view->records.front());
  }
  EXPECT_EQ(ToRecord(RecordAt(held.data())), record);
  EXPECT_EQ(held.size(), EncodedRecordSize(record));
  EXPECT_EQ(ToLogRecord(held), record);
  EXPECT_EQ(ToLogRecord(held).data.data(),
            held.data() + kRecordFixedBytes);  // a view, not a copy
}

// --- Hostile record runs: each is rejected whole, before any of its
// records could be applied.

/// The body of a WriteLog batch of `records`.
Bytes BatchBody(const std::vector<LogRecord>& records) {
  RecordBatch batch;
  batch.client = 5;
  batch.epoch = 1;
  const Bytes message = WriteWithRecords(records, batch);
  return Bytes(message.begin() + kHeaderBytes, message.end());
}

/// Offset of the record count in a batch body.
constexpr size_t kCountOffset = 4 + 8 + 8 + 8;

void PutLE32(Bytes* bytes, size_t pos, uint32_t v) {
  StoreLE(bytes->data() + pos, v, 4);
}

TEST(MessagesTest, BatchWithCountBeyondItsRecordsIsRejected) {
  Bytes body = BatchBody({MakeRecord(1, 1, true, "a"),
                          MakeRecord(2, 1, true, "b")});
  PutLE32(&body, kCountOffset, 3);
  EXPECT_TRUE(Decode<RecordBatch>(body).status().IsCorruption());
  PutLE32(&body, kCountOffset, 0xFFFFFFFFu);
  EXPECT_TRUE(Decode<RecordBatch>(body).status().IsCorruption());
  PutLE32(&body, kCountOffset, 2);
  EXPECT_TRUE(Decode<RecordBatch>(body).ok());
}

TEST(MessagesTest, BatchWithARecordOverrunningTheBodyIsRejected) {
  Bytes body = BatchBody({MakeRecord(1, 1, true, "first"),
                          MakeRecord(2, 1, true, "last")});
  // The last record's length field claims one byte more than is left.
  const size_t last_len = body.size() - 4 - 4;
  PutLE32(&body, last_len, 5);
  EXPECT_TRUE(Decode<RecordBatch>(body).status().IsCorruption());
  PutLE32(&body, last_len, 0xFFFFFFFFu);
  EXPECT_TRUE(Decode<RecordBatch>(body).status().IsCorruption());
  // A record cut inside its fixed fields.
  Bytes cut = BatchBody({MakeRecord(1, 1, true, "first")});
  cut.resize(kCountOffset + 4 + 10);
  EXPECT_TRUE(Decode<RecordBatch>(cut).status().IsCorruption());
}

TEST(MessagesTest, BatchWithATruncatedHeaderIsRejected) {
  const Bytes body = BatchBody({});
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_TRUE(Decode<RecordBatch>(Bytes(body.begin(), body.begin() + n))
                    .status()
                    .IsCorruption())
        << n << " bytes";
  }
}

TEST(MessagesTest, BatchWithANonCanonicalPresentByteIsRejected) {
  Bytes body = BatchBody({MakeRecord(1, 1, true, "x")});
  body[kCountOffset + 4 + 16] = 2;  // the present flag
  EXPECT_TRUE(Decode<RecordBatch>(body).status().IsCorruption());
  body[kCountOffset + 4 + 16] = 0;
  EXPECT_TRUE(Decode<RecordBatch>(body).ok());
}

// The other record-bearing messages and the interval list check a count
// against the bytes that follow it before trusting it: a count of
// 0xFFFFFFFF in an otherwise empty body is Corruption, not an attempt to
// reserve room for four billion entries.
TEST(MessagesTest, LyingCountsAreRejected) {
  Bytes read(5, 0);  // status kOk, then the count
  PutLE32(&read, 1, 0xFFFFFFFFu);
  EXPECT_TRUE(Decode<ReadLogResp>(read).status().IsCorruption());

  Bytes intervals(5, 0);
  PutLE32(&intervals, 1, 0xFFFFFFFFu);
  EXPECT_TRUE(Decode<IntervalListResp>(intervals).status().IsCorruption());

  Bytes copy(16, 0);  // client, epoch, then the count
  PutLE32(&copy, 12, 0xFFFFFFFFu);
  EXPECT_TRUE(Decode<CopyLogReq>(copy).status().IsCorruption());

  // A count one past the intervals present is rejected too; the true
  // count decodes.
  IntervalListResp two;
  two.intervals = {{1, 1, 3}, {2, 4, 9}};
  Result<Envelope> env = DecodeEnvelope(Encode(two, 1));
  ASSERT_TRUE(env.ok());
  Bytes body(env->body.begin(), env->body.end());
  PutLE32(&body, 1, 3);
  EXPECT_TRUE(Decode<IntervalListResp>(body).status().IsCorruption());
  PutLE32(&body, 1, 2);
  EXPECT_EQ(Decode<IntervalListResp>(body)->intervals, two.intervals);
}

TEST(MessagesTest, EmptyBatchAndEmptyPayloadParse) {
  Result<RecordBatch> empty = Decode<RecordBatch>(BatchBody({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->records.size(), 0u);
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->records.begin() != empty->records.end());

  Result<RecordBatch> blank =
      Decode<RecordBatch>(BatchBody({MakeRecord(4, 2, false, "")}));
  ASSERT_TRUE(blank.ok());
  ASSERT_EQ(blank->records.size(), 1u);
  const RecordView r = blank->records.front();
  EXPECT_EQ(r.lsn, 4u);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_FALSE(r.present);
  EXPECT_TRUE(r.data().empty());

  // A NotFound read reply carries an empty run.
  Result<Envelope> env = DecodeEnvelope(
      WriteWithRecords({}, ReadLogResp{RpcStatus::kNotFound, {}}, 5));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->rpc_id, 5u);
  Result<ReadLogResp> not_found = Decode<ReadLogResp>(env->body);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, RpcStatus::kNotFound);
  EXPECT_TRUE(not_found->records.empty());
}

TEST(MessagesTest, GarbageIsRejected) {
  EXPECT_FALSE(DecodeEnvelope(ToBytes("")).ok());
  EXPECT_FALSE(DecodeEnvelope(ToBytes("\xFFgarbage")).ok());
}

TEST(MessagesTest, EncodedRecordSizeMatchesActual) {
  RecordBatch batch;
  batch.client = 1;
  batch.epoch = 1;
  const LogRecord r = MakeRecord(5, 1, true, "0123456789");
  Bytes empty = WriteWithRecords({}, batch);
  Bytes one = WriteWithRecords({r}, batch);
  EXPECT_EQ(one.size() - empty.size(), EncodedRecordSize(r));
  EXPECT_EQ(empty.size(), RecordBatchOverhead());
}

// --- Golden wire bytes ---
// One message of each of the 20 types, and one frame trailer, pinned as
// the bytes the hand-written per-message encoders produced: field order,
// widths and byte order checked directly. Every field holds a distinct
// value whose bytes name it, so a swapped or resized field shows.

/// Lower-case hex of `bytes`.
std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(2 * bytes.size(), '0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kDigits[bytes[i] >> 4];
    out[2 * i + 1] = kDigits[bytes[i] & 15];
  }
  return out;
}

/// `fields` with the spaces that separate its fields removed.
std::string Unspaced(std::string_view fields) {
  std::string out;
  for (char c : fields) {
    if (c != ' ') out.push_back(c);
  }
  return out;
}

/// The two records every record-bearing golden message carries.
std::vector<LogRecord> GoldenRecords() {
  return {MakeRecord(0x1011121314151617, 0x2021222324252627, true, "ab"),
          MakeRecord(0x3031323334353637, 0x4041424344454647, false, "")};
}

/// The rpc id of every golden synchronous-call message.
constexpr uint64_t kGoldenRpcId = 0xf0f1f2f3f4f5f6f7;

/// One instance of each message struct, every field set (record runs to
/// the two golden records, the interval list to two intervals).
template <typename M>
M Golden();
template <>
RecordBatch Golden() {
  return {0x50515253, 0x6061626364656667, 0x7071727374757677,
          0x8081828384858687, RecordRun::Of(GoldenRecords())};
}
template <>
NewIntervalMsg Golden() {
  return {0x50515253, 0x6061626364656667, 0x1011121314151617};
}
template <>
NewHighLsnMsg Golden() {
  return {0x1011121314151617};
}
template <>
MissingIntervalMsg Golden() {
  return {0x1011121314151617, 0x3031323334353637};
}
template <>
IntervalListReq Golden() {
  return {0x50515253};
}
template <>
IntervalListResp Golden() {
  return {RpcStatus::kNotFound,
          {{0x9091929394959697, 0xa0a1a2a3a4a5a6a7, 0xb0b1b2b3b4b5b6b7},
           {0xc0c1c2c3c4c5c6c7, 0xd0d1d2d3d4d5d6d7, 0xe0e1e2e3e4e5e6e7}}};
}
template <>
ReadLogReq Golden() {
  return {0x50515253, 0x1011121314151617};
}
template <>
ReadLogResp Golden() {
  return {RpcStatus::kOk, RecordRun::Of(GoldenRecords())};
}
template <>
CopyLogReq Golden() {
  return {0x50515253, 0x6061626364656667, RecordRun::Of(GoldenRecords())};
}
template <>
CopyLogResp Golden() {
  return {RpcStatus::kError};
}
template <>
InstallCopiesReq Golden() {
  return {0x50515253, 0x6061626364656667};
}
template <>
InstallCopiesResp Golden() {
  return {RpcStatus::kOverloaded};
}
template <>
GenReadReq Golden() {
  return {0x50515253};
}
template <>
GenReadResp Golden() {
  return {RpcStatus::kNotFound, 0x9091929394959697};
}
template <>
GenWriteReq Golden() {
  return {0x50515253, 0xa0a1a2a3a4a5a6a7};
}
template <>
GenWriteResp Golden() {
  return {RpcStatus::kError};
}
template <>
TruncateLogMsg Golden() {
  return {0x50515253, 0x3031323334353637};
}
template <>
OverloadedMsg Golden() {
  return {0x50515253, 0x02, 0x1011121314151617, 0xb0b1b2b3b4b5b6b7};
}

struct GoldenCase {
  const char* name;
  Bytes wire;
  std::string hex;
};

std::vector<GoldenCase> GoldenMessages() {
  const uint64_t id = kGoldenRpcId;
  return {
      {"WriteLog",
       Encode(Golden<RecordBatch>(), 0, MessageType::kWriteLog),
       "01 0000000000000000 53525150 6766656463626160 7776757473727170 "
       "8786858483828180 02000000 1716151413121110 2726252423222120 01 "
       "02000000 6162 3736353433323130 4746454443424140 00 00000000"},
      {"ForceLog",
       Encode(Golden<RecordBatch>(), 0, MessageType::kForceLog),
       "02 0000000000000000 53525150 6766656463626160 7776757473727170 "
       "8786858483828180 02000000 1716151413121110 2726252423222120 01 "
       "02000000 6162 3736353433323130 4746454443424140 00 00000000"},
      {"NewInterval",
       Encode(Golden<NewIntervalMsg>()),
       "03 0000000000000000 53525150 6766656463626160 1716151413121110"},
      {"NewHighLsn",
       Encode(Golden<NewHighLsnMsg>()),
       "04 0000000000000000 1716151413121110"},
      {"MissingInterval",
       Encode(Golden<MissingIntervalMsg>()),
       "05 0000000000000000 1716151413121110 3736353433323130"},
      {"IntervalListReq",
       Encode(Golden<IntervalListReq>(), id),
       "06 f7f6f5f4f3f2f1f0 53525150"},
      {"IntervalListResp",
       Encode(Golden<IntervalListResp>(), id),
       "07 f7f6f5f4f3f2f1f0 01 02000000 9796959493929190 "
       "a7a6a5a4a3a2a1a0 b7b6b5b4b3b2b1b0 c7c6c5c4c3c2c1c0 "
       "d7d6d5d4d3d2d1d0 e7e6e5e4e3e2e1e0"},
      {"ReadLogForwardReq",
       Encode(Golden<ReadLogReq>(), id, MessageType::kReadLogForwardReq),
       "08 f7f6f5f4f3f2f1f0 53525150 1716151413121110"},
      {"ReadLogBackwardReq",
       Encode(ReadLogReq{0x50515253, 0x3031323334353637}, id,
              MessageType::kReadLogBackwardReq),
       "09 f7f6f5f4f3f2f1f0 53525150 3736353433323130"},
      {"ReadLogResp",
       Encode(Golden<ReadLogResp>(), id),
       "0a f7f6f5f4f3f2f1f0 00 02000000 1716151413121110 "
       "2726252423222120 01 02000000 6162 3736353433323130 "
       "4746454443424140 00 00000000"},
      {"CopyLogReq",
       Encode(Golden<CopyLogReq>(), id),
       "0b f7f6f5f4f3f2f1f0 53525150 6766656463626160 02000000 "
       "1716151413121110 2726252423222120 01 02000000 6162 "
       "3736353433323130 4746454443424140 00 00000000"},
      {"CopyLogResp",
       Encode(Golden<CopyLogResp>(), id),
       "0c f7f6f5f4f3f2f1f0 02"},
      {"InstallCopiesReq",
       Encode(Golden<InstallCopiesReq>(), id),
       "0d f7f6f5f4f3f2f1f0 53525150 6766656463626160"},
      {"InstallCopiesResp",
       Encode(Golden<InstallCopiesResp>(), id),
       "0e f7f6f5f4f3f2f1f0 03"},
      {"GenReadReq",
       Encode(Golden<GenReadReq>(), id),
       "0f f7f6f5f4f3f2f1f0 53525150"},
      {"GenReadResp",
       Encode(Golden<GenReadResp>(), id),
       "10 f7f6f5f4f3f2f1f0 01 9796959493929190"},
      {"GenWriteReq",
       Encode(Golden<GenWriteReq>(), id),
       "11 f7f6f5f4f3f2f1f0 53525150 a7a6a5a4a3a2a1a0"},
      {"GenWriteResp",
       Encode(Golden<GenWriteResp>(), id),
       "12 f7f6f5f4f3f2f1f0 02"},
      {"TruncateLog",
       Encode(Golden<TruncateLogMsg>()),
       "13 0000000000000000 53525150 3736353433323130"},
      {"Overloaded",
       Encode(Golden<OverloadedMsg>()),
       "14 0000000000000000 53525150 02 1716151413121110 "
       "b7b6b5b4b3b2b1b0"},
  };
}

TEST(WireGoldenTest, EveryMessageTypeEncodesToItsPinnedBytes) {
  const std::vector<GoldenCase> cases = GoldenMessages();
  std::set<uint8_t> types;
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(Hex(c.wire), Unspaced(c.hex)) << c.name;
    types.insert(c.wire.at(0));
  }
  EXPECT_EQ(types.size(), 20u);  // every message type once
}

// --- Every message type through the one codec ---
// One typed test over the 20 message types: each encodes from its field
// list and decodes back field for field, is allocated once at its exact
// size plus the frame trailer, and rejects every truncation of its body
// and every count that overstates what follows it.

/// A message struct sent as one of the message types.
template <typename M, MessageType kAs = M::kType>
struct Sent {
  using Msg = M;
  static constexpr MessageType kType = kAs;
};

using EveryMessageType = ::testing::Types<
    Sent<RecordBatch>, Sent<RecordBatch, MessageType::kForceLog>,
    Sent<NewIntervalMsg>, Sent<NewHighLsnMsg>, Sent<MissingIntervalMsg>,
    Sent<IntervalListReq>, Sent<IntervalListResp>, Sent<ReadLogReq>,
    Sent<ReadLogReq, MessageType::kReadLogBackwardReq>, Sent<ReadLogResp>,
    Sent<CopyLogReq>, Sent<CopyLogResp>, Sent<InstallCopiesReq>,
    Sent<InstallCopiesResp>, Sent<GenReadReq>, Sent<GenReadResp>,
    Sent<GenWriteReq>, Sent<GenWriteResp>, Sent<TruncateLogMsg>,
    Sent<OverloadedMsg>>;

/// Names each instance after its message type.
struct MessageTypeName {
  template <typename T>
  static std::string GetName(int) {
    static constexpr const char* kNames[] = {
        "WriteLog",          "ForceLog",           "NewInterval",
        "NewHighLsn",        "MissingInterval",    "IntervalListReq",
        "IntervalListResp",  "ReadLogForwardReq",  "ReadLogBackwardReq",
        "ReadLogResp",       "CopyLogReq",         "CopyLogResp",
        "InstallCopiesReq",  "InstallCopiesResp",  "GenReadReq",
        "GenReadResp",       "GenWriteReq",        "GenWriteResp",
        "TruncateLog",       "Overloaded"};
    return kNames[static_cast<int>(T::kType) - 1];
  }
};

template <typename T>
class MessageCodecTest : public ::testing::Test {
 protected:
  using M = typename T::Msg;
  /// The golden rpc id on a synchronous call's message, else zero.
  static constexpr uint64_t kRpcId =
      T::kType >= MessageType::kIntervalListReq &&
              T::kType <= MessageType::kGenWriteResp
          ? kGoldenRpcId
          : 0;

  /// The golden instance as a complete message of type T::kType.
  static Bytes Wire() { return Encode(Golden<M>(), kRpcId, T::kType); }
};
TYPED_TEST_SUITE(MessageCodecTest, EveryMessageType, MessageTypeName);

/// Whether two values of a field are the same (a run's as its records).
template <typename T>
bool SameField(const T& a, const T& b) {
  return a == b;
}
bool SameField(const RecordRun& a, const RecordRun& b) {
  return RecordsOf(a) == RecordsOf(b);
}

/// Whether `a` and `b` agree on every field of M's list.
template <typename M>
bool SameFields(const M& a, const M& b) {
  const auto fa = M::Fields(a);
  const auto fb = M::Fields(b);
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return (SameField(std::get<I>(fa), std::get<I>(fb)) && ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(fa)>>());
}

TYPED_TEST(MessageCodecTest, EncodeThenDecodeGivesBackEveryField) {
  using M = typename TestFixture::M;
  Result<Envelope> env = DecodeEnvelope(TestFixture::Wire());
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, TypeParam::kType);
  EXPECT_EQ(env->rpc_id, TestFixture::kRpcId);
  Result<M> decoded = Decode<M>(env->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameFields(*decoded, Golden<M>()));
}

// Size-then-encode: neither encoding nor framing reallocates.
TYPED_TEST(MessageCodecTest, IsAllocatedOnceAtItsSizePlusTheFrameTrailer) {
  using M = typename TestFixture::M;
  const Bytes wire = TestFixture::Wire();
  EXPECT_EQ(wire.capacity(), wire.size() + kFrameTrailerBytes);
  if constexpr (requires(M m) { m.records; }) {
    // RecordBatchWriter gives the same message, allocated the same way,
    // whether it is given the records or their wire encodings (as a
    // server copies stored ones into a reply).
    M header = Golden<M>();
    header.records = {};
    const std::vector<LogRecord> records = GoldenRecords();
    size_t bytes = 0;
    for (const LogRecord& r : records) bytes += EncodedRecordSize(r);
    RecordBatchWriter from_records(header, TestFixture::kRpcId, bytes,
                                   TypeParam::kType);
    RecordBatchWriter from_encodings(header, TestFixture::kRpcId, bytes,
                                     TypeParam::kType);
    // ... or each record's key and payload, as the log client keeps them.
    RecordBatchWriter from_fields(header, TestFixture::kRpcId, bytes,
                                  TypeParam::kType);
    for (const LogRecord& r : records) {
      from_records.Add(r);
      from_encodings.Add(EncodeRecord(r));
      from_fields.Add(r.lsn, r.epoch, {r.data.data(), r.data.size()},
                      r.present);
    }
    const Bytes written = from_records.Take();
    EXPECT_EQ(written, wire);
    EXPECT_EQ(written.capacity(), written.size() + kFrameTrailerBytes);
    const Bytes copied = from_encodings.Take();
    EXPECT_EQ(copied, wire);
    EXPECT_EQ(copied.capacity(), copied.size() + kFrameTrailerBytes);
    const Bytes fielded = from_fields.Take();
    EXPECT_EQ(fielded, wire);
    EXPECT_EQ(fielded.capacity(), fielded.size() + kFrameTrailerBytes);
  }
}

/// Offset in `m`'s body (of `body_size` bytes) of the count of the
/// interval list or record run that ends it, if it has one.
template <typename M>
std::optional<size_t> CountOffset(const M& m, size_t body_size) {
  if constexpr (requires { m.records; }) {
    return body_size - fields::Size(m.records);
  } else if constexpr (requires { m.intervals; }) {
    return body_size - fields::Size(m.intervals);
  } else {
    return std::nullopt;
  }
}

TYPED_TEST(MessageCodecTest, TruncatedBodyOrOverstatedCountIsCorruption) {
  using M = typename TestFixture::M;
  Result<Envelope> env = DecodeEnvelope(TestFixture::Wire());
  ASSERT_TRUE(env.ok());
  const SharedBytes& body = env->body;
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_TRUE(Decode<M>(body.Slice(0, n)).status().IsCorruption())
        << n << " of " << body.size() << " bytes";
  }
  const std::optional<size_t> count_at =
      CountOffset(Golden<M>(), body.size());
  if (!count_at.has_value()) return;
  // The golden count is 2: one more, or a lying 0xFFFFFFFF, overstates
  // what follows.
  Bytes lying(body.begin(), body.end());
  for (uint32_t count : {3u, 0xFFFFFFFFu}) {
    PutLE32(&lying, *count_at, count);
    EXPECT_TRUE(Decode<M>(lying).status().IsCorruption()) << count;
  }
  PutLE32(&lying, *count_at, 2);
  EXPECT_TRUE(Decode<M>(lying).ok());
}

// --- Receive-side duplicate detection ---

/// The receive rule as it was first written, over a std::set: the model
/// ReceivedSeqs must match decision for decision.
class SetReceiveModel {
 public:
  bool Accept(uint64_t seq) {
    if (seq <= cumulative_ || seen_.count(seq) > 0) return false;
    if (seq == cumulative_ + 1) {
      ++cumulative_;
      while (seen_.erase(cumulative_ + 1) > 0) ++cumulative_;
    } else {
      seen_.insert(seq);
      if (seen_.size() > 1024) {
        cumulative_ = *seen_.rbegin();
        seen_.clear();
        ++collapses_;
      }
    }
    return true;
  }
  uint64_t cumulative() const { return cumulative_; }
  size_t recorded() const { return seen_.size(); }
  int collapses() const { return collapses_; }

 private:
  uint64_t cumulative_ = 0;
  std::set<uint64_t> seen_;
  int collapses_ = 0;
};

/// What the network does to each DATA frame of a seeded stream.
struct Channel {
  double loss = 0;
  double duplicate = 0;  // a copy of an earlier frame arrives too
  double reorder = 0;    // the frame is held and arrives later
};

/// Sends seqs 1..n through `channel` into a ReceivedSeqs and the model,
/// and checks every accept/drop decision, the mark and the recorded
/// count against the model's.
void DriveBoth(uint64_t seed, uint64_t n, const Channel& channel,
               SetReceiveModel* model) {
  Rng rng(seed);
  ReceivedSeqs tracker;
  std::vector<uint64_t> held;
  std::vector<uint64_t> arrived;
  uint64_t arrivals = 0;
  auto arrive = [&](uint64_t seq) {
    ++arrivals;
    const bool fresh = model->Accept(seq);
    ASSERT_EQ(tracker.Accept(seq), fresh)
        << "seq " << seq << " at arrival " << arrivals << ", seed " << seed;
    ASSERT_EQ(tracker.cumulative(), model->cumulative())
        << "after seq " << seq << ", seed " << seed;
    ASSERT_EQ(tracker.recorded(), model->recorded())
        << "after seq " << seq << ", seed " << seed;
    arrived.push_back(seq);
  };
  for (uint64_t seq = 1; seq <= n; ++seq) {
    if (!rng.Bernoulli(channel.loss)) {
      if (rng.Bernoulli(channel.reorder)) {
        held.push_back(seq);
      } else {
        arrive(seq);
      }
    }
    while (!held.empty() && rng.Bernoulli(0.4)) {
      const size_t i = rng.NextBelow(held.size());
      const uint64_t late = held[i];
      held.erase(held.begin() + static_cast<ptrdiff_t>(i));
      arrive(late);
    }
    if (!arrived.empty() && rng.Bernoulli(channel.duplicate)) {
      arrive(arrived[rng.NextBelow(arrived.size())]);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (uint64_t late : held) arrive(late);
}

TEST(ReceivedSeqsTest, InOrderStreamAdvancesTheMarkAndRecordsNothing) {
  SetReceiveModel model;
  DriveBoth(1, 5000, Channel{}, &model);
  EXPECT_EQ(model.cumulative(), 5000u);
  EXPECT_EQ(model.recorded(), 0u);
}

TEST(ReceivedSeqsTest, MatchesTheSetRuleUnderLoss) {
  // Lost seqs are never resent: the recorded seqs grow past every gap
  // until more than kMaxRecorded collapse the mark.
  SetReceiveModel model;
  DriveBoth(2, 20000, Channel{0.05, 0, 0}, &model);
  EXPECT_GE(model.collapses(), 10);
}

TEST(ReceivedSeqsTest, MatchesTheSetRuleUnderDuplication) {
  SetReceiveModel model;
  DriveBoth(3, 5000, Channel{0, 0.3, 0}, &model);
  EXPECT_EQ(model.cumulative(), 5000u);
}

TEST(ReceivedSeqsTest, MatchesTheSetRuleUnderReordering) {
  // Held frames fill their gaps late, draining recorded runs.
  SetReceiveModel model;
  DriveBoth(4, 5000, Channel{0, 0, 0.3}, &model);
  EXPECT_EQ(model.cumulative(), 5000u);
  EXPECT_EQ(model.recorded(), 0u);
}

TEST(ReceivedSeqsTest, MatchesTheSetRuleUnderMixedFaultsAcrossSeeds) {
  for (uint64_t seed = 10; seed < 40; ++seed) {
    SetReceiveModel model;
    const Channel channel{0.002 * static_cast<double>(seed % 7),
                          0.05 * static_cast<double>(seed % 3),
                          0.1 * static_cast<double>(seed % 4)};
    DriveBoth(seed, 6000, channel, &model);
    if (HasFatalFailure()) return;
  }
}

TEST(ReceivedSeqsTest, MoreThanTheBoundOutstandingCollapsesTheMark) {
  ReceivedSeqs seqs;
  // Seq 1 is lost; 2..1025 are recorded behind the gap.
  for (uint64_t seq = 2; seq <= 1 + ReceivedSeqs::kMaxRecorded; ++seq) {
    ASSERT_TRUE(seqs.Accept(seq));
  }
  EXPECT_EQ(seqs.cumulative(), 0u);
  EXPECT_EQ(seqs.recorded(), ReceivedSeqs::kMaxRecorded);
  EXPECT_FALSE(seqs.Accept(700));  // a duplicate found behind the gap
  // One more collapses the mark to the highest seq seen.
  EXPECT_TRUE(seqs.Accept(1030));
  EXPECT_EQ(seqs.cumulative(), 1030u);
  EXPECT_EQ(seqs.recorded(), 0u);
  // The lost seq and the skipped ones now count as seen.
  EXPECT_FALSE(seqs.Accept(1));
  EXPECT_FALSE(seqs.Accept(1027));
  EXPECT_TRUE(seqs.Accept(1031));
  EXPECT_EQ(seqs.cumulative(), 1031u);
}

// --- Connection / Endpoint ---

struct TestPeer {
  TestPeer(sim::Simulator* sim, net::Network* network, net::NodeId id,
           const WireConfig& cfg = WireConfig{})
      : cpu(sim, 100.0), nic(sim, 64), endpoint(sim, &cpu, id, cfg) {
    network->Attach(id, &nic);
    endpoint.AttachNetwork(network, &nic);
  }
  sim::Cpu cpu;
  net::Nic nic;
  Endpoint endpoint;
};

struct WirePair {
  explicit WirePair(net::NetworkConfig net_cfg = {},
                    WireConfig wire_cfg = WireConfig{})
      : network(&sim, net_cfg),
        a(&sim, &network, 1, wire_cfg),
        b(&sim, &network, 2, wire_cfg) {
    b.endpoint.SetAcceptHandler([this](Connection* conn) {
      accepted = conn;
      conn->SetMessageHandler([this](const SharedBytes& payload) {
        b_received.push_back(payload);
      });
    });
  }
  sim::Simulator sim;
  net::Network network;
  TestPeer a, b;
  Connection* accepted = nullptr;
  std::vector<SharedBytes> b_received;
};

TEST(ConnectionTest, HandshakeEstablishes) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  EXPECT_TRUE(conn->IsEstablished());
  ASSERT_NE(p.accepted, nullptr);
  EXPECT_TRUE(p.accepted->IsEstablished());
  EXPECT_EQ(p.accepted->peer(), 1u);
}

TEST(ConnectionTest, DataFlowsBothWays) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  std::vector<SharedBytes> a_received;
  conn->SetMessageHandler(
      [&](const SharedBytes& payload) { a_received.push_back(payload); });

  conn->Send(ToBytes("hello"));
  conn->Send(ToBytes("world"));
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 2u);
  EXPECT_EQ(ToString(p.b_received[0]), "hello");
  EXPECT_EQ(ToString(p.b_received[1]), "world");

  p.accepted->Send(ToBytes("reply"));
  p.sim.Run();
  ASSERT_EQ(a_received.size(), 1u);
  EXPECT_EQ(ToString(a_received[0]), "reply");
}

TEST(ConnectionTest, SendBeforeEstablishedIsQueued) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  conn->Send(ToBytes("early"));  // handshake not yet complete
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 1u);
  EXPECT_EQ(ToString(p.b_received[0]), "early");
}

TEST(ConnectionTest, DuplicatesAreSuppressed) {
  net::NetworkConfig net_cfg;
  net_cfg.duplicate_probability = 0.5;
  net_cfg.seed = 11;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  for (int i = 0; i < 50; ++i) conn->Send(ToBytes("m" + std::to_string(i)));
  p.sim.Run();
  // Every payload delivered exactly once despite wire duplication.
  ASSERT_EQ(p.b_received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ToString(p.b_received[i]), "m" + std::to_string(i));
  }
}

TEST(ConnectionTest, HandshakeRetriesThroughLossyNetwork) {
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = 0.4;
  net_cfg.seed = 3;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  EXPECT_TRUE(conn->IsEstablished());
}

TEST(ConnectionTest, HandshakeExhaustionCloses) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer a(&sim, &network, 1);
  // No peer 2 attached: SYNs vanish.
  sim::Time closed_at = 0;
  Connection* conn = a.endpoint.Connect(2);
  conn->SetCloseHandler([&]() { closed_at = sim.Now(); });
  sim.Run();
  // Ten SYNs, 200 ms apart, then the connection gives up.
  EXPECT_EQ(closed_at, 10 * 200 * sim::kMillisecond);
  EXPECT_TRUE(conn->IsClosed());
}

TEST(ConnectionTest, CrashOfPeerResetsConnection) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());

  p.b.endpoint.Crash();  // b loses all connection state
  bool closed = false;
  conn->SetCloseHandler([&]() { closed = true; });
  conn->Send(ToBytes("into the void"));
  p.sim.Run();
  // b answers with RESET for the unknown connection; a closes.
  EXPECT_TRUE(closed);
}

TEST(ConnectionTest, FlowControlBlocksBeyondAllocationUntilGranted) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  // 100 payloads against a 16-packet window: most wait for allocation.
  for (int i = 0; i < 100; ++i) conn->Send(Bytes(10, 'x'));
  EXPECT_GT(conn->send_queue_depth(), 0u);
  // The receiver grants allocation as it consumes, so the long stream
  // flows completely, well before the 3 s allocation override could
  // have sent a packet.
  p.sim.RunFor(1 * sim::kSecond);
  EXPECT_EQ(p.b_received.size(), 100u);
  EXPECT_EQ(conn->send_queue_depth(), 0u);
}

// --- Direct sends and the send queue ---

// Frame types of the low-level protocol, as wire::Endpoint numbers them.
constexpr uint8_t kSynFrame = 1;
constexpr uint8_t kAckFrame = 3;
constexpr uint8_t kDataFrame = 4;
constexpr uint8_t kWindowFrame = 5;
constexpr uint8_t kResetFrame = 6;

/// `payload` framed with a trailer, as an Endpoint frames it.
Bytes Frame(uint8_t type, uint64_t conn_id, uint64_t seq, uint64_t alloc,
            Bytes payload) {
  const FrameTrailer trailer{type, conn_id, seq, alloc,
                             static_cast<uint32_t>(payload.size())};
  Encoder enc(&payload, kFrameTrailerBytes);
  fields::PutAll(&enc, trailer);
  return payload;
}

/// A node that speaks the transport by hand: it sends frames it builds
/// and keeps every frame it receives, trailer decoded.
struct RawNode {
  struct Received {
    FrameTrailer trailer;
    std::string payload;
  };

  RawNode(sim::Simulator* sim, net::Network* network, net::NodeId id)
      : network(network), id(id), nic(sim, 64) {
    network->Attach(id, &nic);
    nic.SetHandler([this](const net::Packet& packet) {
      const size_t n = packet.payload.size() - kFrameTrailerBytes;
      Result<FrameTrailer> trailer =
          Decode<FrameTrailer>(packet.payload, n);
      if (trailer.ok()) {
        received.push_back(
            {*trailer, std::string(packet.payload.view().substr(0, n))});
      }
      nic.CompleteReceive();
    });
  }

  void Send(net::NodeId dst, uint8_t type, uint64_t conn_id, uint64_t seq,
            uint64_t alloc, std::string_view payload = {}) {
    net::Packet packet;
    packet.src = id;
    packet.dst = dst;
    packet.payload = Frame(type, conn_id, seq, alloc, ToBytes(payload));
    network->Send(packet);
  }

  /// The DATA frames received, as "seq:payload".
  std::vector<std::string> Data() const {
    std::vector<std::string> out;
    for (const Received& r : received) {
      if (r.trailer.frame_type == kDataFrame) {
        out.push_back(std::to_string(r.trailer.seq) + ":" + r.payload);
      }
    }
    return out;
  }

  net::Network* network;
  net::NodeId id;
  net::Nic nic;
  std::vector<Received> received;
};

// A payload sent while others wait behind an exhausted allocation goes
// behind them, even when it is sent from inside the upcall of the frame
// that brings the new allocation (the allocation has room then, but the
// waiting payloads have not gone out yet).
TEST(ConnectionSendTest, ASendBehindWaitingPayloadsKeepsFifoOrder) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer b(&sim, &network, 2);
  RawNode a(&sim, &network, 1);
  Connection* conn = nullptr;
  b.endpoint.SetAcceptHandler([&](Connection* accepted) {
    conn = accepted;
    // Each ping is answered with one reply.
    accepted->SetMessageHandler([accepted](const SharedBytes& payload) {
      accepted->Send(ToBytes("re-" + ToString(payload)));
    });
  });
  constexpr uint64_t kConn = 0x0001000100000001;
  // The handshake grants b one packet.
  a.Send(2, kSynFrame, kConn, 0, /*alloc=*/1);
  a.Send(2, kAckFrame, kConn, 0, 1);
  sim.RunFor(sim::kSecond);
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(conn->IsEstablished());

  a.Send(2, kDataFrame, kConn, 1, 1, "p1");  // re-p1 goes out as seq 1
  a.Send(2, kDataFrame, kConn, 2, 1, "p2");  // re-p2 waits: no allocation
  sim.RunFor(sim::kSecond);
  EXPECT_EQ(a.Data(), std::vector<std::string>({"1:re-p1"}));
  EXPECT_EQ(conn->send_queue_depth(), 1u);

  // p3 grants two more packets; its upcall sends re-p3 while re-p2 still
  // waits, so re-p3 must follow it.
  a.Send(2, kDataFrame, kConn, 3, 3, "p3");
  sim.RunFor(sim::kSecond);
  EXPECT_EQ(a.Data(),
            std::vector<std::string>({"1:re-p1", "2:re-p2", "3:re-p3"}));
  EXPECT_EQ(conn->send_queue_depth(), 0u);
}

// The allocation-override timer runs only while a payload waits: a
// backlog arms it, the grant that drains the backlog cancels it, and a
// payload that goes out directly, with nothing waiting, leaves none.
TEST(ConnectionSendTest, ADirectSendLeavesNoOverrideTimerArmed) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer b(&sim, &network, 2);
  RawNode a(&sim, &network, 1);
  Connection* conn = nullptr;
  b.endpoint.SetAcceptHandler([&](Connection* accepted) { conn = accepted; });
  constexpr uint64_t kConn = 0x0001000100000001;
  a.Send(2, kSynFrame, kConn, 0, /*alloc=*/1);
  a.Send(2, kAckFrame, kConn, 0, 1);
  sim.RunFor(sim::kSecond);
  ASSERT_NE(conn, nullptr);

  conn->Send(ToBytes("x1"));  // direct: seq 1 of 1
  conn->Send(ToBytes("x2"));  // waits, arming the 3 s override timer
  sim.RunFor(sim::kSecond);
  EXPECT_EQ(conn->send_queue_depth(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);  // the override timer

  a.Send(2, kWindowFrame, kConn, 0, /*alloc=*/4);
  sim.RunFor(sim::kSecond);
  EXPECT_EQ(conn->send_queue_depth(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);

  conn->Send(ToBytes("x3"));  // direct: seq 3 of 4
  sim.RunFor(sim::kSecond);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Nothing more goes out when the override delay has passed.
  sim.RunFor(10 * sim::kSecond);
  EXPECT_EQ(a.Data(), std::vector<std::string>({"1:x1", "2:x2", "3:x3"}));
}

// If no grant ever arrives, the sender exceeds its allocation by one
// packet after each 3 s pause instead of deadlocking.
TEST(ConnectionTest, AllocationOverrideAfterPause) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer b(&sim, &network, 2);
  RawNode a(&sim, &network, 1);
  Connection* conn = nullptr;
  b.endpoint.SetAcceptHandler([&](Connection* accepted) { conn = accepted; });
  constexpr uint64_t kConn = 0x0001000100000001;
  // The handshake grants b one packet, and a never grants another.
  a.Send(2, kSynFrame, kConn, 0, /*alloc=*/1);
  a.Send(2, kAckFrame, kConn, 0, 1);
  sim.RunFor(sim::kSecond);
  ASSERT_NE(conn, nullptr);

  for (int i = 1; i <= 4; ++i) conn->Send(ToBytes("x" + std::to_string(i)));
  sim.RunFor(2900 * sim::kMillisecond);
  EXPECT_EQ(a.Data(), std::vector<std::string>({"1:x1"}));
  sim.RunFor(200 * sim::kMillisecond);  // past the first 3 s pause
  EXPECT_EQ(a.Data(), std::vector<std::string>({"1:x1", "2:x2"}));
  sim.RunFor(6 * sim::kSecond);  // two more pauses
  EXPECT_EQ(a.Data(),
            std::vector<std::string>({"1:x1", "2:x2", "3:x3", "4:x4"}));
  EXPECT_EQ(conn->send_queue_depth(), 0u);
}

// --- The connection table ---

// A server endpoint finds each arriving packet's connection in its table:
// 1,000 connections from 50 peers take it through eight growths (8 to
// 2,048 slots), a restarted peer's new connection sits beside its old
// one, an unknown id is answered with RESET, and after a crash every
// frame is.
TEST(ConnectionTableTest, AThousandConnectionsFromManyPeers) {
  constexpr int kPeers = 50;
  constexpr int kPerPeer = 20;
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer server(&sim, &network, 1);
  // Payloads received per server-side connection, by connection id.
  std::map<uint64_t, std::vector<std::string>> received;
  std::map<uint64_t, Connection*> accepted;
  server.endpoint.SetAcceptHandler([&](Connection* conn) {
    accepted[conn->id()] = conn;
    const uint64_t id = conn->id();
    conn->SetMessageHandler([&received, id](const SharedBytes& payload) {
      received[id].push_back(ToString(payload));
    });
  });

  std::vector<std::unique_ptr<TestPeer>> peers;
  std::vector<Connection*> conns;
  int closed = 0;
  for (int p = 0; p < kPeers; ++p) {
    peers.push_back(std::make_unique<TestPeer>(
        &sim, &network, static_cast<net::NodeId>(100 + p)));
    for (int c = 0; c < kPerPeer; ++c) {
      Connection* conn = peers.back()->endpoint.Connect(1);
      conn->SetCloseHandler([&closed]() { ++closed; });
      conns.push_back(conn);
    }
  }
  /// The payloads connection `i` sends.
  auto payload = [](size_t i, int k) {
    return "c" + std::to_string(i) + "-" + std::to_string(k);
  };
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i]->Send(ToBytes(payload(i, 0)));  // queued behind the handshake
  }
  sim.Run();
  for (size_t i = 0; i < conns.size(); ++i) {
    ASSERT_TRUE(conns[i]->IsEstablished()) << i;
    conns[i]->Send(ToBytes(payload(i, 1)));
  }
  sim.Run();
  ASSERT_EQ(accepted.size(), conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    const Connection* server_side = accepted.at(conns[i]->id());
    EXPECT_EQ(server_side->peer(),
              static_cast<net::NodeId>(100 + i / kPerPeer));
    EXPECT_EQ(received[conns[i]->id()],
              std::vector<std::string>({payload(i, 0), payload(i, 1)}));
  }

  // The first peer restarts, which ends its connections: its new life's
  // first connection has the same counter under a higher incarnation,
  // and the server keeps it beside the old one, which it cannot know is
  // dead.
  TestPeer& restarted = *peers[0];
  const uint64_t old_id = conns[0]->id();
  restarted.endpoint.Crash();
  Connection* fresh = restarted.endpoint.Connect(1);
  fresh->Send(ToBytes("fresh"));
  sim.Run();
  ASSERT_NE(fresh->id(), old_id);
  EXPECT_EQ(fresh->id() & 0xFFFFFFFF, old_id & 0xFFFFFFFF);
  ASSERT_EQ(accepted.size(), conns.size() + 1);
  EXPECT_EQ(accepted.at(fresh->id())->peer(), restarted.endpoint.id());
  EXPECT_EQ(received[fresh->id()], std::vector<std::string>({"fresh"}));
  EXPECT_TRUE(accepted.at(old_id)->IsEstablished());
  EXPECT_EQ(received[old_id], std::vector<std::string>(
                                  {payload(0, 0), payload(0, 1)}));

  // A DATA frame naming no connection the server holds gets a RESET.
  RawNode stranger(&sim, &network, 999);
  const uint64_t unknown = (uint64_t{999} << 48) | (uint64_t{1} << 32) | 1;
  stranger.Send(1, kDataFrame, unknown, 1, 16, "who");
  sim.Run();
  ASSERT_EQ(stranger.received.size(), 1u);
  EXPECT_EQ(stranger.received[0].trailer.frame_type, kResetFrame);
  EXPECT_EQ(stranger.received[0].trailer.conn_id, unknown);
  EXPECT_EQ(accepted.size(), conns.size() + 1);

  // After the server crashes, every later frame is answered with RESET,
  // which closes each client connection that sends one.
  server.endpoint.Crash();
  closed = 0;
  const std::vector<Connection*> live(conns.begin() + kPerPeer, conns.end());
  for (Connection* conn : live) conn->Send(ToBytes("after"));
  sim.Run();
  EXPECT_EQ(closed, static_cast<int>(live.size()));
  for (Connection* conn : live) EXPECT_TRUE(conn->IsClosed());
  EXPECT_EQ(accepted.size(), conns.size() + 1);
}

// The transport's frame trailer as the receiving NIC sees it: a DATA
// frame on an established connection, its payload then the trailer.
TEST(WireGoldenTest, FrameTrailerEncodesToItsPinnedBytes) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());
  std::vector<Bytes> frames;
  p.b.nic.SetHandler([&](const net::Packet& packet) {
    frames.push_back(Bytes(packet.payload.begin(), packet.payload.end()));
    p.b.nic.CompleteReceive();
  });
  conn->Send(ToBytes("abc"));
  p.sim.Run();
  ASSERT_EQ(frames.size(), 1u);
  // The payload "abc", then the trailer: DATA, the connection id (node
  // 1, incarnation 1, its first connection), seq 1, allocation 16 and the
  // payload length.
  EXPECT_EQ(Hex(frames[0]),
            Unspaced("616263 04 0100000001000100 0100000000000000 "
                     "1000000000000000 03000000"));
}

// --- Datagrams (the connectionless multicast path) ---

TEST(DatagramTest, UnicastDatagramDelivered) {
  WirePair p;
  std::vector<std::pair<net::NodeId, SharedBytes>> received;
  p.b.endpoint.SetDatagramHandler(
      [&](net::NodeId src, const SharedBytes& payload) {
        received.push_back({src, payload});
      });
  p.a.endpoint.SendDatagram(2, ToBytes("hello datagram"));
  p.sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(ToString(received[0].second), "hello datagram");
}

TEST(DatagramTest, MulticastDatagramReachesGroup) {
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer a(&sim, &network, 1), b(&sim, &network, 2),
      c(&sim, &network, 3);
  const net::NodeId group = net::kMulticastBase + 9;
  network.JoinGroup(group, 2);
  network.JoinGroup(group, 3);
  int b_got = 0, c_got = 0;
  b.endpoint.SetDatagramHandler(
      [&](net::NodeId, const SharedBytes&) { ++b_got; });
  c.endpoint.SetDatagramHandler(
      [&](net::NodeId, const SharedBytes&) { ++c_got; });
  a.endpoint.SendDatagram(group, ToBytes("to the group"));
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  // One transmission on the medium.
  EXPECT_EQ(network.packets_sent().value(), 1u);
}

TEST(DatagramTest, NoHandlerIsSilentlyDropped) {
  WirePair p;
  p.a.endpoint.SendDatagram(2, ToBytes("nobody listening"));
  p.sim.Run();  // must not crash; packet consumed
  EXPECT_GT(p.b.endpoint.packets_received().value(), 0u);
}

TEST(DatagramTest, DatagramsDoNotDisturbConnections) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_TRUE(conn->IsEstablished());
  p.b.endpoint.SetDatagramHandler([](net::NodeId, const SharedBytes&) {});
  p.a.endpoint.SendDatagram(2, ToBytes("dgram"));
  conn->Send(ToBytes("stream"));
  p.sim.Run();
  ASSERT_EQ(p.b_received.size(), 1u);
  EXPECT_EQ(ToString(p.b_received[0]), "stream");
  EXPECT_TRUE(conn->IsEstablished());
}

// --- RpcClient ---

TEST(RpcClientTest, CallAndResponse) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();  // complete the handshake so the server side exists
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    rpc.HandleResponse(*env);
  });
  // Server: echo an IntervalListResp for any request.
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    IntervalListResp resp;
    resp.intervals = {{1, 1, 5}};
    p.accepted->Send(Encode(resp, env->rpc_id));
  });

  bool done = false;
  rpc.Call(IntervalListReq{1}, RpcClient::CallOptions{},
           [&](Result<Envelope> env) {
             ASSERT_TRUE(env.ok());
             auto resp = Decode<IntervalListResp>(env->body);
             ASSERT_TRUE(resp.ok());
             EXPECT_EQ(resp->intervals.size(), 1u);
             done = true;
           });
  p.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(RpcClientTest, RetriesThroughLoss) {
  net::NetworkConfig net_cfg;
  net_cfg.loss_probability = 0.4;
  net_cfg.seed = 17;
  WirePair p(net_cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();  // complete the (retried) handshake first
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    auto env = DecodeEnvelope(payload);
    if (env.ok()) rpc.HandleResponse(*env);
  });
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    auto env = DecodeEnvelope(payload);
    if (!env.ok()) return;
    p.accepted->Send(Encode(InstallCopiesResp{}, env->rpc_id));
  });

  int completed = 0;
  RpcClient::CallOptions opts;
  opts.max_attempts = 20;
  for (int i = 0; i < 10; ++i) {
    rpc.Call(InstallCopiesReq{1, 1}, opts, [&](Result<Envelope> env) {
      if (env.ok()) ++completed;
    });
  }
  p.sim.Run();
  EXPECT_EQ(completed, 10);
}

TEST(RpcClientTest, TimesOutAgainstDeadServer) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  p.b.nic.SetUp(false);  // server vanishes

  RpcClient rpc(&p.sim, conn);
  Status result = Status::OK();
  RpcClient::CallOptions opts;
  opts.timeout = 100 * sim::kMillisecond;
  opts.max_attempts = 3;
  rpc.Call(IntervalListReq{1}, opts,
           [&](Result<Envelope> env) { result = env.status(); });
  p.sim.Run();
  EXPECT_TRUE(result.IsTimedOut());
}

// A reply under a pending call's rpc id but of another message type does
// not complete the call: it is dropped like a garbled packet, and the
// call completes with its own reply. (Read as the awaited reply, a
// GenReadResp{kOk, 0} passes for an OK, empty interval list.)
TEST(RpcClientTest, AReplyOfAnotherTypeDoesNotCompleteTheCall) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  std::vector<bool> completed_by;
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    completed_by.push_back(rpc.HandleResponse(*env));
  });
  // The peer answers with a GenReadResp first, then the IntervalListResp.
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    p.accepted->Send(Encode(GenReadResp{RpcStatus::kOk, 0}, env->rpc_id));
    IntervalListResp resp;
    resp.intervals = {{1, 1, 5}};
    p.accepted->Send(Encode(resp, env->rpc_id));
  });

  std::optional<Result<Envelope>> reply;
  rpc.Call(IntervalListReq{1}, RpcClient::CallOptions{},
           [&](Result<Envelope> env) { reply = std::move(env); });
  p.sim.Run();
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->ok());
  EXPECT_EQ((*reply)->type, MessageType::kIntervalListResp);
  Result<IntervalListResp> resp = Decode<IntervalListResp>((*reply)->body);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->intervals, (IntervalList{{1, 1, 5}}));
  EXPECT_EQ(completed_by, (std::vector<bool>{false, true}));
}

// With only replies of another type, the call times out as against a
// silent server.
TEST(RpcClientTest, RepliesOfAnotherTypeOnlyTimeOut) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  ASSERT_NE(p.accepted, nullptr);
  RpcClient rpc(&p.sim, conn);
  conn->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    EXPECT_FALSE(rpc.HandleResponse(*env));
  });
  int requests = 0;
  p.accepted->SetMessageHandler([&](const SharedBytes& payload) {
    Result<Envelope> env = DecodeEnvelope(payload);
    ASSERT_TRUE(env.ok());
    ++requests;
    p.accepted->Send(Encode(GenReadResp{RpcStatus::kOk, 0}, env->rpc_id));
  });

  Status result = Status::OK();
  RpcClient::CallOptions opts;
  opts.timeout = 100 * sim::kMillisecond;
  opts.max_attempts = 3;
  rpc.Call(IntervalListReq{1}, opts,
           [&](Result<Envelope> env) { result = env.status(); });
  p.sim.Run();
  EXPECT_TRUE(result.IsTimedOut());
  EXPECT_EQ(requests, 3);
  EXPECT_EQ(rpc.pending(), 0u);
}

TEST(RpcClientTest, FailAllAbortsPending) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  RpcClient rpc(&p.sim, conn);
  Status st = Status::OK();
  rpc.Call(IntervalListReq{1}, RpcClient::CallOptions{},
           [&](Result<Envelope> env) { st = env.status(); });
  rpc.FailAll(Status::Aborted("connection reset"));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(rpc.pending(), 0u);
  p.sim.Run();
}

}  // namespace
}  // namespace dlog::wire
