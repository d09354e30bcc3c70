#include <gtest/gtest.h>

#include <memory>
#include <set>
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

/// A message ending in `records`, written by the one RecordBatchWriter;
/// `header` is the writer's arguments ahead of the record bytes.
template <typename... Header>
Bytes WriteWithRecords(const std::vector<LogRecord>& records,
                       const Header&... header) {
  size_t bytes = 0;
  for (const LogRecord& r : records) bytes += EncodedRecordSize(r);
  RecordBatchWriter writer(header..., bytes);
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
  Bytes wire = WriteWithRecords(records, MessageType::kForceLog, batch);

  Result<Envelope> env = DecodeEnvelope(wire);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, MessageType::kForceLog);
  EXPECT_EQ(env->rpc_id, 0u);
  Result<RecordBatchView> decoded = RecordBatchView::Parse(env->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.client, 42u);
  EXPECT_EQ(decoded->header.epoch, 3u);
  EXPECT_EQ(decoded->header.trace, 11u);
  EXPECT_EQ(decoded->header.span, 12u);
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
    Result<Envelope> env = DecodeEnvelope(
        WriteWithRecords({record}, MessageType::kWriteLog, batch));
    ASSERT_TRUE(env.ok());
    Result<RecordBatchView> view = RecordBatchView::Parse(env->body);
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
  const Bytes message =
      WriteWithRecords(records, MessageType::kWriteLog, batch);
  return Bytes(message.begin() + 9, message.end());  // past type + rpc id
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
  EXPECT_TRUE(RecordBatchView::Parse(body).status().IsCorruption());
  PutLE32(&body, kCountOffset, 0xFFFFFFFFu);
  EXPECT_TRUE(RecordBatchView::Parse(body).status().IsCorruption());
  PutLE32(&body, kCountOffset, 2);
  EXPECT_TRUE(RecordBatchView::Parse(body).ok());
}

TEST(MessagesTest, BatchWithARecordOverrunningTheBodyIsRejected) {
  Bytes body = BatchBody({MakeRecord(1, 1, true, "first"),
                          MakeRecord(2, 1, true, "last")});
  // The last record's length field claims one byte more than is left.
  const size_t last_len = body.size() - 4 - 4;
  PutLE32(&body, last_len, 5);
  EXPECT_TRUE(RecordBatchView::Parse(body).status().IsCorruption());
  PutLE32(&body, last_len, 0xFFFFFFFFu);
  EXPECT_TRUE(RecordBatchView::Parse(body).status().IsCorruption());
  // A record cut inside its fixed fields.
  Bytes cut = BatchBody({MakeRecord(1, 1, true, "first")});
  cut.resize(kCountOffset + 4 + 10);
  EXPECT_TRUE(RecordBatchView::Parse(cut).status().IsCorruption());
}

TEST(MessagesTest, BatchWithATruncatedHeaderIsRejected) {
  const Bytes body = BatchBody({});
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_TRUE(RecordBatchView::Parse(Bytes(body.begin(), body.begin() + n))
                    .status()
                    .IsCorruption())
        << n << " bytes";
  }
}

TEST(MessagesTest, BatchWithANonCanonicalPresentByteIsRejected) {
  Bytes body = BatchBody({MakeRecord(1, 1, true, "x")});
  body[kCountOffset + 4 + 16] = 2;  // the present flag
  EXPECT_TRUE(RecordBatchView::Parse(body).status().IsCorruption());
  body[kCountOffset + 4 + 16] = 0;
  EXPECT_TRUE(RecordBatchView::Parse(body).ok());
}

// The other record-bearing messages and the interval list check a count
// against the bytes that follow it before trusting it: a count of
// 0xFFFFFFFF in an otherwise empty body is Corruption, not an attempt to
// reserve room for four billion entries.
TEST(MessagesTest, LyingCountsAreRejected) {
  Bytes read(5, 0);  // status kOk, then the count
  PutLE32(&read, 1, 0xFFFFFFFFu);
  EXPECT_TRUE(DecodeReadLogResp(read).status().IsCorruption());

  Bytes intervals(5, 0);
  PutLE32(&intervals, 1, 0xFFFFFFFFu);
  EXPECT_TRUE(DecodeIntervalListResp(intervals).status().IsCorruption());

  Bytes copy(16, 0);  // client, epoch, then the count
  PutLE32(&copy, 12, 0xFFFFFFFFu);
  EXPECT_TRUE(DecodeCopyLogReq(copy).status().IsCorruption());

  // A count one past the intervals present is rejected too; the true
  // count decodes.
  IntervalListResp two;
  two.intervals = {{1, 1, 3}, {2, 4, 9}};
  Result<Envelope> env = DecodeEnvelope(EncodeIntervalListResp(two, 1));
  ASSERT_TRUE(env.ok());
  Bytes body(env->body.begin(), env->body.end());
  PutLE32(&body, 1, 3);
  EXPECT_TRUE(DecodeIntervalListResp(body).status().IsCorruption());
  PutLE32(&body, 1, 2);
  EXPECT_EQ(DecodeIntervalListResp(body)->intervals, two.intervals);
}

TEST(MessagesTest, EmptyBatchAndEmptyPayloadParse) {
  Result<RecordBatchView> empty = RecordBatchView::Parse(BatchBody({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->records.size(), 0u);
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->records.begin() != empty->records.end());

  Result<RecordBatchView> blank =
      RecordBatchView::Parse(BatchBody({MakeRecord(4, 2, false, "")}));
  ASSERT_TRUE(blank.ok());
  ASSERT_EQ(blank->records.size(), 1u);
  const RecordView r = blank->records.front();
  EXPECT_EQ(r.lsn, 4u);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_FALSE(r.present);
  EXPECT_TRUE(r.data().empty());
}

TEST(MessagesTest, AsyncMessagesRoundTrip) {
  {
    Bytes w = EncodeNewInterval({7, 4, 100});
    Result<Envelope> env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->type, MessageType::kNewInterval);
    auto m = DecodeNewInterval(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->client, 7u);
    EXPECT_EQ(m->epoch, 4u);
    EXPECT_EQ(m->starting_lsn, 100u);
  }
  {
    Bytes w = EncodeNewHighLsn({55});
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(DecodeNewHighLsn(env->body)->new_high_lsn, 55u);
  }
  {
    Bytes w = EncodeMissingInterval({10, 19});
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    auto m = DecodeMissingInterval(env->body);
    EXPECT_EQ(m->low, 10u);
    EXPECT_EQ(m->high, 19u);
  }
}

TEST(MessagesTest, RpcMessagesRoundTrip) {
  {
    Bytes w = EncodeIntervalListReq({9}, 77);
    auto env = DecodeEnvelope(w);
    ASSERT_TRUE(env.ok());
    EXPECT_EQ(env->rpc_id, 77u);
    EXPECT_EQ(DecodeIntervalListReq(env->body)->client, 9u);
  }
  {
    IntervalListResp resp;
    resp.intervals = {{1, 1, 3}, {3, 3, 9}};
    Bytes w = EncodeIntervalListResp(resp, 77);
    auto env = DecodeEnvelope(w);
    auto m = DecodeIntervalListResp(env->body);
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m->intervals.size(), 2u);
    EXPECT_EQ(m->intervals[1], (Interval{3, 3, 9}));
  }
  {
    Bytes w = EncodeReadLogReq(MessageType::kReadLogBackwardReq, {4, 12}, 5);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(env->type, MessageType::kReadLogBackwardReq);
    auto m = DecodeReadLogReq(env->body);
    EXPECT_EQ(m->lsn, 12u);
  }
  {
    ReadLogResp resp;
    resp.status = RpcStatus::kNotFound;
    Bytes w = WriteWithRecords({}, resp, uint64_t{5});
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(env->rpc_id, 5u);
    auto m = DecodeReadLogResp(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->status, RpcStatus::kNotFound);
    EXPECT_TRUE(m->records.empty());
  }
  {
    const std::vector<LogRecord> records = {MakeRecord(4, 2, true, "four"),
                                            MakeRecord(5, 2, false, "")};
    Bytes w = WriteWithRecords(records, ReadLogResp{}, uint64_t{6});
    auto env = DecodeEnvelope(w);
    auto m = DecodeReadLogResp(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->status, RpcStatus::kOk);
    EXPECT_EQ(RecordsOf(m->records), records);
  }
  {
    CopyLogReq req;
    req.client = 1;
    req.epoch = 4;
    Bytes w = WriteWithRecords({MakeRecord(9, 4, true, "copy")}, req,
                               uint64_t{8});
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(env->rpc_id, 8u);
    auto m = DecodeCopyLogReq(env->body);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->client, 1u);
    EXPECT_EQ(m->epoch, 4u);
    ASSERT_EQ(m->records.size(), 1u);
    EXPECT_EQ(ToRecord(m->records.front()), MakeRecord(9, 4, true, "copy"));
  }
  {
    Bytes w = EncodeInstallCopiesReq({1, 4}, 9);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(DecodeInstallCopiesReq(env->body)->epoch, 4u);
  }
  {
    Bytes w = EncodeGenWriteReq({3, 1234}, 10);
    auto env = DecodeEnvelope(w);
    auto m = DecodeGenWriteReq(env->body);
    EXPECT_EQ(m->client, 3u);
    EXPECT_EQ(m->value, 1234u);
  }
  {
    GenReadResp resp;
    resp.value = 88;
    Bytes w = EncodeGenReadResp(resp, 11);
    auto env = DecodeEnvelope(w);
    EXPECT_EQ(DecodeGenReadResp(env->body)->value, 88u);
  }
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
  Bytes empty = WriteWithRecords({}, MessageType::kWriteLog, batch);
  Bytes one = WriteWithRecords({r}, MessageType::kWriteLog, batch);
  EXPECT_EQ(one.size() - empty.size(), EncodedRecordSize(r));
  EXPECT_EQ(empty.size(), RecordBatchOverhead());
}

// Size-then-encode: every message is allocated once, at its exact size
// plus the frame trailer, so neither encoding nor framing reallocates.
TEST(MessagesTest, EncodersReserveExactSizePlusFrameTrailer) {
  RecordBatch batch;
  batch.client = 1;
  batch.epoch = 2;
  const std::vector<LogRecord> records = {MakeRecord(5, 2, true, "0123456789"),
                                          MakeRecord(6, 2, false, "")};
  IntervalListResp intervals;
  intervals.intervals = {{1, 1, 4}, {2, 5, 9}};
  // Moved, never copied, into the list: a copy would drop the headroom.
  std::vector<Bytes> messages;
  messages.push_back(WriteWithRecords(records, MessageType::kForceLog, batch));
  messages.push_back(EncodeNewInterval({1, 2, 3}));
  messages.push_back(EncodeNewHighLsn({7}));
  messages.push_back(EncodeOverloaded({1, 2, 3, 4}));
  messages.push_back(EncodeMissingInterval({3, 4}));
  messages.push_back(EncodeIntervalListReq({1}, 9));
  messages.push_back(EncodeIntervalListResp(intervals, 9));
  messages.push_back(
      EncodeReadLogReq(MessageType::kReadLogForwardReq, {1, 5}, 9));
  messages.push_back(WriteWithRecords(records, ReadLogResp{}, uint64_t{9}));
  messages.push_back(WriteWithRecords(records, CopyLogReq{}, uint64_t{9}));
  messages.push_back(EncodeCopyLogResp({}, 9));
  messages.push_back(EncodeInstallCopiesReq({1, 2}, 9));
  messages.push_back(EncodeInstallCopiesResp({}, 9));
  messages.push_back(EncodeGenReadReq({1}, 9));
  messages.push_back(EncodeGenReadResp({}, 9));
  messages.push_back(EncodeGenWriteReq({1, 3}, 9));
  messages.push_back(EncodeGenWriteResp({}, 9));
  messages.push_back(EncodeTruncateLog({1, 4}));
  for (const Bytes& m : messages) {
    EXPECT_EQ(m.capacity(), m.size() + kFrameTrailerBytes);
  }

  // Records added as their wire encodings (as a server copies stored
  // ones into a reply) give the same message.
  RecordBatchWriter writer(ReadLogResp{}, 9,
                           EncodedRecordSize(records[0]) +
                               EncodedRecordSize(records[1]));
  for (const LogRecord& r : records) writer.Add(EncodeRecord(r));
  const Bytes written = writer.Take();
  EXPECT_EQ(written, WriteWithRecords(records, ReadLogResp{}, uint64_t{9}));
  EXPECT_EQ(written.capacity(), written.size() + kFrameTrailerBytes);
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
  WireConfig cfg;
  cfg.handshake_max_retries = 2;
  sim::Simulator sim;
  net::Network network(&sim, net::NetworkConfig{});
  TestPeer a(&sim, &network, 1, cfg);
  // No peer 2 attached: SYNs vanish.
  bool closed = false;
  Connection* conn = a.endpoint.Connect(2);
  conn->SetCloseHandler([&]() { closed = true; });
  sim.Run();
  EXPECT_TRUE(closed);
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
  WireConfig cfg;
  cfg.window_packets = 4;
  cfg.window_update_threshold = 2;
  cfg.allocation_override_delay = 60 * sim::kSecond;  // effectively off
  WirePair p(net::NetworkConfig{}, cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  // The receiver grants allocation as it consumes, so a long stream
  // still flows completely.
  for (int i = 0; i < 100; ++i) conn->Send(Bytes(10, 'x'));
  p.sim.Run();
  EXPECT_EQ(p.b_received.size(), 100u);
  EXPECT_EQ(conn->send_queue_depth(), 0u);
}

TEST(ConnectionTest, AllocationOverrideAfterPause) {
  // If every WINDOW grant is lost, the sender eventually exceeds its
  // allocation after the mandated pause instead of deadlocking.
  WireConfig cfg;
  cfg.window_packets = 2;
  cfg.allocation_override_delay = 3 * sim::kSecond;
  WirePair p(net::NetworkConfig{}, cfg);
  Connection* conn = p.a.endpoint.Connect(2);
  p.sim.Run();
  for (int i = 0; i < 10; ++i) conn->Send(Bytes(10, 'x'));
  p.sim.RunFor(120 * sim::kSecond);
  EXPECT_EQ(p.b_received.size(), 10u);
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
    p.accepted->Send(EncodeIntervalListResp(resp, env->rpc_id));
  });

  bool done = false;
  rpc.Call(
      [](uint64_t rpc_id) { return EncodeIntervalListReq({1}, rpc_id); },
      RpcClient::CallOptions{}, [&](Result<Envelope> env) {
        ASSERT_TRUE(env.ok());
        auto resp = DecodeIntervalListResp(env->body);
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
    p.accepted->Send(EncodeInstallCopiesResp({}, env->rpc_id));
  });

  int completed = 0;
  RpcClient::CallOptions opts;
  opts.max_attempts = 20;
  for (int i = 0; i < 10; ++i) {
    rpc.Call(
        [](uint64_t id) { return EncodeInstallCopiesReq({1, 1}, id); },
        opts, [&](Result<Envelope> env) {
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
  rpc.Call([](uint64_t id) { return EncodeIntervalListReq({1}, id); }, opts,
           [&](Result<Envelope> env) { result = env.status(); });
  p.sim.Run();
  EXPECT_TRUE(result.IsTimedOut());
}

TEST(RpcClientTest, FailAllAbortsPending) {
  WirePair p;
  Connection* conn = p.a.endpoint.Connect(2);
  RpcClient rpc(&p.sim, conn);
  Status st = Status::OK();
  rpc.Call([](uint64_t id) { return EncodeIntervalListReq({1}, id); },
           RpcClient::CallOptions{},
           [&](Result<Envelope> env) { st = env.status(); });
  rpc.FailAll(Status::Aborted("connection reset"));
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(rpc.pending(), 0u);
  p.sim.Run();
}

}  // namespace
}  // namespace dlog::wire
