#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "server/log_server.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "wire/connection.h"
#include "wire/messages.h"

namespace dlog::server {
namespace {

constexpr ClientId kClient = 9;

LogRecord Rec(Lsn lsn, Epoch epoch, bool present = true,
              std::string_view data = "data") {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = ToBytes(data);
  return r;
}

/// `header`'s message ending in `records`, written by the one
/// RecordBatchWriter.
template <typename Header>
Bytes WriteWithRecords(const std::vector<LogRecord>& records,
                       const Header& header, uint64_t rpc_id = 0,
                       wire::MessageType type = Header::kType) {
  size_t bytes = 0;
  for (const LogRecord& r : records) bytes += wire::EncodedRecordSize(r);
  wire::RecordBatchWriter writer(header, rpc_id, bytes, type);
  for (const LogRecord& r : records) writer.Add(r);
  return writer.Take();
}

/// A CopyLog request staging `records` under `epoch`.
Bytes CopyLogMessage(Epoch epoch, const std::vector<LogRecord>& records,
                 uint64_t rpc_id) {
  return WriteWithRecords(records, wire::CopyLogReq{kClient, epoch, {}},
                          rpc_id);
}

/// The LSNs of a ReadLog reply's records, in reply order.
std::vector<Lsn> Lsns(const wire::ReadLogResp& resp) {
  std::vector<Lsn> lsns;
  for (const wire::RecordView r : resp.records) lsns.push_back(r.lsn);
  return lsns;
}

/// Drives a LogServer with raw protocol messages, recording everything
/// the server sends back.
struct RawDriver {
  explicit RawDriver(LogServerConfig server_cfg = {}) {
    server_cfg.node_id = 1;
    network = std::make_unique<net::Network>(&sim, net::NetworkConfig{});
    server = std::make_unique<LogServer>(&sim, server_cfg);
    server->AttachNetwork(network.get());

    cpu = std::make_unique<sim::Cpu>(&sim, 100.0);
    nic = std::make_unique<net::Nic>(&sim, 64);
    network->Attach(99, nic.get());
    endpoint = std::make_unique<wire::Endpoint>(&sim, cpu.get(), 99,
                                                wire::WireConfig{});
    endpoint->AttachNetwork(network.get(), nic.get());
    Connect();
    sim.Run();
  }

  /// Opens a connection to the server whose arrivals land in `inbox` (a
  /// restarted server has forgotten the previous one).
  void Connect() {
    conn = endpoint->Connect(1);
    conn->SetMessageHandler([this](const SharedBytes& payload) {
      Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
      if (env.ok()) inbox.push_back(*env);
    });
  }

  void Send(Bytes message) {
    conn->Send(std::move(message));
    // Bounded run: long-period timers (e.g., a 60 s flush interval used
    // by some tests) must stay pending.
    sim.RunFor(2 * sim::kSecond);
  }

  /// Sends a WriteLog/ForceLog batch.
  void SendBatch(wire::MessageType type, Epoch epoch,
                 std::vector<LogRecord> records) {
    wire::RecordBatch batch;
    batch.client = kClient;
    batch.epoch = epoch;
    Send(WriteWithRecords(records, batch, 0, type));
  }

  /// Last message of the given type, if any.
  const wire::Envelope* Last(wire::MessageType type) const {
    for (auto it = inbox.rbegin(); it != inbox.rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }

  int CountOf(wire::MessageType type) const {
    int n = 0;
    for (const auto& env : inbox) {
      if (env.type == type) ++n;
    }
    return n;
  }

  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<LogServer> server;
  std::unique_ptr<sim::Cpu> cpu;
  std::unique_ptr<net::Nic> nic;
  std::unique_ptr<wire::Endpoint> endpoint;
  wire::Connection* conn = nullptr;
  std::vector<wire::Envelope> inbox;
  uint64_t next_rpc = 1;
};

/// Sends a WriteLog batch without running the simulation.
void SendWriteNow(RawDriver& d, std::vector<LogRecord> records) {
  wire::RecordBatch batch;
  batch.client = kClient;
  batch.epoch = 1;
  d.conn->Send(WriteWithRecords(records, batch));
}

/// `records` of kClient packed into tracks the way the server packs its
/// stream: greedily, each track taking entries while they fit.
std::vector<Bytes> GreedyTracks(const std::vector<LogRecord>& records,
                                size_t track_bytes) {
  std::vector<Bytes> tracks;
  std::vector<std::pair<ClientId, LogRecord>> current;
  size_t bytes = kTrackOverhead;
  for (const LogRecord& r : records) {
    const size_t n = kStreamEntryClientBytes + wire::EncodedRecordSize(r);
    if (!current.empty() && bytes + n > track_bytes) {
      tracks.push_back(EncodeTrack(current));
      current.clear();
      bytes = kTrackOverhead;
    }
    current.push_back({kClient, r});
    bytes += n;
  }
  if (!current.empty()) tracks.push_back(EncodeTrack(current));
  return tracks;
}

/// The written tracks of the server's disk, from track `first` on.
std::vector<Bytes> DiskTracks(LogServer& server, uint64_t first = 0) {
  std::vector<Bytes> tracks;
  for (uint64_t t = first; server.disk().IsWritten(t); ++t) {
    const SharedBytes track = *server.disk().Peek(t);
    tracks.emplace_back(track.begin(), track.end());
  }
  return tracks;
}

/// Records 1..n of kClient, epoch 1, with payloads of assorted sizes.
std::vector<LogRecord> AssortedRecords(Lsn n) {
  constexpr size_t kSizes[] = {100, 37, 180, 64, 250};
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= n; ++l) {
    records.push_back(Rec(l, 1, true,
                          std::string(kSizes[l % 5],
                                      static_cast<char>('a' + l % 26))));
  }
  return records;
}

TEST(LogServerTest, ForceLogAcknowledgedWithNewHighLsn) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  const wire::Envelope* ack = d.Last(wire::MessageType::kNewHighLsn);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(wire::Decode<wire::NewHighLsnMsg>(ack->body)->new_high_lsn, 2u);
  EXPECT_EQ(d.server->records_written().value(), 2u);
}

TEST(LogServerTest, WriteLogIsNotAcknowledged) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kWriteLog, 1, {Rec(1, 1)});
  EXPECT_EQ(d.Last(wire::MessageType::kNewHighLsn), nullptr);
  EXPECT_EQ(d.server->records_written().value(), 1u);
}

TEST(LogServerTest, GapTriggersMissingInterval) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  // Records 3-4 lost; 5-6 arrive.
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(5, 1), Rec(6, 1)});
  const wire::Envelope* miss = d.Last(wire::MessageType::kMissingInterval);
  ASSERT_NE(miss, nullptr);
  auto m = wire::Decode<wire::MissingIntervalMsg>(miss->body);
  EXPECT_EQ(m->low, 3u);
  EXPECT_EQ(m->high, 4u);
  // The force ack reports only the contiguous prefix.
  auto ack = wire::Decode<wire::NewHighLsnMsg>(
      d.Last(wire::MessageType::kNewHighLsn)->body);
  EXPECT_EQ(ack->new_high_lsn, 2u);
}

TEST(LogServerTest, ResendFillsGapAndDrainsPending) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(4, 1), Rec(5, 1)});
  // Resend the missing records.
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(2, 1), Rec(3, 1)});
  auto ack = wire::Decode<wire::NewHighLsnMsg>(
      d.Last(wire::MessageType::kNewHighLsn)->body);
  EXPECT_EQ(ack->new_high_lsn, 5u);
  EXPECT_EQ(d.server->IntervalsOf(kClient),
            (IntervalList{{1, 1, 5}}));
}

TEST(LogServerTest, NewIntervalSkipsGap) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(4, 1), Rec(5, 1)});
  // The skipped records live elsewhere: start a new interval at 4.
  d.Send(wire::Encode(wire::NewIntervalMsg{kClient, 1, 4}));
  EXPECT_EQ(d.server->IntervalsOf(kClient),
            (IntervalList{{1, 1, 1}, {1, 4, 5}}));
}

TEST(LogServerTest, ProactiveNewIntervalAcceptsJump) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  d.Send(wire::Encode(wire::NewIntervalMsg{kClient, 1, 10}));
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(10, 1), Rec(11, 1)});
  EXPECT_EQ(d.server->IntervalsOf(kClient),
            (IntervalList{{1, 1, 1}, {1, 10, 11}}));
  EXPECT_EQ(d.CountOf(wire::MessageType::kMissingInterval), 0);
}

// The stream rule does not depend on arrival order within a batch.
TEST(LogServerTest, DescendingBatchIsStoredInLsnOrder) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(3, 1), Rec(2, 1), Rec(1, 1)});
  std::vector<Lsn> stored;
  for (const LogRecord& r : d.server->RecordsOf(kClient)) {
    stored.push_back(r.lsn);
  }
  EXPECT_EQ(stored, (std::vector<Lsn>{1, 2, 3}));
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 3}}));
  EXPECT_EQ(d.CountOf(wire::MessageType::kMissingInterval), 0);
  EXPECT_EQ(wire::Decode<wire::NewHighLsnMsg>(
                d.Last(wire::MessageType::kNewHighLsn)->body)->new_high_lsn,
            3u);
}

TEST(LogServerTest, DuplicateBatchIsIdempotent) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  EXPECT_EQ(d.server->records_written().value(), 2u);
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 2}}));
}

TEST(LogServerTest, IntervalListRpc) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  d.Send(wire::Encode(wire::IntervalListReq{kClient}, d.next_rpc++));
  const wire::Envelope* resp = d.Last(wire::MessageType::kIntervalListResp);
  ASSERT_NE(resp, nullptr);
  auto m = wire::Decode<wire::IntervalListResp>(resp->body);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->intervals, (IntervalList{{1, 1, 2}}));
}

TEST(LogServerTest, IntervalListForUnknownClientIsEmpty) {
  RawDriver d;
  d.Send(wire::Encode(wire::IntervalListReq{1234}, d.next_rpc++));
  auto m = wire::Decode<wire::IntervalListResp>(
      d.Last(wire::MessageType::kIntervalListResp)->body);
  EXPECT_EQ(m->status, wire::RpcStatus::kOk);
  EXPECT_TRUE(m->intervals.empty());
}

TEST(LogServerTest, ReadLogForwardPacksFollowingRecords) {
  RawDriver d;
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 10; ++l) records.push_back(Rec(l, 1));
  d.SendBatch(wire::MessageType::kForceLog, 1, records);

  d.Send(wire::Encode(wire::ReadLogReq{kClient, 4}, d.next_rpc++));
  auto m = wire::Decode<wire::ReadLogResp>(
      d.Last(wire::MessageType::kReadLogResp)->body);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->status, wire::RpcStatus::kOk);
  const std::vector<Lsn> lsns = Lsns(*m);
  ASSERT_GE(lsns.size(), 2u);
  EXPECT_EQ(lsns[0], 4u);
  EXPECT_EQ(lsns[1], 5u);  // forward fill
}

TEST(LogServerTest, ReadLogBackwardPacksPrecedingRecords) {
  RawDriver d;
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 10; ++l) records.push_back(Rec(l, 1));
  d.SendBatch(wire::MessageType::kForceLog, 1, records);

  d.Send(wire::Encode(wire::ReadLogReq{kClient, 5}, d.next_rpc++,
                      wire::MessageType::kReadLogBackwardReq));
  auto m = wire::Decode<wire::ReadLogResp>(
      d.Last(wire::MessageType::kReadLogResp)->body);
  ASSERT_TRUE(m.ok());
  const std::vector<Lsn> lsns = Lsns(*m);
  ASSERT_GE(lsns.size(), 2u);
  EXPECT_EQ(lsns[0], 5u);
  EXPECT_EQ(lsns[1], 4u);  // backward fill
}

TEST(LogServerTest, ReadOfUnstoredLsnIsNotFound) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  d.Send(wire::Encode(wire::ReadLogReq{kClient, 7}, d.next_rpc++));
  auto m = wire::Decode<wire::ReadLogResp>(
      d.Last(wire::MessageType::kReadLogResp)->body);
  EXPECT_EQ(m->status, wire::RpcStatus::kNotFound);
}

TEST(LogServerTest, CopyLogInstallCopiesFlow) {
  RawDriver d;
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 9; ++l) records.push_back(Rec(l, 3));
  d.SendBatch(wire::MessageType::kForceLog, 3, records);

  // Stage copies with the new epoch 4.
  d.Send(CopyLogMessage(4, {Rec(9, 4, true, "copy"), Rec(10, 4, false, "")},
                        d.next_rpc++));
  auto cresp = wire::Decode<wire::CopyLogResp>(
      d.Last(wire::MessageType::kCopyLogResp)->body);
  EXPECT_EQ(cresp->status, wire::RpcStatus::kOk);
  // Not yet visible.
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{3, 1, 9}}));

  d.Send(wire::Encode(wire::InstallCopiesReq{kClient, 4}, d.next_rpc++));
  auto iresp = wire::Decode<wire::InstallCopiesResp>(
      d.Last(wire::MessageType::kInstallCopiesResp)->body);
  EXPECT_EQ(iresp->status, wire::RpcStatus::kOk);
  EXPECT_EQ(d.server->IntervalsOf(kClient),
            (IntervalList{{3, 1, 9}, {4, 9, 10}}));
  const std::vector<LogRecord> stored = d.server->RecordsOf(kClient);
  EXPECT_EQ(stored.back(), Rec(10, 4, false, ""));
  EXPECT_EQ(stored[stored.size() - 2], Rec(9, 4, true, "copy"));
}

// InstallCopies admits copies by the bytes their stream entries take in
// NVRAM: copies that exactly fill the space left are installed.
TEST(LogServerTest, InstallCopiesThatExactlyFillNvramAreInstalled) {
  const LogRecord stored = Rec(1, 1);
  const std::vector<LogRecord> copies = {Rec(2, 2, true, "copy"),
                                         Rec(3, 2, false, "")};
  auto entry_bytes = [](const LogRecord& r) {
    return kStreamEntryClientBytes + wire::EncodedRecordSize(r);
  };
  LogServerConfig cfg;
  cfg.nvram_bytes =
      entry_bytes(stored) + entry_bytes(copies[0]) + entry_bytes(copies[1]);
  cfg.flush_interval = 60 * sim::kSecond;  // no flushing: NVRAM stays full
  RawDriver d(cfg);
  d.SendBatch(wire::MessageType::kForceLog, 1, {stored});
  ASSERT_EQ(d.server->records_written().value(), 1u);

  d.Send(CopyLogMessage(2, copies, d.next_rpc++));
  ASSERT_EQ(wire::Decode<wire::CopyLogResp>(
                d.Last(wire::MessageType::kCopyLogResp)->body)
                ->status,
            wire::RpcStatus::kOk);
  d.Send(wire::Encode(wire::InstallCopiesReq{kClient, 2}, d.next_rpc++));
  EXPECT_EQ(wire::Decode<wire::InstallCopiesResp>(
                d.Last(wire::MessageType::kInstallCopiesResp)->body)
                ->status,
            wire::RpcStatus::kOk);
  EXPECT_EQ(d.server->IntervalsOf(kClient),
            (IntervalList{{1, 1, 1}, {2, 2, 3}}));
  EXPECT_EQ(d.server->nvram_buffer().used_bytes(), cfg.nvram_bytes);
}

// A staged copy that conflicts with a stored <LSN, Epoch> fails the whole
// InstallCopies: none of the call's copies becomes readable or reaches
// NVRAM.
TEST(LogServerTest, ConflictingInstallCopiesInstallsNothing) {
  RawDriver d;
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  auto copy = [&d](const std::vector<LogRecord>& records) {
    d.Send(CopyLogMessage(2, records, d.next_rpc++));
    d.Send(wire::Encode(wire::InstallCopiesReq{kClient, 2}, d.next_rpc++));
    return wire::Decode<wire::InstallCopiesResp>(
               d.Last(wire::MessageType::kInstallCopiesResp)->body)
        ->status;
  };
  ASSERT_EQ(copy({Rec(5, 2, true, "x")}), wire::RpcStatus::kOk);
  const IntervalList before = d.server->IntervalsOf(kClient);
  ASSERT_EQ(before, (IntervalList{{1, 1, 2}, {2, 5, 5}}));
  ASSERT_EQ(d.server->records_written().value(), 3u);
  const size_t buffered = d.server->nvram_buffer().used_bytes();

  EXPECT_EQ(copy({Rec(3, 2, true, "c"), Rec(5, 2, true, "y")}),
            wire::RpcStatus::kError);
  EXPECT_EQ(d.server->IntervalsOf(kClient), before);
  EXPECT_EQ(d.server->records_written().value(), 3u);
  EXPECT_EQ(d.server->nvram_buffer().used_bytes(), buffered);
  d.Send(wire::Encode(wire::ReadLogReq{kClient, 3}, d.next_rpc++));
  EXPECT_EQ(wire::Decode<wire::ReadLogResp>(
                d.Last(wire::MessageType::kReadLogResp)->body)
                ->status,
            wire::RpcStatus::kNotFound);
}

// A batch is checked whole before any record is applied: a ForceLog
// whose last record overruns the packet stores nothing and is not
// acknowledged.
TEST(LogServerTest, ForceLogWithAnOverrunningRecordAppliesNothing) {
  RawDriver d;
  wire::RecordBatch batch;
  batch.client = kClient;
  batch.epoch = 1;
  const std::vector<LogRecord> records = {Rec(1, 1), Rec(2, 1, true, "last")};
  Bytes message =
      WriteWithRecords(records, batch, 0, wire::MessageType::kForceLog);
  // The last record's length field (just before its 4 data bytes) claims
  // one byte more than the packet holds.
  message[message.size() - 8] = 5;
  d.Send(std::move(message));
  EXPECT_EQ(d.server->records_written().value(), 0u);
  EXPECT_TRUE(d.server->IntervalsOf(kClient).empty());
  EXPECT_EQ(d.Last(wire::MessageType::kNewHighLsn), nullptr);

  // The same batch intact is applied and acknowledged.
  d.SendBatch(wire::MessageType::kForceLog, 1, records);
  EXPECT_EQ(d.server->records_written().value(), 2u);
  EXPECT_NE(d.Last(wire::MessageType::kNewHighLsn), nullptr);
}

TEST(LogServerTest, MismatchedCopyEpochRejected) {
  RawDriver d;
  d.Send(CopyLogMessage(4, {Rec(9, 5)}, d.next_rpc++));  // record epoch 5
  auto resp = wire::Decode<wire::CopyLogResp>(
      d.Last(wire::MessageType::kCopyLogResp)->body);
  EXPECT_EQ(resp->status, wire::RpcStatus::kError);
}

// A CopyLog request whose record count lies is dropped unanswered, like
// any garbled message, and the server keeps serving the stream.
TEST(LogServerTest, CopyLogWithALyingCountGetsNoReply) {
  RawDriver d;
  Bytes lying = CopyLogMessage(2, {}, d.next_rpc++);
  StoreLE(lying.data() + lying.size() - 4, 0xFFFFFFFFu, 4);
  d.Send(std::move(lying));
  EXPECT_EQ(d.Last(wire::MessageType::kCopyLogResp), nullptr);

  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  const wire::Envelope* ack = d.Last(wire::MessageType::kNewHighLsn);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(wire::Decode<wire::NewHighLsnMsg>(ack->body)->new_high_lsn, 1u);
}

TEST(LogServerTest, LoadSheddingIgnoresWritesWhenNvramFull) {
  LogServerConfig cfg;
  // A tiny group buffer: one record's 325-byte entry fills it past the
  // 95% shed threshold.
  cfg.nvram_bytes = 340;
  cfg.admission.enabled = false;  // legacy behavior: shed silently
  cfg.flush_interval = 60 * sim::kSecond;  // no flushing: stay full
  RawDriver d(cfg);

  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(1, 1, true, std::string(300, 'x'))});
  const uint64_t written = d.server->records_written().value();
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(2, 1, true, std::string(300, 'y'))});
  // Second write shed silently: no ack progress, no new record, and no
  // Overloaded reply (admission control is off).
  EXPECT_EQ(d.server->records_written().value(), written);
  EXPECT_GT(d.server->writes_shed().value(), 0u);
  EXPECT_EQ(d.CountOf(wire::MessageType::kOverloaded), 0);
}

TEST(LogServerTest, AdmissionRejectsWithOverloadedReplyAtThreshold) {
  LogServerConfig cfg;
  cfg.nvram_bytes = 340;  // one record fills it past 95%
  cfg.flush_interval = 60 * sim::kSecond;  // no flushing: stay full
  RawDriver d(cfg);

  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(1, 1, true, std::string(300, 'x'))});
  const uint64_t written = d.server->records_written().value();
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(2, 1, true, std::string(300, 'y'))});

  // Past the occupancy threshold the batch is rejected with an explicit
  // Overloaded reply carrying a retry-after hint and the stored high LSN.
  EXPECT_EQ(d.server->records_written().value(), written);
  EXPECT_GT(d.server->writes_shed().value(), 0u);
  EXPECT_EQ(d.server->admission().overload_replies().value(), 1u);
  const wire::Envelope* shed = d.Last(wire::MessageType::kOverloaded);
  ASSERT_NE(shed, nullptr);
  auto msg = wire::Decode<wire::OverloadedMsg>(shed->body);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->client, kClient);
  EXPECT_EQ(msg->shed_type,
            static_cast<uint8_t>(wire::MessageType::kForceLog));
  EXPECT_EQ(msg->high_lsn, 1u);  // the server stored record 1
  EXPECT_GT(msg->retry_after_us, 0u);
}

TEST(LogServerTest, AdmissionRecoversAfterDrain) {
  LogServerConfig cfg;
  cfg.nvram_bytes = 340;  // one record fills it past 95%
  // Each Send() runs the sim for 2 s, so the first flush (t=3 s) lands
  // between the shed second batch and the retry.
  cfg.flush_interval = 3 * sim::kSecond;
  RawDriver d(cfg);

  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(1, 1, true, std::string(300, 'x'))});
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(2, 1, true, std::string(300, 'y'))});
  EXPECT_GT(d.server->writes_shed().value(), 0u);

  // By the retry the flush has drained the buffer and admission opens
  // again: the retried record is accepted and force-acknowledged.
  const uint64_t shed_before = d.server->writes_shed().value();
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(2, 1, true, std::string(300, 'y'))});
  EXPECT_EQ(d.server->writes_shed().value(), shed_before);
  const wire::Envelope* ack = d.Last(wire::MessageType::kNewHighLsn);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(wire::Decode<wire::NewHighLsnMsg>(ack->body)->new_high_lsn, 2u);
}

TEST(LogServerTest, GeneratorCellsSurviveCrash) {
  RawDriver d;
  d.Send(wire::Encode(wire::GenWriteReq{kClient, 42}, d.next_rpc++));
  auto wr = wire::Decode<wire::GenWriteResp>(
      d.Last(wire::MessageType::kGenWriteResp)->body);
  EXPECT_EQ(wr->status, wire::RpcStatus::kOk);

  d.server->Crash();
  d.sim.RunFor(10 * sim::kMillisecond);
  d.server->Restart();

  EXPECT_EQ(d.server->generator_cell(kClient)->Read(), 42u);
}

TEST(LogServerTest, CrashRestartRebuildsFromNvramAndDisk) {
  LogServerConfig cfg;
  cfg.disk.track_bytes = 2048;
  cfg.flush_interval = 10 * sim::kMillisecond;
  RawDriver d(cfg);

  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 40; ++l) {
    records.push_back(Rec(l, 1, true, std::string(100, 'a')));
  }
  // Send in chunks so several tracks fill.
  for (size_t i = 0; i < records.size(); i += 8) {
    d.SendBatch(
        wire::MessageType::kForceLog, 1,
        std::vector<LogRecord>(records.begin() + i,
                               records.begin() + i + 8));
  }
  d.sim.RunFor(sim::kSecond);  // allow flushes
  ASSERT_GT(d.server->tracks_written().value(), 1u);

  d.server->Crash();
  d.sim.RunFor(100 * sim::kMillisecond);
  d.server->Restart();

  // Everything is recovered, in order, as one interval.
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 40}}));
  std::vector<LogRecord> recovered = d.server->RecordsOf(kClient);
  ASSERT_EQ(recovered.size(), 40u);
  for (Lsn l = 1; l <= 40; ++l) {
    EXPECT_EQ(recovered[l - 1].lsn, l);
    EXPECT_EQ(recovered[l - 1].data, ToBytes(std::string(100, 'a')));
  }
}

TEST(LogServerTest, UnflushedNvramRecordsSurviveCrash) {
  LogServerConfig cfg;
  cfg.flush_interval = 60 * sim::kSecond;  // records stay in NVRAM
  RawDriver d(cfg);
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  EXPECT_EQ(d.server->tracks_written().value(), 0u);  // never hit disk

  d.server->Crash();
  d.sim.RunFor(10 * sim::kMillisecond);
  d.server->Restart();
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 2}}));
}

TEST(LogServerTest, NvramOccupancyGaugeTracksTheBufferAcrossLossAndRestart) {
  LogServerConfig cfg;
  cfg.flush_interval = 60 * sim::kSecond;  // records stay in NVRAM
  RawDriver d(cfg);
  const sim::TimeWeightedGauge& gauge = d.server->nvram_occupancy();
  auto used = [&d]() {
    return static_cast<double>(d.server->nvram_buffer().used_bytes());
  };
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  const double buffered = used();
  EXPECT_GT(buffered, 0.0);
  EXPECT_EQ(gauge.value(), buffered);

  // The buffer survives a crash and restart, and so does its level.
  d.server->Crash();
  d.sim.RunFor(10 * sim::kMillisecond);
  d.server->Restart();
  EXPECT_EQ(used(), buffered);
  EXPECT_EQ(gauge.value(), buffered);

  // Losing the NVRAM replaces the buffer; the gauge follows it to empty.
  d.server->LoseNvram();
  EXPECT_EQ(used(), 0.0);
  EXPECT_EQ(gauge.value(), 0.0);
  const sim::Time lost_at = d.sim.Now();
  const double integral_at_loss = gauge.Integral(lost_at);
  d.sim.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(gauge.Integral(d.sim.Now()), integral_at_loss);  // empty
  d.server->Restart();

  // New writes into the replacement buffer keep counting.
  d.Connect();
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {Rec(1, 1), Rec(2, 1), Rec(3, 1)});
  EXPECT_GT(used(), buffered);
  EXPECT_EQ(gauge.value(), used());
  const sim::Time t0 = d.sim.Now();
  d.sim.RunFor(1 * sim::kSecond);
  EXPECT_EQ(gauge.Integral(d.sim.Now()) - gauge.Integral(t0),
            used() * static_cast<double>(1 * sim::kSecond));
  EXPECT_EQ(gauge.max(), used());
}

// A restarted server can find a record both on disk and still in NVRAM
// (the track write landed, but the crash lost the flush's completion). Its
// reads are charged to that track until the NVRAM copy flushes, and then
// to the later track.
TEST(LogServerTest, RestartChargesReadsToTheLatestTrackHoldingARecord) {
  LogServerConfig cfg;
  cfg.flush_interval = 60 * sim::kSecond;  // records stay in NVRAM
  RawDriver d(cfg);
  std::vector<uint64_t> read_tracks;
  d.server->disk().SetRequestProbe(
      [&read_tracks](const storage::SimDisk::RequestTiming& t) {
        if (!t.is_write) read_tracks.push_back(t.track);
      });
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1), Rec(2, 1)});
  ASSERT_EQ(d.server->tracks_written().value(), 0u);

  d.server->Crash();
  d.server->disk().WriteTrack(
      0, EncodeTrack({{kClient, Rec(1, 1)}, {kClient, Rec(2, 1)}}), nullptr);
  d.sim.RunFor(sim::kSecond);
  ASSERT_TRUE(d.server->disk().IsWritten(0));
  d.server->Restart();
  d.Connect();

  auto read_first = [&d]() {
    d.Send(wire::Encode(wire::ReadLogReq{kClient, 1}, d.next_rpc++));
    const wire::Envelope* resp = d.Last(wire::MessageType::kReadLogResp);
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(wire::Decode<wire::ReadLogResp>(resp->body)->status,
              wire::RpcStatus::kOk);
  };
  read_first();
  EXPECT_EQ(read_tracks, (std::vector<uint64_t>{0}));

  d.server->FlushNow();
  d.sim.RunFor(sim::kSecond);
  ASSERT_EQ(d.server->tracks_written().value(), 1u);
  read_first();
  EXPECT_EQ(read_tracks, (std::vector<uint64_t>{0, 1}));
}

// Each track the server writes is its NVRAM image of the stream,
// packed greedily: full tracks go out as soon as the next entry spills
// into a new image, the partly full remainder when the timer fires.
TEST(LogServerTest, FlushedTracksAreTheGreedyPackingOfTheStream) {
  LogServerConfig cfg;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 5 * sim::kSecond;
  RawDriver d(cfg);
  const std::vector<LogRecord> records = AssortedRecords(12);
  for (size_t i = 0; i < records.size(); i += 4) {
    SendWriteNow(d, {records.begin() + static_cast<long>(i),
                     records.begin() + static_cast<long>(i + 4)});
  }
  d.sim.RunFor(2 * sim::kSecond);
  const std::vector<Bytes> expected = GreedyTracks(records, 512);
  ASSERT_GE(expected.size(), 3u);
  EXPECT_EQ(DiskTracks(*d.server),
            std::vector<Bytes>(expected.begin(), expected.end() - 1));

  d.sim.RunFor(5 * sim::kSecond);  // the timer flushes the partial track
  EXPECT_EQ(DiskTracks(*d.server), expected);
}

// A crash while a partly full track is being written leaves its entries
// and the ones buffered after them in NVRAM; the restarted server packs
// them all greedily from the front again.
TEST(LogServerTest, RestartRepacksAnInterruptedPartialFlush) {
  LogServerConfig cfg;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 60 * sim::kSecond;
  RawDriver d(cfg);
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 4; ++l) {
    records.push_back(Rec(l, 1, true, std::string(100, 'r')));
  }
  const std::vector<Bytes> expected = GreedyTracks(records, 512);
  ASSERT_EQ(expected.size(), 1u);  // all four fit in one track
  d.SendBatch(wire::MessageType::kWriteLog, 1, {records[0], records[1]});
  d.server->FlushNow();  // seals the image holding 1-2 and writes it
  SendWriteNow(d, {records[2], records[3]});
  d.sim.RunFor(5 * sim::kMillisecond);
  ASSERT_EQ(d.server->RecordsOf(kClient).size(), 4u);
  ASSERT_FALSE(d.server->disk().IsWritten(0));  // still in flight

  d.server->Crash();
  d.sim.RunFor(sim::kSecond);
  ASSERT_FALSE(d.server->disk().IsWritten(0));
  d.server->Restart();
  d.server->FlushNow();
  d.sim.RunFor(sim::kSecond);
  EXPECT_EQ(DiskTracks(*d.server), expected);
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 4}}));
}

// The restart scan stops at the first disk track that fails its check
// ("torn/corrupt track terminates the stream"): the tracks before it are
// indexed, and none of its records is served.
TEST(LogServerTest, RestartStopsAtACorruptDiskTrack) {
  LogServerConfig cfg;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 10 * sim::kMillisecond;
  RawDriver d(cfg);
  const std::vector<LogRecord> records = AssortedRecords(12);
  for (size_t i = 0; i < records.size(); i += 4) {
    d.SendBatch(wire::MessageType::kWriteLog, 1,
                {records.begin() + static_cast<long>(i),
                 records.begin() + static_cast<long>(i + 4)});
  }
  d.sim.RunFor(sim::kSecond);
  ASSERT_TRUE(d.server->nvram_buffer().empty());  // all on disk
  const std::vector<Bytes> tracks = DiskTracks(*d.server);
  ASSERT_GE(tracks.size(), 3u);
  const Lsn end_of_0 = TrackView::Parse(tracks[0])->size();
  const Lsn end_of_1 = end_of_0 + TrackView::Parse(tracks[1])->size();

  d.server->Crash();
  Bytes corrupt = tracks[1];
  corrupt[corrupt.size() / 2] ^= 0xFF;
  d.server->disk().WriteTrack(1, corrupt, nullptr);
  d.sim.RunFor(sim::kSecond);
  d.server->Restart();
  d.Connect();

  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, end_of_0}}));
  EXPECT_EQ(d.server->RecordsOf(kClient),
            std::vector<LogRecord>(records.begin(),
                                   records.begin() + end_of_0));
  auto read = [&d](Lsn lsn) {
    d.Send(wire::Encode(wire::ReadLogReq{kClient, lsn}, d.next_rpc++));
    return *wire::Decode<wire::ReadLogResp>(
        d.Last(wire::MessageType::kReadLogResp)->body);
  };
  EXPECT_EQ(Lsns(read(1)).front(), 1u);
  for (Lsn lsn = end_of_0 + 1; lsn <= end_of_1; ++lsn) {
    EXPECT_EQ(read(lsn).status, wire::RpcStatus::kNotFound) << "LSN " << lsn;
  }
}

// A failed track write still uses up its track number, and its entries
// are packed greedily with whatever was buffered after them.
TEST(LogServerTest, FailedTrackWriteBurnsItsNumberAndRepacks) {
  LogServerConfig cfg;
  cfg.disk.write_once = true;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 60 * sim::kSecond;
  RawDriver d(cfg);
  d.server->disk().WriteTrack(0, ToBytes("taken"), nullptr);
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 4; ++l) {
    records.push_back(Rec(l, 1, true, std::string(100, 'f')));
  }
  d.SendBatch(wire::MessageType::kWriteLog, 1, {records[0], records[1]});
  d.server->FlushNow();  // write-once conflict on track 0
  d.sim.RunFor(sim::kSecond);
  ASSERT_EQ(d.server->tracks_written().value(), 0u);
  ASSERT_FALSE(d.server->disk().IsWritten(1));

  d.SendBatch(wire::MessageType::kWriteLog, 1, {records[2], records[3]});
  EXPECT_EQ(d.server->tracks_written().value(), 1u);
  EXPECT_EQ(DiskTracks(*d.server, 1), GreedyTracks(records, 512));
  EXPECT_EQ(ToString(*d.server->disk().Peek(0)), "taken");
  // Every record reads back from where the repack put it.
  EXPECT_EQ(d.server->RecordsOf(kClient), records);
}

// On a write-once disk a written track that fails its check is burned,
// not the end of the stream: the flush that met it moved on to the next
// track, so a restart scans past it to the tracks written after it.
TEST(LogServerTest, WriteOnceRestartScansPastABurnedTrack) {
  LogServerConfig cfg;
  cfg.disk.write_once = true;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 60 * sim::kSecond;
  RawDriver d(cfg);
  d.server->disk().WriteTrack(0, ToBytes("taken"), nullptr);
  std::vector<LogRecord> records;
  for (Lsn l = 1; l <= 8; ++l) {
    records.push_back(Rec(l, 1, true, std::string(100, 'w')));
  }
  const std::vector<LogRecord> first(records.begin(), records.begin() + 4);
  const std::vector<LogRecord> next(records.begin() + 4, records.end());
  d.SendBatch(wire::MessageType::kWriteLog, 1, {first[0], first[1]});
  d.server->FlushNow();  // write-once conflict on track 0
  d.sim.RunFor(sim::kSecond);
  d.SendBatch(wire::MessageType::kWriteLog, 1, {first[2], first[3]});
  ASSERT_EQ(DiskTracks(*d.server, 1), GreedyTracks(first, 512));

  d.server->Crash();
  d.sim.RunFor(sim::kSecond);
  d.server->Restart();
  d.Connect();
  EXPECT_EQ(d.server->RecordsOf(kClient), first);
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 4}}));
  const std::optional<forest::AppendForest> forest =
      d.server->ForestOf(kClient);
  ASSERT_TRUE(forest.has_value());
  ASSERT_EQ(forest->size(), 1u);
  EXPECT_EQ(forest->node(0).key_low, 1u);
  EXPECT_EQ(forest->node(0).key_high, 4u);
  EXPECT_EQ(forest->node(0).value, 1u);

  // The stream goes on, and its next track lands past track 1.
  d.SendBatch(wire::MessageType::kWriteLog, 1, next);
  d.server->FlushNow();
  d.sim.RunFor(sim::kSecond);
  EXPECT_EQ(DiskTracks(*d.server, 2), GreedyTracks(next, 512));
  EXPECT_EQ(d.server->RecordsOf(kClient), records);
}

// Stored records are views of the track images the disk keeps, not of
// the packets they arrived in: read back long after those packets are
// gone, they return the bytes that were sent.
TEST(LogServerTest, StoredRecordsReadBackFromTheirTrackImages) {
  LogServerConfig cfg;
  cfg.disk.track_bytes = 512;
  cfg.flush_interval = 500 * sim::kMillisecond;
  RawDriver d(cfg);
  const std::vector<LogRecord> records = AssortedRecords(9);
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {records.begin(), records.begin() + 4});
  d.SendBatch(wire::MessageType::kForceLog, 1,
              {records.begin() + 4, records.end()});
  d.sim.RunFor(2 * sim::kSecond);
  ASSERT_EQ(d.server->tracks_written().value(),
            GreedyTracks(records, 512).size());

  const std::vector<LogRecord> stored = d.server->RecordsOf(kClient);
  ASSERT_EQ(stored, records);
  for (const LogRecord& r : stored) {
    bool in_a_track = false;
    for (uint64_t t = 0; d.server->disk().IsWritten(t); ++t) {
      const SharedBytes track = *d.server->disk().Peek(t);
      in_a_track = in_a_track ||
                   (std::less_equal<const uint8_t*>()(track.begin(),
                                                      r.data.begin()) &&
                    std::less_equal<const uint8_t*>()(r.data.end(),
                                                      track.end()));
    }
    EXPECT_TRUE(in_a_track) << "LSN " << r.lsn;
  }
  for (const LogRecord& r : records) {
    d.Send(wire::Encode(wire::ReadLogReq{kClient, r.lsn}, d.next_rpc++));
    auto resp = wire::Decode<wire::ReadLogResp>(
        d.Last(wire::MessageType::kReadLogResp)->body);
    ASSERT_TRUE(resp.ok());
    ASSERT_FALSE(resp->records.empty());
    EXPECT_EQ(wire::ToLogRecord(resp->records.Share(resp->records.front())),
              r);
  }
}

TEST(LogServerTest, DownServerIgnoresTraffic) {
  RawDriver d;
  d.server->Crash();
  d.SendBatch(wire::MessageType::kForceLog, 1, {Rec(1, 1)});
  EXPECT_EQ(d.server->records_written().value(), 0u);
  EXPECT_EQ(d.Last(wire::MessageType::kNewHighLsn), nullptr);
}

TEST(LogServerTest, WriteOnceDiskModeWorks) {
  LogServerConfig cfg;
  cfg.disk.write_once = true;  // optical storage (Section 4.3)
  cfg.disk.track_bytes = 2048;
  cfg.flush_interval = 10 * sim::kMillisecond;
  RawDriver d(cfg);
  for (Lsn l = 1; l <= 30; ++l) {
    d.SendBatch(wire::MessageType::kForceLog, 1,
                {Rec(l, 1, true, std::string(100, 'w'))});
  }
  d.sim.RunFor(sim::kSecond);
  EXPECT_GT(d.server->tracks_written().value(), 0u);
  d.server->Crash();
  d.sim.RunFor(10 * sim::kMillisecond);
  d.server->Restart();
  EXPECT_EQ(d.server->IntervalsOf(kClient), (IntervalList{{1, 1, 30}}));
}

}  // namespace
}  // namespace dlog::server
