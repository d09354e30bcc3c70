#include "server/log_server.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

namespace dlog::server {

namespace {

/// Section 4.1: "two thousand instructions ... to process the log records
/// in each message and to copy them to low latency non volatile memory".
constexpr uint64_t kInstrPerMessage = 2000;

}  // namespace

Status LogServerConfig::Validate() const {
  if (cpu_mips <= 0) {
    return Status::InvalidArgument("cpu_mips must be > 0");
  }
  DLOG_RETURN_IF_ERROR(disk.Validate());
  if (nvram_bytes == 0) {
    return Status::InvalidArgument("nvram_bytes must be > 0");
  }
  if (flush_interval <= 0) {
    return Status::InvalidArgument("flush_interval must be > 0");
  }
  DLOG_RETURN_IF_ERROR(admission.Validate());
  return Status::OK();
}

LogServer::LogServer(sim::Scheduler* sim, const LogServerConfig& config)
    : sim_(sim), config_(config), admission_(config.admission) {
  DLOG_CHECK_OK(config.Validate());
  cpu_ = std::make_unique<sim::Cpu>(sim, config.cpu_mips);
  endpoint_ = std::make_unique<wire::Endpoint>(sim, cpu_.get(),
                                               config.node_id, config.wire);
  disk_ = std::make_unique<storage::SimDisk>(sim, config.disk);
  nvram_buffer_ = std::make_unique<storage::NvramQueue>(
      config.nvram_bytes, config.disk.track_bytes, kTrackOverhead);
  endpoint_->SetAcceptHandler(
      [this](wire::Connection* conn) { OnAccept(conn); });
  endpoint_->SetDatagramHandler(
      [this](net::NodeId src, const SharedBytes& payload) {
        OnDatagram(src, payload);
      });
}

LogServer::~LogServer() {
  if (flush_timer_ != 0) sim_->Cancel(flush_timer_);
}

void LogServer::AttachNetwork(net::Network* network) {
  constexpr size_t kNicRingSlots = 32;
  auto nic = std::make_unique<net::Nic>(sim_, kNicRingSlots);
  network->Attach(config_.node_id, nic.get());
  endpoint_->AttachNetwork(network, nic.get());
  networks_.push_back(network);
  nics_.push_back(std::move(nic));
}

storage::StableCell* LogServer::generator_cell(ClientId client) {
  return &generator_cells_[client];
}

void LogServer::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  trace_node_ = "server-" + std::to_string(config_.node_id);
}

void LogServer::RegisterMetrics(obs::MetricsRegistry* registry) const {
  const std::string node = "server-" + std::to_string(config_.node_id);
  const std::string prefix = node + "/log/";
  registry->RegisterCounter(prefix + "records_written", &records_written_);
  registry->RegisterCounter(prefix + "forces_acked", &forces_acked_);
  registry->RegisterCounter(prefix + "tracks_written", &tracks_written_);
  registry->RegisterCounter(prefix + "missing_interval_sent",
                            &missing_interval_sent_);
  registry->RegisterCounter(prefix + "writes_shed", &writes_shed_);
  registry->RegisterCounter(prefix + "read_rpcs", &read_rpcs_);
  registry->RegisterCounter(prefix + "records_truncated",
                            &records_truncated_);
  // Cumulative CPU busy time: windowed telemetry diffs this per sampling
  // window into a per-server utilization series — the online imbalance
  // signal, available with no profiler attached.
  registry->RegisterCounter(node + "/cpu/busy_ns", &cpu_->busy_ns());
  registry->RegisterTimeWeightedGauge(node + "/nvram/occupancy_bytes",
                                      &nvram_occupancy_);
  admission_.RegisterMetrics(registry, node + "/flow/");
}

void LogServer::NoteNvramLevel() {
  nvram_occupancy_.Set(sim_->Now(),
                       static_cast<double>(nvram_buffer_->used_bytes()));
}

namespace {

/// The order of LogServer::clients_: by client id.
bool IdBelow(const std::pair<ClientId, std::unique_ptr<ClientLogStore>>& entry,
             ClientId client) {
  return entry.first < client;
}

}  // namespace

ClientLogStore& LogServer::StoreOf(ClientId client) {
  auto it = std::lower_bound(clients_.begin(), clients_.end(), client,
                             IdBelow);
  if (it == clients_.end() || it->first != client) {
    it = clients_.emplace(
        it, client, std::make_unique<ClientLogStore>(client, &images_));
  }
  return *it->second;
}

const ClientLogStore* LogServer::FindStore(ClientId client) const {
  auto it = std::lower_bound(clients_.begin(), clients_.end(), client,
                             IdBelow);
  return it == clients_.end() || it->first != client ? nullptr
                                                     : it->second.get();
}

ClientLogStore* LogServer::FindStore(ClientId client) {
  return const_cast<ClientLogStore*>(std::as_const(*this).FindStore(client));
}

std::optional<RecordLocation> LogServer::Images::Append(
    ClientId client, std::span<const uint8_t> record) {
  storage::NvramQueue::Position at;
  const Status st = server_->nvram_buffer_->Append(
      kStreamEntryClientBytes + record.size(),
      [&](const std::shared_ptr<Bytes>& image) {
        AppendStreamEntry(image.get(), client, record);
      },
      &at);
  if (!st.ok()) return std::nullopt;
  return RecordLocation{at.track, static_cast<uint32_t>(at.offset)};
}

SharedBytes LogServer::Images::Image(uint64_t track) const {
  const storage::NvramQueue& nvram = *server_->nvram_buffer_;
  if (track >= nvram.first_track()) {
    const std::shared_ptr<Bytes>& image = nvram.image(track).bytes;
    return SharedBytes(image, 0, image->size());
  }
  Result<SharedBytes> written = server_->disk_->Peek(track);
  assert(written.ok());
  return *std::move(written);
}

double LogServer::NvramFraction() const {
  return static_cast<double>(nvram_buffer_->used_bytes()) /
         static_cast<double>(nvram_buffer_->capacity());
}

void LogServer::OnAccept(wire::Connection* conn) {
  conn->SetMessageHandler(
      [this, conn](const SharedBytes& payload) { OnMessage(conn, payload); });
}

void LogServer::Reply(wire::Connection* conn, Bytes message) {
  if (!up_ || conn == nullptr || conn->IsClosed()) return;
  conn->Send(std::move(message));
}

template <typename M>
void LogServer::Serve(const Incoming& in) {
  Result<M> msg = wire::Decode<M>(in.env.body);
  if (msg.ok()) Handle(in, *msg);
}

template <typename Req>
void LogServer::Answer(const Incoming& in, const Req&,
                       const typename Req::Reply& resp) {
  Reply(in.conn, wire::Encode(resp, in.env.rpc_id));
}

void LogServer::OnMessage(wire::Connection* conn,
                          const SharedBytes& payload) {
  if (!up_) return;
  Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
  if (!env.ok()) return;  // garbled packet: the medium is lossy anyway

  // Record-bearing messages cost the Section 4.1 processing budget; the
  // per-packet budget was already charged by the endpoint.
  uint64_t extra_instr = 0;
  switch (env->type) {
    case wire::MessageType::kWriteLog:
    case wire::MessageType::kForceLog:
    case wire::MessageType::kCopyLogReq:
      extra_instr = kInstrPerMessage;
      break;
    default:
      break;
  }

  const uint64_t generation = generation_;
  auto dispatch = [this, conn, env = *std::move(env), generation]() {
    if (generation != generation_ || !up_) return;
    const ReplyFn reply = [this, conn](Bytes message) {
      Reply(conn, std::move(message));
    };
    const Incoming in{env, conn, reply};
    switch (env.type) {
      case wire::MessageType::kWriteLog:
      case wire::MessageType::kForceLog:
        Serve<wire::RecordBatch>(in);
        break;
      case wire::MessageType::kNewInterval:
        Serve<wire::NewIntervalMsg>(in);
        break;
      case wire::MessageType::kTruncateLog:
        Serve<wire::TruncateLogMsg>(in);
        break;
      case wire::MessageType::kIntervalListReq:
        Serve<wire::IntervalListReq>(in);
        break;
      case wire::MessageType::kReadLogForwardReq:
      case wire::MessageType::kReadLogBackwardReq:
        Serve<wire::ReadLogReq>(in);
        break;
      case wire::MessageType::kCopyLogReq:
        Serve<wire::CopyLogReq>(in);
        break;
      case wire::MessageType::kInstallCopiesReq:
        Serve<wire::InstallCopiesReq>(in);
        break;
      case wire::MessageType::kGenReadReq:
        Serve<wire::GenReadReq>(in);
        break;
      case wire::MessageType::kGenWriteReq:
        Serve<wire::GenWriteReq>(in);
        break;
      default:
        break;  // responses and client-bound messages: not for us
    }
  };
  if (extra_instr > 0) {
    cpu_->Execute(extra_instr, std::move(dispatch));
  } else {
    dispatch();
  }
}

bool LogServer::ApplyRecord(ClientLogStore* store, ClientId client,
                            const wire::RecordView& record) {
  if (store->Contains(record.lsn, record.epoch)) {
    // Transport-level redelivery: already stored (and already in NVRAM
    // or on disk) — acknowledge progress without double-writing.
    return true;
  }
  if (!nvram_buffer_->HasRoom(kStreamEntryClientBytes + record.bytes.size())) {
    writes_shed_.Increment();
    return false;
  }
  // Out-of-order record: drop it. The client's own end-to-end
  // acknowledgment discipline recovers.
  if (!store->CheckAppend(record.lsn, record.epoch).ok()) return false;
  // One copy of its wire bytes, into the open track image, is all the
  // server keeps of the record: the arriving packet is not retained. (An
  // entry larger than a track could never be flushed, so it is dropped.)
  if (!store->Append(record)) return false;
  records_written_.Increment();
  bytes_logged_ += record.data().size();
  NoteNvramLevel();
  if (tracer_ != nullptr && current_batch_ctx_.valid()) {
    obs::SpanContext instant =
        tracer_->Instant("nvram.buffer", trace_node_, current_batch_ctx_);
    tracer_->AddArg(instant, "client", client);
    tracer_->AddArg(instant, "lsn", record.lsn);
    tracer_->AddArg(instant, "epoch", record.epoch);
    record_ctx_[{client, record.lsn, record.epoch}] = current_batch_ctx_;
  }
  ScheduleFlushTimer();
  return true;
}

void LogServer::ApplyHeld(ClientLogStore* store, ClientId client) {
  while (std::optional<SharedBytes> held = store->TakeNextHeld()) {
    if (!ApplyRecord(store, client, wire::RecordAt(held->data()))) break;
  }
}

void LogServer::OnDatagram(net::NodeId src, const SharedBytes& payload) {
  if (!up_) return;
  Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
  if (!env.ok()) return;
  // Only the asynchronous record-stream messages may travel as
  // datagrams; everything else needs a connection.
  if (env->type != wire::MessageType::kWriteLog &&
      env->type != wire::MessageType::kForceLog &&
      env->type != wire::MessageType::kNewInterval) {
    return;
  }
  const uint64_t generation = generation_;
  cpu_->Execute(kInstrPerMessage, [this, src, env = *std::move(env),
                                    generation]() {
    if (generation != generation_ || !up_) return;
    const ReplyFn reply = [this, src](Bytes message) {
      if (up_) endpoint_->SendDatagram(src, message);
    };
    const Incoming in{env, nullptr, reply};
    if (env.type == wire::MessageType::kNewInterval) {
      Serve<wire::NewIntervalMsg>(in);
    } else {
      Serve<wire::RecordBatch>(in);
    }
  });
}

void LogServer::Handle(const Incoming& in, const wire::RecordBatch& batch) {
  // Every record's bounds were checked before any is applied; the records
  // are read in place from the packet.
  const ClientId client = batch.client;
  const bool force = in.env.type == wire::MessageType::kForceLog;
  const ReplyFn& reply = in.reply;

  // The batch arrived: close the sender's wire.send span (the shared
  // tracer makes the client-minted id resolvable here).
  const obs::SpanContext batch_ctx{batch.trace, batch.span};
  if (tracer_ != nullptr) tracer_->EndSpan(batch_ctx);

  // "They are free to ignore ForceLog and WriteLog messages if they
  // become too heavily loaded." With admission control enabled the
  // refusal is explicit: an Overloaded reply carrying a retry-after hint
  // and this client's stored high LSN, so the client backs off without
  // miscounting the server's progress. Disabled, the batch is shed
  // silently (the legacy behavior).
  const flow::AdmissionController::Decision decision =
      admission_.Admit(NvramFraction());
  if (!decision.admit) {
    writes_shed_.Increment();
    if (config_.admission.enabled) {
      wire::OverloadedMsg shed;
      shed.client = client;
      shed.shed_type = static_cast<uint8_t>(
          force ? wire::MessageType::kForceLog : wire::MessageType::kWriteLog);
      const ClientLogStore* known = FindStore(client);
      shed.high_lsn = known == nullptr ? kNoLsn : known->HighestLsn();
      shed.retry_after_us = decision.retry_after / sim::kMicrosecond;
      admission_.overload_replies().Increment();
      if (tracer_ != nullptr) {
        // Root the instant when the batch carried no trace context (sheds
        // mostly hit background streaming, which is untraced).
        obs::SpanContext instant =
            batch_ctx.valid()
                ? tracer_->Instant("flow.shed", trace_node_, batch_ctx)
                : tracer_->StartTrace("flow.shed", trace_node_);
        tracer_->AddArg(instant, "client", shed.client);
        tracer_->AddArg(instant, "retry_after_us", shed.retry_after_us);
        tracer_->EndSpan(instant);
      }
      reply(wire::Encode(shed));
    }
    MaybeFlush();
    return;
  }

  current_batch_ctx_ = batch_ctx;
  ClientLogStore& store = StoreOf(client);
  for (const wire::RecordView record : batch.records) {
    switch (store.Place(record.lsn, record.epoch)) {
      case ClientLogStore::Placement::kExtend:
        ApplyRecord(&store, client, record);
        ApplyHeld(&store, client);
        break;
      case ClientLogStore::Placement::kTail:
        ApplyRecord(&store, client, record);
        break;
      case ClientLogStore::Placement::kHold:
        store.Hold(batch.records.Share(record));
        break;
      case ClientLogStore::Placement::kStale:
        break;
    }
  }

  if (const auto gap = store.Gap()) {
    // "It notifies the client of the missing interval immediately."
    missing_interval_sent_.Increment();
    reply(wire::Encode(wire::MissingIntervalMsg{gap->first, gap->second}));
  }

  if (force) {
    if (config_.ack_after_disk) {
      // No-NVRAM ablation: the acknowledgment waits for the disk.
      pending_acks_.push_back(PendingAck{reply, client, batch_ctx});
      FlushNow();
    } else {
      // Records are stable the moment they reach NVRAM, so the force is
      // acknowledged without waiting for the disk.
      wire::NewHighLsnMsg ack;
      ack.new_high_lsn = store.HighestLsn();
      forces_acked_.Increment();
      if (tracer_ != nullptr) {
        obs::SpanContext instant =
            tracer_->Instant("force.ack", trace_node_, batch_ctx);
        tracer_->AddArg(instant, "lsn", ack.new_high_lsn);
      }
      reply(wire::Encode(ack));
    }
  }

  current_batch_ctx_ = {};
  MaybeFlush();
}

void LogServer::Handle(const Incoming&, const wire::NewIntervalMsg& msg) {
  ClientLogStore& store = StoreOf(msg.client);
  const std::optional<SharedBytes> start =
      store.Announce(msg.epoch, msg.starting_lsn);
  if (start.has_value() &&
      ApplyRecord(&store, msg.client, wire::RecordAt(start->data()))) {
    ApplyHeld(&store, msg.client);
  }
  MaybeFlush();
}

void LogServer::Handle(const Incoming&, const wire::TruncateLogMsg& msg) {
  Lsn& mark = truncate_marks_[msg.client];
  mark = std::max(mark, msg.below);
  ClientLogStore* store = FindStore(msg.client);
  if (store == nullptr) return;
  // The discarded records' disk tracks leave with their index entries
  // (the stream itself is append-only; space reclamation would be a
  // compaction/offline-spool pass outside this model).
  records_truncated_.Increment(store->TruncateBelow(msg.below));
}

size_t LogServer::LiveRecordsOf(ClientId client) const {
  const ClientLogStore* store = FindStore(client);
  return store == nullptr ? 0 : store->record_count();
}

void LogServer::Handle(const Incoming& in, const wire::IntervalListReq& req) {
  wire::IntervalListResp resp;
  if (const ClientLogStore* store = FindStore(req.client)) {
    resp.intervals = store->Intervals();
  }
  Answer(in, req, resp);
}

void LogServer::WithReadLatency(ClientId client, Lsn lsn,
                                std::function<void()> fn) {
  const ClientLogStore* store = FindStore(client);
  const std::optional<uint64_t> track =
      store == nullptr ? std::nullopt : store->TrackOf(lsn);
  if (!track.has_value() || *track >= nvram_buffer_->first_track()) {
    fn();  // in NVRAM (or absent): no disk motion
    return;
  }
  const uint64_t generation = generation_;
  disk_->ReadTrack(*track, [this, generation, fn = std::move(fn)](
                               const Result<SharedBytes>& r) {
    (void)r;
    if (generation != generation_ || !up_) return;
    fn();
  });
}

void LogServer::Handle(const Incoming& in, const wire::ReadLogReq& req) {
  read_rpcs_.Increment();

  wire::Connection* conn = in.conn;
  const ClientId client = req.client;
  const Lsn start = req.lsn;
  const bool forward = in.env.type == wire::MessageType::kReadLogForwardReq;
  const uint64_t rpc_id = in.env.rpc_id;
  // Max payload bytes packed into a ReadLogForward/Backward response.
  constexpr size_t kReadReplyBudgetBytes = 1200;

  WithReadLatency(client, start, [this, conn, client, start, forward,
                                  rpc_id]() {
    // The stored wire bytes of the records to pack, views of their track
    // images, copied as they are into the reply.
    std::vector<std::span<const uint8_t>> records;
    size_t record_bytes = 0;
    if (const ClientLogStore* store = FindStore(client)) {
      record_bytes =
          store->ReadReply(start, forward, kReadReplyBudgetBytes, &records);
    }
    wire::ReadLogResp resp;
    if (records.empty()) {
      // The paper's server "does not respond to ServerReadLog requests
      // for records that it does not store"; we respond with a NotFound
      // status instead so the client can distinguish a missing record
      // from a dead server. (Documented deviation.)
      resp.status = wire::RpcStatus::kNotFound;
    }
    wire::RecordBatchWriter reply(resp, rpc_id, record_bytes);
    for (const std::span<const uint8_t> r : records) reply.Add(r);
    Reply(conn, reply.Take());
  });
}

void LogServer::Handle(const Incoming& in, const wire::CopyLogReq& req) {
  wire::CopyLogResp resp;
  ClientLogStore& store = StoreOf(req.client);
  for (const wire::RecordView record : req.records) {
    // A copy must match the call's epoch, and fit in one track so that
    // InstallCopies can always buffer it.
    if (record.epoch != req.epoch ||
        kTrackOverhead + kStreamEntryClientBytes + record.bytes.size() >
            config_.disk.track_bytes) {
      resp.status = wire::RpcStatus::kError;
      break;
    }
    // Kept as a view of the packet until InstallCopies writes it.
    if (!store.StageCopy(req.records.Share(record)).ok()) {
      resp.status = wire::RpcStatus::kError;
      break;
    }
  }
  Answer(in, req, resp);
}

void LogServer::Handle(const Incoming& in,
                       const wire::InstallCopiesReq& req) {
  wire::InstallCopiesResp resp;
  ClientLogStore& store = StoreOf(req.client);

  if (nvram_buffer_->used_bytes() + store.StagedBytes(req.epoch) >
      nvram_buffer_->capacity()) {
    resp.status = wire::RpcStatus::kOverloaded;
    Answer(in, req, resp);
    return;
  }

  // All or nothing: a conflicting copy installs none, so nothing reaches
  // the index that is not also in NVRAM.
  Result<std::vector<SharedBytes>> installed =
      store.InstallCopies(req.epoch);
  if (!installed.ok()) {
    resp.status = wire::RpcStatus::kError;
  } else {
    for (const SharedBytes& r : *installed) {
      records_written_.Increment();
      bytes_logged_ += r.size() - wire::kRecordFixedBytes;
    }
    NoteNvramLevel();
    ScheduleFlushTimer();
  }
  Answer(in, req, resp);
  MaybeFlush();
}

void LogServer::Handle(const Incoming& in, const wire::GenReadReq& req) {
  wire::GenReadResp resp;
  resp.value = generator_cells_[req.client].Read();
  Answer(in, req, resp);
}

void LogServer::Handle(const Incoming& in, const wire::GenWriteReq& req) {
  generator_cells_[req.client].Write(req.value);
  Answer(in, req, wire::GenWriteResp{});
}

void LogServer::ScheduleFlushTimer() {
  // The timer runs only while records are buffered, so an idle server
  // leaves the event queue empty (and simulations can run to quiescence).
  if (flush_timer_ != 0 || !up_ || nvram_buffer_->empty()) return;
  flush_timer_ = sim_->After(config_.flush_interval, [this]() {
    flush_timer_ = 0;
    if (up_) {
      MaybeFlush();
      ScheduleFlushTimer();
    }
  });
}

void LogServer::MaybeFlush() {
  if (nvram_buffer_->empty()) force_partial_flush_ = false;
  if (!up_ || flush_in_progress_ || nvram_buffer_->empty()) return;

  // Only a full track goes out eagerly; the periodic timer
  // (flush_timer_ == 0 while its callback runs) and FlushNow() flush
  // partial tracks. "Full" means a later image exists: an entry did not
  // fit, sealed the front image and opened the next. A byte-count
  // threshold would leave the front image permanently under it whenever
  // its entries happen to end just short, stalling the drain at one
  // timer flush per interval.
  const bool track_full = nvram_buffer_->images().size() > 1;
  const bool timer_due = flush_timer_ == 0;
  if (!track_full && !timer_due && !force_partial_flush_) return;
  // A partly full image goes out: seal it into a buffer of its own size.
  if (!track_full) nvram_buffer_->Seal();

  flush_in_progress_ = true;
  const uint64_t track = next_track_++;
  const uint64_t generation = generation_;
  // The front image becomes the track in place. From here on the disk
  // and the stores' reads share it, and nothing writes to it again (a
  // failed or interrupted write re-packs the entries into new images).
  storage::NvramQueue::Image& front = nvram_buffer_->front();
  assert(front.track == track);
  FinishTrackImage(front.bytes.get(), front.entries);
  std::shared_ptr<const Bytes> image = front.bytes;
  const uint32_t count = front.entries;

  // One "track.write" span per distinct trace whose records this track
  // makes disk-resident; the buffering-time contexts are consumed here.
  std::vector<obs::SpanContext> track_spans;
  if (tracer_ != nullptr) {
    std::map<obs::TraceId, bool> seen;
    for (const StreamEntryRef& e : TrackView(*image, count)) {
      auto it = record_ctx_.find({e.client, e.record.lsn, e.record.epoch});
      if (it == record_ctx_.end()) continue;
      const obs::SpanContext ctx = it->second;
      record_ctx_.erase(it);
      if (!seen.insert({ctx.trace, true}).second) continue;
      obs::SpanContext span =
          tracer_->StartSpan("track.write", trace_node_, ctx);
      tracer_->AddArg(span, "track", track);
      track_spans.push_back(span);
    }
  }

  // Section 4.1: "writing a track to disk requires an additional two
  // thousand instructions".
  constexpr uint64_t kInstrPerTrackWrite = 2000;
  cpu_->Execute(kInstrPerTrackWrite, [this, generation, track,
                                      image = std::move(image), count,
                                      track_spans =
                                          std::move(track_spans)]() mutable {
    if (generation != generation_ || !up_) return;
    SharedBytes data(image, 0, image->size());
    disk_->WriteTrack(
        track, std::move(data),
        [this, generation, track, image = std::move(image), count,
         track_spans = std::move(track_spans)](Status st) {
          if (generation != generation_ || !up_) return;
          flush_in_progress_ = false;
          if (tracer_ != nullptr) {
            for (const obs::SpanContext& span : track_spans) {
              tracer_->EndSpan(span);
            }
          }
          if (!st.ok()) {
            // Write-once conflict etc.: the entries stay in NVRAM, packed
            // greedily from the front again.
            RepackNvram();
            return;
          }
          tracks_written_.Increment();
          nvram_buffer_->PopFront();
          NoteNvramLevel();
          if (!relocate_on_flush_.empty()) {
            RelocateToTrack(track, TrackView(*image, count));
          }
          if (config_.ack_after_disk && nvram_buffer_->empty()) {
            std::vector<PendingAck> acks = std::move(pending_acks_);
            pending_acks_.clear();
            for (const PendingAck& pa : acks) {
              wire::NewHighLsnMsg ack;
              ack.new_high_lsn = StoreOf(pa.client).HighestLsn();
              forces_acked_.Increment();
              if (tracer_ != nullptr) {
                obs::SpanContext instant =
                    tracer_->Instant("force.ack", trace_node_, pa.ctx);
                tracer_->AddArg(instant, "lsn", ack.new_high_lsn);
              }
              pa.reply(wire::Encode(ack));
            }
          }
          MaybeFlush();       // more may have accumulated
          ScheduleFlushTimer();  // partial remainder flushes on the timer
        });
  });
}

void LogServer::RelocateToTrack(uint64_t track, const TrackView& entries) {
  for (const StreamEntryRef& e : entries) {
    if (relocate_on_flush_.empty()) return;
    if (relocate_on_flush_.erase({e.client, e.record.lsn, e.record.epoch}) >
        0) {
      StoreOf(e.client).Relocate(e.record.lsn, e.record.epoch,
                                 {track, static_cast<uint32_t>(e.offset)});
    }
  }
}

void LogServer::RepackNvram() {
  // Which buffered entries are their record's read copy, found while the
  // images still hold them: a record read from another copy (see
  // relocate_on_flush_) stays there.
  std::vector<bool> read_copy;
  for (const storage::NvramQueue::Image& image : nvram_buffer_->images()) {
    for (const StreamEntryRef& e : TrackView(*image.bytes, image.entries)) {
      const ClientLogStore* store = FindStore(e.client);
      read_copy.push_back(
          store != nullptr &&
          store->LocationOf(e.record.lsn, e.record.epoch) ==
              RecordLocation{image.track, static_cast<uint32_t>(e.offset)});
    }
  }
  // A failed write burned its track number: the images are numbered on
  // from the next one.
  struct Move {
    ClientId client;
    Lsn lsn;
    Epoch epoch;
    RecordLocation to;
  };
  std::vector<Move> moves;
  size_t i = 0;
  nvram_buffer_->Repack(
      &StreamEntrySizeAt, next_track_,
      [&](storage::NvramQueue::Position, storage::NvramQueue::Position to,
          std::span<const uint8_t> entry) {
        if (!read_copy[i++]) return;
        const StreamEntryRef e = StreamEntryAt(entry, 0);
        moves.push_back({e.client, e.record.lsn, e.record.epoch,
                         {to.track, static_cast<uint32_t>(to.offset)}});
      });
  // Last to first: each record moved is then the last of its run, so no
  // run is walked in the images the repack replaced.
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    FindStore(it->client)->Relocate(it->lsn, it->epoch, it->to);
  }
}

void LogServer::FlushNow() {
  force_partial_flush_ = true;
  MaybeFlush();
}

void LogServer::Crash() {
  if (!up_) return;
  up_ = false;
  ++generation_;
  endpoint_->Crash();
  for (auto& nic : nics_) nic->SetUp(false);
  disk_->Crash();
  clients_.clear();
  relocate_on_flush_.clear();
  pending_acks_.clear();
  record_ctx_.clear();
  current_batch_ctx_ = {};
  flush_in_progress_ = false;
  if (flush_timer_ != 0) {
    sim_->Cancel(flush_timer_);
    flush_timer_ = 0;
  }
}

void LogServer::WipeStorage() {
  // The whole node is lost: both stable media fail together. Quorum
  // intersection tolerates a minority of generator representatives
  // losing state.
  FailDisk();
  LoseNvram();
}

void LogServer::FailDisk() {
  Crash();
  disk_->WipeMedia();
}

void LogServer::LoseNvram() {
  Crash();
  nvram_buffer_ = std::make_unique<storage::NvramQueue>(
      config_.nvram_bytes, config_.disk.track_bytes, kTrackOverhead);
  NoteNvramLevel();
  truncate_marks_.clear();
  generator_cells_.clear();
}

void LogServer::Restart() {
  if (up_) return;
  up_ = true;
  ++generation_;
  for (auto& nic : nics_) nic->SetUp(true);
  RebuildFromStableStorage();
  ScheduleFlushTimer();
  MaybeFlush();
}

void LogServer::RebuildFromStableStorage() {
  clients_.clear();
  relocate_on_flush_.clear();

  // Scan the log data stream from the start ("a server must scan the end
  // of the log data stream to find the ends of active intervals"; we keep
  // the whole-volume scan, which also rebuilds the record index this
  // simulation keeps in memory in place of on-demand disk reads). A record
  // found in several tracks keeps its first position in write order and
  // reads from the latest.
  next_track_ = ScanDisk([this](uint64_t track, const TrackView& entries) {
    for (const StreamEntryRef& e : entries) {
      ClientLogStore& store = StoreOf(e.client);
      const RecordLocation at{track, static_cast<uint32_t>(e.offset)};
      if (!store.Recover(e.record, at)) {
        store.Relocate(e.record.lsn, e.record.epoch, at);
      }
    }
  });

  // The NVRAM group buffer survived; replay it after the disk contents.
  // A flush the crash interrupted may have sealed a partly full image, so
  // its entries are first packed greedily from the front again, into
  // images numbered from the next free track.
  nvram_buffer_->Repack(&StreamEntrySizeAt, next_track_);
  for (const storage::NvramQueue::Image& image : nvram_buffer_->images()) {
    for (const StreamEntryRef& e : TrackView(*image.bytes, image.entries)) {
      const RecordLocation at{image.track, static_cast<uint32_t>(e.offset)};
      if (!StoreOf(e.client).Recover(e.record, at)) {
        relocate_on_flush_.insert({e.client, e.record.lsn, e.record.epoch});
      }
    }
  }

  // Reapply the stable truncation marks: the append-only stream scan
  // resurrects discarded records otherwise.
  for (const auto& [client, mark] : truncate_marks_) {
    if (ClientLogStore* store = FindStore(client)) {
      (void)store->TruncateBelow(mark);
    }
  }
}

IntervalList LogServer::IntervalsOf(ClientId client) const {
  const ClientLogStore* store = FindStore(client);
  return store == nullptr ? IntervalList{} : store->Intervals();
}

std::vector<LogRecord> LogServer::RecordsOf(ClientId client) const {
  const ClientLogStore* store = FindStore(client);
  return store == nullptr ? std::vector<LogRecord>{} : store->Records();
}

uint64_t LogServer::ScanDisk(
    const std::function<void(uint64_t, const TrackView&)>& fn) const {
  uint64_t track = 0;
  for (; disk_->IsWritten(track); ++track) {
    Result<SharedBytes> raw = disk_->Peek(track);
    assert(raw.ok());
    Result<TrackView> entries = TrackView::Parse({raw->data(), raw->size()});
    if (entries.ok()) {
      fn(track, *entries);
    } else if (!disk_->config().write_once) {
      break;  // torn/corrupt track terminates the stream
    }
    // A write-once track that fails is burned: the flush that met it
    // moved on to the next track, so the stream continues past it.
  }
  return track;
}

std::optional<forest::AppendForest> LogServer::ForestOf(
    ClientId client) const {
  if (FindStore(client) == nullptr) return std::nullopt;
  // Each track adds the client's LSN range in it. Only the part of the
  // range past the forest's last node is new: a track of recovery copies
  // below it adds nothing.
  forest::AppendForest forest;
  ScanDisk([client, &forest](uint64_t track, const TrackView& entries) {
    std::optional<std::pair<Lsn, Lsn>> range;
    for (const StreamEntryRef& e : entries) {
      if (e.client != client) continue;
      const Lsn lsn = e.record.lsn;
      range = range.has_value()
                  ? std::make_pair(std::min(range->first, lsn),
                                   std::max(range->second, lsn))
                  : std::make_pair(lsn, lsn);
    }
    if (!range.has_value()) return;
    auto [low, high] = *range;
    if (!forest.empty()) {
      const Lsn prev_high = forest.node(forest.size() - 1).key_high;
      if (high <= prev_high) return;
      low = prev_high + 1;
    }
    (void)forest.Append(low, high, track);
  });
  return forest;
}

}  // namespace dlog::server
