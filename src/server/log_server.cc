#include "server/log_server.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dlog::server {

Status LogServerConfig::Validate() const {
  if (cpu_mips <= 0) {
    return Status::InvalidArgument("cpu_mips must be > 0");
  }
  if (nic_ring_slots == 0) {
    return Status::InvalidArgument("nic_ring_slots must be > 0");
  }
  DLOG_RETURN_IF_ERROR(disk.Validate());
  if (nvram_bytes == 0) {
    return Status::InvalidArgument("nvram_bytes must be > 0");
  }
  if (flush_interval <= 0) {
    return Status::InvalidArgument("flush_interval must be > 0");
  }
  DLOG_RETURN_IF_ERROR(admission.Validate());
  if (max_pending_per_client == 0) {
    return Status::InvalidArgument("max_pending_per_client must be > 0");
  }
  if (read_reply_budget_bytes == 0) {
    return Status::InvalidArgument("read_reply_budget_bytes must be > 0");
  }
  return Status::OK();
}

LogServer::LogServer(sim::Scheduler* sim, const LogServerConfig& config)
    : sim_(sim), config_(config), admission_(config.admission) {
  DLOG_CHECK_OK(config.Validate());
  cpu_ = std::make_unique<sim::Cpu>(sim, config.cpu_mips, "server-cpu");
  endpoint_ = std::make_unique<wire::Endpoint>(sim, cpu_.get(),
                                               config.node_id, config.wire);
  disk_ = std::make_unique<storage::SimDisk>(sim, config.disk, "log-disk");
  nvram_buffer_ = std::make_unique<storage::NvramQueue>(config.nvram_bytes);
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
  auto nic = std::make_unique<net::Nic>(sim_, config_.nic_ring_slots);
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

LogServer::ClientState& LogServer::StateOf(ClientId client) {
  return clients_[client];
}

double LogServer::NvramFraction() const {
  return static_cast<double>(nvram_buffer_->used_bytes()) /
         static_cast<double>(nvram_buffer_->capacity());
}

size_t LogServer::FlushBacklogTracks() const {
  const size_t capacity = config_.disk.track_bytes - kTrackOverhead;
  if (capacity == 0) return 0;
  return nvram_buffer_->used_bytes() / capacity;
}

void LogServer::OnAccept(wire::Connection* conn) {
  conn->SetMessageHandler(
      [this, conn](const SharedBytes& payload) { OnMessage(conn, payload); });
}

void LogServer::Reply(wire::Connection* conn, Bytes message) {
  if (!up_ || conn == nullptr || conn->IsClosed()) return;
  conn->Send(std::move(message));
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
      extra_instr = config_.instr_per_message;
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
    switch (env.type) {
      case wire::MessageType::kWriteLog:
        HandleRecords(reply, env, /*force=*/false);
        break;
      case wire::MessageType::kForceLog:
        HandleRecords(reply, env, /*force=*/true);
        break;
      case wire::MessageType::kNewInterval:
        HandleNewInterval(env);
        break;
      case wire::MessageType::kTruncateLog:
        HandleTruncate(env);
        break;
      case wire::MessageType::kIntervalListReq:
        HandleIntervalList(conn, env);
        break;
      case wire::MessageType::kReadLogForwardReq:
        HandleReadLog(conn, env, /*forward=*/true);
        break;
      case wire::MessageType::kReadLogBackwardReq:
        HandleReadLog(conn, env, /*forward=*/false);
        break;
      case wire::MessageType::kCopyLogReq:
        HandleCopyLog(conn, env);
        break;
      case wire::MessageType::kInstallCopiesReq:
        HandleInstallCopies(conn, env);
        break;
      case wire::MessageType::kGenReadReq:
        HandleGenRead(conn, env);
        break;
      case wire::MessageType::kGenWriteReq:
        HandleGenWrite(conn, env);
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

bool LogServer::ApplyRecord(ClientState* state, ClientId client,
                            const LogRecord& record) {
  if (state->store.Contains(record.lsn, record.epoch)) {
    // Transport-level redelivery: already stored (and already in NVRAM
    // or on disk) — acknowledge progress without double-writing.
    return true;
  }
  const StreamEntry entry{client, record};
  Bytes encoded = EncodeStreamEntry(entry);
  if (nvram_buffer_->used_bytes() + encoded.size() >
      nvram_buffer_->capacity()) {
    writes_shed_.Increment();
    return false;
  }
  Status st = state->store.Write(record);
  if (!st.ok()) {
    // Out-of-order or conflicting record: drop it. The client's own
    // end-to-end acknowledgment discipline recovers.
    return false;
  }
  Status nv = nvram_buffer_->Append(std::move(encoded));
  assert(nv.ok());
  (void)nv;
  records_written_.Increment();
  bytes_logged_ += record.data.size();
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

void LogServer::DrainPending(ClientState* state, ClientId client) {
  while (!state->pending.empty()) {
    auto it = state->pending.begin();
    if (it->first <= state->store.HighestLsn()) {
      // Arrived via another path meanwhile.
      state->pending.erase(it);
      continue;
    }
    if (it->first != state->store.ExpectedNextLsn()) break;
    const LogRecord record = it->second;
    state->pending.erase(it);
    if (!ApplyRecord(state, client, record)) break;
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
  cpu_->Execute(config_.instr_per_message, [this, src,
                                            env = *std::move(env),
                                            generation]() {
    if (generation != generation_ || !up_) return;
    if (env.type == wire::MessageType::kNewInterval) {
      HandleNewInterval(env);
      return;
    }
    const ReplyFn reply = [this, src](Bytes message) {
      if (up_) endpoint_->SendDatagram(src, message);
    };
    HandleRecords(reply, env,
                  /*force=*/env.type == wire::MessageType::kForceLog);
  });
}

void LogServer::HandleRecords(const ReplyFn& reply,
                              const wire::Envelope& env, bool force) {
  Result<wire::RecordBatch> batch = wire::DecodeRecordBatch(env.body);
  if (!batch.ok()) return;

  // The batch arrived: close the sender's wire.send span (the shared
  // tracer makes the client-minted id resolvable here).
  const obs::SpanContext batch_ctx{batch->trace, batch->span};
  if (tracer_ != nullptr) tracer_->EndSpan(batch_ctx);

  // "They are free to ignore ForceLog and WriteLog messages if they
  // become too heavily loaded." With admission control enabled the
  // refusal is explicit: an Overloaded reply carrying a retry-after hint
  // and this client's stored high LSN, so the client backs off without
  // miscounting the server's progress. Disabled, the batch is shed
  // silently (the legacy behavior).
  const flow::AdmissionController::Decision decision =
      admission_.Admit(NvramFraction(), FlushBacklogTracks());
  if (!decision.admit) {
    writes_shed_.Increment();
    if (config_.admission.enabled) {
      wire::OverloadedMsg shed;
      shed.client = batch->client;
      shed.shed_type = static_cast<uint8_t>(
          force ? wire::MessageType::kForceLog : wire::MessageType::kWriteLog);
      auto it = clients_.find(batch->client);
      shed.high_lsn =
          it == clients_.end() ? kNoLsn : it->second.store.HighestLsn();
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
      reply(wire::EncodeOverloaded(shed));
    }
    MaybeFlush();
    return;
  }

  current_batch_ctx_ = batch_ctx;
  ClientState& state = StateOf(batch->client);
  // The decoded batch is this handler's own: order it in place.
  std::sort(batch->records.begin(), batch->records.end(),
            [](const LogRecord& a, const LogRecord& b) {
              if (a.lsn != b.lsn) return a.lsn < b.lsn;
              return a.epoch < b.epoch;
            });

  for (const LogRecord& record : batch->records) {
    const Lsn high = state.store.HighestLsn();
    if (state.store.record_count() == 0) {
      // First contact: anything starts the stream.
      ApplyRecord(&state, batch->client, record);
      continue;
    }
    if (record.lsn <= high) {
      // Redelivery or a recovery-style overwrite of the tail record;
      // ClientLogStore accepts the legal cases idempotently.
      if (record.lsn == high) ApplyRecord(&state, batch->client, record);
      continue;
    }
    const bool contiguous = record.lsn == state.store.ExpectedNextLsn();
    const bool new_epoch = record.epoch > state.store.TailEpoch();
    bool announced = false;
    if (state.allowed_start.has_value() &&
        state.allowed_start->first == record.epoch &&
        state.allowed_start->second == record.lsn) {
      announced = true;
      state.allowed_start.reset();
    }
    if (contiguous || new_epoch || announced) {
      ApplyRecord(&state, batch->client, record);
      DrainPending(&state, batch->client);
    } else {
      // Same-epoch gap: hold the record and prompt the client.
      if (state.pending.size() < config_.max_pending_per_client) {
        state.pending[record.lsn] = record;
      }
    }
  }

  if (!state.pending.empty()) {
    // "It notifies the client of the missing interval immediately."
    wire::MissingIntervalMsg miss;
    miss.low = state.store.ExpectedNextLsn();
    miss.high = state.pending.begin()->first - 1;
    if (miss.low <= miss.high) {
      missing_interval_sent_.Increment();
      reply(wire::EncodeMissingInterval(miss));
    }
  }

  if (force) {
    if (config_.ack_after_disk) {
      // No-NVRAM ablation: the acknowledgment waits for the disk.
      pending_acks_.push_back(PendingAck{reply, batch->client, batch_ctx});
      FlushNow();
    } else {
      // Records are stable the moment they reach NVRAM, so the force is
      // acknowledged without waiting for the disk.
      wire::NewHighLsnMsg ack;
      ack.new_high_lsn = state.store.HighestLsn();
      forces_acked_.Increment();
      if (tracer_ != nullptr) {
        obs::SpanContext instant =
            tracer_->Instant("force.ack", trace_node_, batch_ctx);
        tracer_->AddArg(instant, "lsn", ack.new_high_lsn);
      }
      reply(wire::EncodeNewHighLsn(ack));
    }
  }

  current_batch_ctx_ = {};
  MaybeFlush();
}

void LogServer::HandleNewInterval(const wire::Envelope& env) {
  Result<wire::NewIntervalMsg> msg = wire::DecodeNewInterval(env.body);
  if (!msg.ok()) return;
  ClientState& state = StateOf(msg->client);
  // The skipped records live elsewhere; forget anything below the new
  // start and accept the new sequence.
  state.pending.erase(state.pending.begin(),
                      state.pending.lower_bound(msg->starting_lsn));
  state.allowed_start = {msg->epoch, msg->starting_lsn};
  // The announced record may already be waiting in the reorder buffer.
  auto it = state.pending.find(msg->starting_lsn);
  if (it != state.pending.end() && it->second.epoch == msg->epoch) {
    const LogRecord record = it->second;
    state.pending.erase(it);
    state.allowed_start.reset();
    if (ApplyRecord(&state, msg->client, record)) {
      DrainPending(&state, msg->client);
    }
  }
  MaybeFlush();
}

void LogServer::HandleTruncate(const wire::Envelope& env) {
  Result<wire::TruncateLogMsg> msg = wire::DecodeTruncateLog(env.body);
  if (!msg.ok()) return;
  Lsn& mark = truncate_marks_[msg->client];
  mark = std::max(mark, msg->below);
  auto it = clients_.find(msg->client);
  if (it == clients_.end()) return;
  // The discarded records' disk tracks leave with their index entries
  // (the stream itself is append-only; space reclamation would be a
  // compaction/offline-spool pass outside this model).
  records_truncated_.Increment(it->second.store.TruncateBelow(msg->below));
}

size_t LogServer::LiveRecordsOf(ClientId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  return it->second.store.record_count();
}

void LogServer::HandleIntervalList(wire::Connection* conn,
                                   const wire::Envelope& env) {
  Result<wire::IntervalListReq> req = wire::DecodeIntervalListReq(env.body);
  if (!req.ok()) return;
  wire::IntervalListResp resp;
  auto it = clients_.find(req->client);
  if (it != clients_.end()) resp.intervals = it->second.store.Intervals();
  Reply(conn, wire::EncodeIntervalListResp(resp, env.rpc_id));
}

void LogServer::WithReadLatency(ClientId client, Lsn lsn,
                                std::function<void()> fn) {
  auto it = clients_.find(client);
  const std::optional<uint64_t> track =
      it == clients_.end() ? std::nullopt : it->second.store.ReadTrack(lsn);
  if (!track.has_value()) {
    fn();  // in NVRAM (or absent): no disk motion
    return;
  }
  const uint64_t generation = generation_;
  disk_->ReadTrack(*track, [this, generation, fn = std::move(fn)](
                               const Result<Bytes>& r) {
    (void)r;
    if (generation != generation_ || !up_) return;
    fn();
  });
}

void LogServer::HandleReadLog(wire::Connection* conn,
                              const wire::Envelope& env, bool forward) {
  Result<wire::ReadLogReq> req = wire::DecodeReadLogReq(env.body);
  if (!req.ok()) return;
  read_rpcs_.Increment();

  const ClientId client = req->client;
  const Lsn start = req->lsn;
  const uint64_t rpc_id = env.rpc_id;

  WithReadLatency(client, start, [this, conn, client, start, forward,
                                  rpc_id]() {
    wire::ReadLogResp resp;
    auto it = clients_.find(client);
    const ClientLogStore* store =
        it != clients_.end() ? &it->second.store : nullptr;

    size_t budget = config_.read_reply_budget_bytes;
    Lsn lsn = start;
    while (store != nullptr) {
      Result<LogRecord> rec = store->Read(lsn);
      if (!rec.ok()) break;
      const size_t cost = wire::EncodedRecordSize(*rec);
      if (!resp.records.empty() && cost > budget) break;
      resp.records.push_back(*std::move(rec));
      budget = cost > budget ? 0 : budget - cost;
      if (forward) {
        ++lsn;
      } else {
        if (lsn == 1) break;
        --lsn;
      }
    }
    if (resp.records.empty()) {
      // The paper's server "does not respond to ServerReadLog requests
      // for records that it does not store"; we respond with a NotFound
      // status instead so the client can distinguish a missing record
      // from a dead server. (Documented deviation.)
      resp.status = wire::RpcStatus::kNotFound;
    }
    Reply(conn, wire::EncodeReadLogResp(resp, rpc_id));
  });
}

void LogServer::HandleCopyLog(wire::Connection* conn,
                              const wire::Envelope& env) {
  Result<wire::CopyLogReq> req = wire::DecodeCopyLogReq(env.body);
  if (!req.ok()) return;
  wire::CopyLogResp resp;
  ClientState& state = StateOf(req->client);
  for (const LogRecord& r : req->records) {
    if (r.epoch != req->epoch) {
      resp.status = wire::RpcStatus::kError;
      break;
    }
    if (!state.store.StageCopy(r).ok()) {
      resp.status = wire::RpcStatus::kError;
      break;
    }
  }
  Reply(conn, wire::EncodeCopyLogResp(resp, env.rpc_id));
}

void LogServer::HandleInstallCopies(wire::Connection* conn,
                                    const wire::Envelope& env) {
  Result<wire::InstallCopiesReq> req =
      wire::DecodeInstallCopiesReq(env.body);
  if (!req.ok()) return;
  wire::InstallCopiesResp resp;
  ClientState& state = StateOf(req->client);

  if (nvram_buffer_->used_bytes() + state.store.StagedBytes(req->epoch) >
      nvram_buffer_->capacity()) {
    resp.status = wire::RpcStatus::kOverloaded;
    Reply(conn, wire::EncodeInstallCopiesResp(resp, env.rpc_id));
    return;
  }

  Result<std::vector<LogRecord>> installed =
      state.store.InstallCopies(req->epoch);
  if (!installed.ok()) {
    resp.status = wire::RpcStatus::kError;
  } else {
    for (const LogRecord& r : *installed) {
      Status nv = nvram_buffer_->Append(EncodeStreamEntry({req->client, r}));
      assert(nv.ok());
      (void)nv;
      records_written_.Increment();
      bytes_logged_ += r.data.size();
    }
    NoteNvramLevel();
    ScheduleFlushTimer();
  }
  Reply(conn, wire::EncodeInstallCopiesResp(resp, env.rpc_id));
  MaybeFlush();
}

void LogServer::HandleGenRead(wire::Connection* conn,
                              const wire::Envelope& env) {
  Result<wire::GenReadReq> req = wire::DecodeGenReadReq(env.body);
  if (!req.ok()) return;
  wire::GenReadResp resp;
  resp.value = generator_cells_[req->client].Read();
  Reply(conn, wire::EncodeGenReadResp(resp, env.rpc_id));
}

void LogServer::HandleGenWrite(wire::Connection* conn,
                               const wire::Envelope& env) {
  Result<wire::GenWriteReq> req = wire::DecodeGenWriteReq(env.body);
  if (!req.ok()) return;
  generator_cells_[req->client].Write(req->value);
  wire::GenWriteResp resp;
  Reply(conn, wire::EncodeGenWriteResp(resp, env.rpc_id));
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

  // Pack entries into one track's payload. The packing decision needs
  // only encoded sizes — MaybeFlush runs after every record batch, and
  // most calls return right here, so the prefix must not be decoded
  // until the flush is known to proceed.
  const size_t capacity = config_.disk.track_bytes - kTrackOverhead;
  size_t bytes = 0;
  size_t count = 0;
  for (const Bytes& encoded : nvram_buffer_->entries()) {
    if (bytes + encoded.size() > capacity) break;
    bytes += encoded.size();
    ++count;
  }
  if (count == 0) return;
  // Only a full track goes out eagerly; the periodic timer
  // (flush_timer_ == 0 while its callback runs) and FlushNow() flush
  // partial tracks. "Full" means the packing stopped because the next
  // buffered entry did not fit — a byte-count threshold would leave the
  // front of the queue permanently under it whenever the packed prefix
  // happens to end just short (appends never change the front packing),
  // stalling the drain at one timer flush per interval.
  const bool track_full = count < nvram_buffer_->size();
  const bool timer_due = flush_timer_ == 0;
  if (!track_full && !timer_due && !force_partial_flush_) return;

  // The buffered bytes ARE the track's per-entry format: collect
  // pointers for a raw concatenation and decode only the fixed header
  // fields the flush bookkeeping needs — no payload is materialized.
  std::vector<const Bytes*> packed;
  std::vector<StreamEntryHeader> entries;
  packed.reserve(count);
  entries.reserve(count);
  for (const Bytes& encoded : nvram_buffer_->entries()) {
    if (packed.size() == count) break;
    Result<StreamEntryHeader> header = DecodeStreamEntryHeader(encoded);
    assert(header.ok());
    packed.push_back(&encoded);
    entries.push_back(*header);
  }

  flush_in_progress_ = true;
  const uint64_t track = next_track_++;
  const uint64_t generation = generation_;

  // One "track.write" span per distinct trace whose records this track
  // makes disk-resident; the buffering-time contexts are consumed here.
  std::vector<obs::SpanContext> track_spans;
  if (tracer_ != nullptr) {
    std::map<obs::TraceId, bool> seen;
    for (const StreamEntryHeader& e : entries) {
      auto it = record_ctx_.find({e.client, e.lsn, e.epoch});
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

  Bytes track_bytes = EncodeTrackFromEncoded(packed);
  cpu_->Execute(config_.instr_per_track_write, [this, generation, track,
                                                track_bytes =
                                                    std::move(track_bytes),
                                                entries =
                                                    std::move(entries),
                                                track_spans =
                                                    std::move(track_spans),
                                                count]() mutable {
    if (generation != generation_ || !up_) return;
    disk_->WriteTrack(
        track, std::move(track_bytes),
        [this, generation, track, entries = std::move(entries),
         track_spans = std::move(track_spans), count](Status st) {
          if (generation != generation_ || !up_) return;
          flush_in_progress_ = false;
          if (tracer_ != nullptr) {
            for (const obs::SpanContext& span : track_spans) {
              tracer_->EndSpan(span);
            }
          }
          if (!st.ok()) return;  // write-once conflict etc.: keep in NVRAM
          tracks_written_.Increment();
          nvram_buffer_->PopFront(count);
          NoteNvramLevel();
          // Note each record's track, and gather per client the LSN
          // range this track adds to its append-forest index.
          struct ClientRange {
            ClientId client;
            Lsn low;
            Lsn high;
          };
          std::vector<ClientRange> ranges;
          // Entries arrive in per-batch runs of one client; reuse the
          // looked-up state across a run (node handles are stable).
          ClientState* run_state = nullptr;
          ClientId run_client = 0;
          for (const StreamEntryHeader& e : entries) {
            if (run_state == nullptr || e.client != run_client) {
              run_state = &StateOf(e.client);
              run_client = e.client;
            }
            run_state->store.SetTrack(e.lsn, e.epoch, track);
            auto range = std::find_if(
                ranges.rbegin(), ranges.rend(),
                [&e](const ClientRange& r) { return r.client == e.client; });
            if (range == ranges.rend()) {
              ranges.push_back({e.client, e.lsn, e.lsn});
            } else {
              range->low = std::min(range->low, e.lsn);
              range->high = std::max(range->high, e.lsn);
            }
          }
          if (config_.ack_after_disk && nvram_buffer_->empty()) {
            std::vector<PendingAck> acks = std::move(pending_acks_);
            pending_acks_.clear();
            for (const PendingAck& pa : acks) {
              wire::NewHighLsnMsg ack;
              ack.new_high_lsn = StateOf(pa.client).store.HighestLsn();
              forces_acked_.Increment();
              if (tracer_ != nullptr) {
                obs::SpanContext instant =
                    tracer_->Instant("force.ack", trace_node_, pa.ctx);
                tracer_->AddArg(instant, "lsn", ack.new_high_lsn);
              }
              pa.reply(wire::EncodeNewHighLsn(ack));
            }
          }
          for (const ClientRange& range : ranges) {
            forest::AppendForest& forest = StateOf(range.client).forest;
            Lsn low = range.low;
            const Lsn high = range.high;
            if (!forest.empty()) {
              const Lsn prev_high =
                  forest.node(forest.size() - 1).key_high;
              if (high <= prev_high) continue;  // recovery copies only
              low = prev_high + 1;
            }
            (void)forest.Append(low, high, track);
          }
          MaybeFlush();       // more may have accumulated
          ScheduleFlushTimer();  // partial remainder flushes on the timer
        });
  });
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
  nvram_buffer_ = std::make_unique<storage::NvramQueue>(config_.nvram_bytes);
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
  next_track_ = 0;

  // Scan the log data stream from the start ("a server must scan the end
  // of the log data stream to find the ends of active intervals"; we keep
  // the whole-volume scan, which also rebuilds the record index this
  // simulation keeps in memory in place of on-demand disk reads).
  std::map<ClientId, std::vector<LogRecord>> per_client;
  // Every disk-resident entry with its track, in scan order.
  std::vector<std::pair<StreamEntryHeader, uint64_t>> on_disk;
  uint64_t track = 0;
  while (disk_->IsWritten(track)) {
    Result<Bytes> raw = disk_->Peek(track);
    assert(raw.ok());
    Result<std::vector<StreamEntry>> entries = DecodeTrack(*raw);
    if (!entries.ok()) break;  // torn/corrupt track terminates the stream
    for (const StreamEntry& e : *entries) {
      per_client[e.client].push_back(e.record);
      on_disk.push_back(
          {StreamEntryHeader{e.client, e.record.lsn, e.record.epoch}, track});
    }
    ++track;
  }
  next_track_ = track;

  // The NVRAM group buffer survived; replay it after the disk contents.
  for (const Bytes& encoded : nvram_buffer_->entries()) {
    Result<StreamEntry> entry = DecodeStreamEntry(encoded);
    if (!entry.ok()) continue;
    per_client[entry->client].push_back(entry->record);
  }

  for (auto& [client, records] : per_client) {
    clients_[client].store = ClientLogStore::FromRecords(records);
  }
  // In scan order, so a record found in several tracks is charged to
  // the latest of them.
  for (const auto& [e, trk] : on_disk) {
    clients_[e.client].store.SetTrack(e.lsn, e.epoch, trk);
  }

  for (auto& [client, records] : per_client) {
    ClientState& state = clients_[client];
    // Reapply the stable truncation mark: the append-only stream scan
    // resurrects discarded records otherwise.
    auto mark = truncate_marks_.find(client);
    if (mark != truncate_marks_.end()) {
      (void)state.store.TruncateBelow(mark->second);
    }
    // Rebuild the forest from the disk tracks, in track order.
    std::map<uint64_t, std::pair<Lsn, Lsn>> track_ranges;
    for (const ClientLogStore::IndexEntry& entry : state.store.index()) {
      if (entry.track == ClientLogStore::kNoTrack) continue;
      auto [it, inserted] = track_ranges.try_emplace(
          entry.track, std::make_pair(entry.lsn, entry.lsn));
      if (!inserted) {
        it->second.first = std::min(it->second.first, entry.lsn);
        it->second.second = std::max(it->second.second, entry.lsn);
      }
    }
    for (const auto& [trk, range] : track_ranges) {
      Lsn low = range.first;
      const Lsn high = range.second;
      if (!state.forest.empty()) {
        const Lsn prev_high =
            state.forest.node(state.forest.size() - 1).key_high;
        if (high <= prev_high) continue;
        low = prev_high + 1;
      }
      (void)state.forest.Append(low, high, trk);
    }
  }
}

IntervalList LogServer::IntervalsOf(ClientId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return {};
  return it->second.store.Intervals();
}

std::vector<LogRecord> LogServer::RecordsOf(ClientId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return {};
  return it->second.store.stream();
}

const forest::AppendForest* LogServer::ForestOf(ClientId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return nullptr;
  return &it->second.forest;
}

}  // namespace dlog::server
