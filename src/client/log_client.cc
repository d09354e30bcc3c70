#include "client/log_client.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

namespace dlog::client {

// Per-Init transient state, shared across the callback chain.
struct LogClient::InitState {
  std::function<void(Status)> done;
  uint64_t generation = 0;

  // Interval gather.
  int interval_ok = 0;
  int interval_fail = 0;
  bool intervals_done = false;
  std::vector<ServerInterval> intervals;

  // Epoch acquisition.
  int gen_read_ok = 0;
  int gen_read_fail = 0;
  bool gen_read_done = false;
  uint64_t gen_max = 0;
  int gen_write_ok = 0;
  int gen_write_fail = 0;
  bool gen_write_done = false;
  uint64_t gen_value = 0;

  // Recovery copy.
  Lsn high = kNoLsn;
  std::vector<Lsn> tail_lsns;
  size_t tail_cursor = 0;
  std::map<Lsn, LogRecord> tail_records;
  std::vector<net::NodeId> targets;
  size_t copy_acks = 0;
  size_t install_acks = 0;
  bool failed = false;
  bool finished = false;
};

// One ReadLog served by the log servers: the holders, tried in order.
struct LogClient::ReadState {
  Lsn lsn = kNoLsn;
  uint64_t generation = 0;
  std::vector<ServerId> holders;
  std::function<void(Result<Bytes>)> done;
};

Status LogClientConfig::Validate() const {
  if (copies < 1) return Status::InvalidArgument("copies must be >= 1");
  if (servers.size() < static_cast<size_t>(copies)) {
    return Status::InvalidArgument(
        "need at least `copies` servers (N <= M)");
  }
  if (servers.size() > kMaxServers) {
    return Status::InvalidArgument(
        "at most 64 servers (one acknowledgment bit each)");
  }
  if (cpu_mips <= 0) {
    return Status::InvalidArgument("cpu_mips must be > 0");
  }
  if (nic_ring_slots == 0) {
    return Status::InvalidArgument("nic_ring_slots must be > 0");
  }
  if (mtu_payload == 0) {
    return Status::InvalidArgument("mtu_payload must be > 0");
  }
  if (delta == 0) {
    return Status::InvalidArgument(
        "delta must be > 0 (no unacknowledged records means no grouping)");
  }
  if (force_timeout <= 0) {
    return Status::InvalidArgument("force_timeout must be > 0");
  }
  if (force_retries < 1) {
    return Status::InvalidArgument("force_retries must be >= 1");
  }
  if (rpc_timeout <= 0) {
    return Status::InvalidArgument("rpc_timeout must be > 0");
  }
  if (rpc_attempts < 1) {
    return Status::InvalidArgument("rpc_attempts must be >= 1");
  }
  DLOG_RETURN_IF_ERROR(retry.Validate());
  DLOG_RETURN_IF_ERROR(wire.adaptive_window.Validate());
  return Status::OK();
}

LogClient::LogClient(sim::Scheduler* sim, const LogClientConfig& config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      retry_policy_(config.retry) {
  DLOG_CHECK_OK(config.Validate());
  if (config_.generator_reps.empty()) {
    const size_t reps = std::min<size_t>(3, config_.servers.size());
    config_.generator_reps.assign(config_.servers.begin(),
                                  config_.servers.begin() + reps);
  }
  // Decentralized spreading: each client starts its rotation at a
  // different point (Section 5.4's "simple decentralized strategies").
  round_robin_cursor_ = config_.client_id;
  cpu_ = std::make_unique<sim::Cpu>(sim, config_.cpu_mips, "client-cpu");
  endpoint_ = std::make_unique<wire::Endpoint>(sim, cpu_.get(),
                                               config_.node_id,
                                               config_.wire);
  // Multicast acknowledgments arrive as datagrams from server nodes.
  endpoint_->SetDatagramHandler(
      [this](net::NodeId src, const SharedBytes& payload) {
        if (!crashed_) OnServerMessage(src, payload);
      });
}

LogClient::~LogClient() {
  // Pending RPC continuations capture `this`: drop them unrun before the
  // links, and the rest of this client, are destroyed.
  ++generation_;
  for (auto& [node, link] : links_) {
    if (link.rpc != nullptr) link.rpc->DropAll();
  }
  if (retry_timer_ != 0) sim_->Cancel(retry_timer_);
}

void LogClient::AttachNetwork(net::Network* network) {
  auto nic = std::make_unique<net::Nic>(sim_, config_.nic_ring_slots);
  network->Attach(config_.node_id, nic.get());
  endpoint_->AttachNetwork(network, nic.get());
  networks_.push_back(network);
  nics_.push_back(std::move(nic));
}

void LogClient::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  trace_node_ = "client-" + std::to_string(config_.client_id);
}

void LogClient::RegisterMetrics(obs::MetricsRegistry* registry) const {
  const std::string prefix =
      "client-" + std::to_string(config_.client_id) + "/log/";
  registry->RegisterHistogram(prefix + "force_latency_ms",
                              &force_latency_ms_);
  registry->RegisterStreamingHistogram(prefix + "force_latency_us",
                                       &force_latency_us_);
  registry->RegisterCounter(prefix + "records_sent", &records_sent_);
  registry->RegisterCounter(prefix + "batches_sent", &batches_sent_);
  registry->RegisterCounter(prefix + "forces_completed",
                            &forces_completed_);
  registry->RegisterCounter(prefix + "server_switches", &server_switches_);
  registry->RegisterCounter(prefix + "resends", &resends_);
  registry->RegisterCounter(prefix + "flow/overloads_received",
                            &overloads_received_);
  registry->RegisterCounter(prefix + "flow/backoffs", &backoffs_);
  registry->RegisterCounter(prefix + "flow/retries_suppressed",
                            &retries_suppressed_);
  // The starvation rule's input: unacknowledged records at the window
  // edge. Reads 0 while crashed — a dead node is down, not starving.
  registry->RegisterCallback(prefix + "pending_records", [this]() {
    return IsUp() ? static_cast<double>(pending_.size()) : 0.0;
  });
  registry->RegisterCallback(prefix + "flow/retry_budget_tokens",
                             [this]() { return retry_policy_.tokens(); });
  // The smallest adaptive window across currently-established links: the
  // sweep's view of how hard the AIMD loop is squeezing this client.
  registry->RegisterCallback(prefix + "flow/min_window_bytes", [this]() {
    double min_window = 0.0;
    for (const auto& [node, link] : links_) {
      if (link.conn == nullptr || !link.conn->IsEstablished()) continue;
      const double w = static_cast<double>(link.conn->window_bytes());
      if (min_window == 0.0 || w < min_window) min_window = w;
    }
    return min_window;
  });
}

obs::SpanContext LogClient::ForceContext() const {
  return force_ctx_cache_;
}

wire::RpcClient::CallOptions LogClient::RpcOpts() const {
  wire::RpcClient::CallOptions opts;
  opts.timeout = config_.rpc_timeout;
  opts.max_attempts = config_.rpc_attempts;
  return opts;
}

LogClient::ServerLink* LogClient::LinkOf(net::NodeId node) {
  auto it = links_.find(node);
  return it == links_.end() ? nullptr : &it->second;
}

LogClient::ServerLink& LogClient::LinkFor(net::NodeId node) {
  ServerLink& link = links_[node];
  link.node = node;
  link.bit = BitOf(node);
  return link;
}

uint64_t LogClient::BitOf(net::NodeId node) const {
  for (size_t i = 0; i < config_.servers.size(); ++i) {
    if (config_.servers[i] == node) return uint64_t{1} << i;
  }
  return 0;
}

void LogClient::ConnectAll() {
  for (net::NodeId node : config_.servers) EnsureConnected(&LinkFor(node));
  for (net::NodeId node : config_.generator_reps) {
    EnsureConnected(&LinkFor(node));
  }
}

void LogClient::EnsureConnected(ServerLink* link) {
  if (crashed_) return;
  if (link->conn != nullptr && !link->conn->IsClosed()) return;
  wire::Connection* conn = endpoint_->Connect(link->node);
  link->conn = conn;
  if (link->rpc == nullptr) {
    // The provider reconnects on demand, so an RPC started before a
    // server restart retries over the fresh connection.
    const net::NodeId rpc_node = link->node;
    link->rpc = std::make_unique<wire::RpcClient>(
        sim_, [this, rpc_node]() -> wire::Connection* {
          ServerLink* l = LinkOf(rpc_node);
          if (l == nullptr) return nullptr;
          EnsureConnected(l);
          return l->conn;
        });
  }
  const net::NodeId node = link->node;
  const uint64_t generation = generation_;
  conn->SetMessageHandler([this, node,
                           generation](const SharedBytes& payload) {
    if (generation != generation_) return;
    OnServerMessage(node, payload);
  });
  conn->SetCloseHandler([this, node, generation]() {
    if (generation != generation_) return;
    ServerLink* l = LinkOf(node);
    if (l != nullptr) l->conn = nullptr;  // reconnect lazily
  });
}

void LogClient::OnServerMessage(net::NodeId node,
                                const SharedBytes& payload) {
  ServerLink* link = LinkOf(node);
  if (link == nullptr) return;
  Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case wire::MessageType::kNewHighLsn: {
      Result<wire::NewHighLsnMsg> m = wire::DecodeNewHighLsn(env->body);
      if (m.ok()) {
        // A real acknowledgment means the server is admitting writes
        // again: clear any shed backoff.
        link->shed_rounds = 0;
        link->shed_until = 0;
        OnNewHighLsn(link, m->new_high_lsn);
      }
      return;
    }
    case wire::MessageType::kOverloaded: {
      Result<wire::OverloadedMsg> m = wire::DecodeOverloaded(env->body);
      if (m.ok()) OnOverloaded(link, *m);
      return;
    }
    case wire::MessageType::kMissingInterval: {
      Result<wire::MissingIntervalMsg> m =
          wire::DecodeMissingInterval(env->body);
      if (m.ok()) OnMissingInterval(link, m->low, m->high);
      return;
    }
    default:
      if (env->rpc_id != 0 && link->rpc != nullptr) {
        link->rpc->HandleResponse(*env);
      }
      return;
  }
}

// --- Pending-record ring ---

LogClient::PendingRecord& LogClient::PendingRing::Add(Lsn lsn) {
  const Lsn low = empty() ? lsn : std::min(base_, lsn);
  const Lsn high = empty() ? lsn + 1 : std::max(end(), lsn + 1);
  if (high - low > slots_.size()) {
    // Rehome the window into a ring at least twice as large.
    size_t capacity = std::max<size_t>(8, 2 * slots_.size());
    while (capacity < high - low) capacity *= 2;
    std::vector<PendingRecord> grown(capacity);
    for (Lsn l = base_; l < end(); ++l) {
      grown[l & (capacity - 1)] = std::move(Slot(l));
    }
    slots_ = std::move(grown);
  }
  base_ = low;
  span_ = high - low;
  PendingRecord& slot = Slot(lsn);
  if (slot.record.lsn != lsn) ++live_;
  slot = PendingRecord{};
  slot.record.lsn = lsn;
  return slot;
}

void LogClient::PendingRing::Retire(Lsn lsn) {
  Slot(lsn) = PendingRecord{};
  --live_;
  while (span_ > 0 && Slot(base_).record.lsn == kNoLsn) {
    ++base_;
    --span_;
  }
}

// --- Write pipeline ---

Result<Lsn> LogClient::WriteLog(Bytes data) {
  if (crashed_) return Status::Aborted("client crashed");
  if (!initialized_) {
    return Status::FailedPrecondition("log client not initialized");
  }
  PendingRecord& pr = pending_.Add(next_lsn_);
  pr.record.epoch = epoch_;
  pr.record.present = true;
  pr.record.data = std::move(data);
  bytes_buffered_ += pr.record.data.size();
  if (tracer_ != nullptr) {
    pr.group_span =
        tracer_->StartSpan("wal.group", trace_node_, tracer_->Current());
    tracer_->AddArg(pr.group_span, "lsn", next_lsn_);
  }
  const Lsn lsn = next_lsn_++;
  PumpSends();
  return lsn;
}

void LogClient::ForceLog(Lsn upto, std::function<void(Status)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  for (Lsn lsn = pending_.front(); lsn <= upto && lsn < pending_.end();
       ++lsn) {
    if (PendingRecord* pr = pending_.Find(lsn)) pr->forced = true;
  }
  ForceWaiter waiter{upto, std::move(done), sim_->Now(), {}};
  if (tracer_ != nullptr) {
    waiter.span =
        tracer_->StartSpan("ForceLog", trace_node_, tracer_->Current());
    tracer_->AddArg(waiter.span, "upto", upto);
  }
  if (waiter.span.valid()) {
    force_ctx_cache_ = waiter.span;
    ++force_ctx_valid_spans_;
  }
  force_waiters_.push_back(std::move(waiter));
  PumpSends();
  ArmRetryTimer();
  CheckForceCompletion();
}

LogClient::LinkList LogClient::WriteSet() {
  // Returned by value: callers iterate while nested sends can re-enter
  // PumpSends (inline-delivery configurations), so a shared buffer
  // would be mutated under the caller's feet.
  LinkList out;
  for (net::NodeId node : write_set_) {
    ServerLink* link = LinkOf(node);
    if (link != nullptr) out.push_back(link);
  }
  return out;
}

net::NodeId LogClient::PickReplacement(uint64_t exclude) {
  std::vector<net::NodeId> candidates;
  for (net::NodeId node : config_.servers) {
    if ((exclude & BitOf(node)) != 0) continue;
    auto avoided = avoid_until_.find(node);
    if (avoided != avoid_until_.end() && avoided->second > sim_->Now()) {
      continue;
    }
    candidates.push_back(node);
  }
  if (candidates.empty()) {
    // Everyone is either in use or in the penalty box; retry deserters.
    for (net::NodeId node : config_.servers) {
      if ((exclude & BitOf(node)) == 0) candidates.push_back(node);
    }
  }
  if (candidates.empty()) return 0;
  switch (config_.policy) {
    case SelectionPolicy::kStickyFailover:
      // Sticky thereafter, but the starting point is spread by client id
      // so a population of clients does not pile onto the same servers.
      return candidates[config_.client_id % candidates.size()];
    case SelectionPolicy::kRoundRobin: {
      const net::NodeId pick =
          candidates[round_robin_cursor_ % candidates.size()];
      ++round_robin_cursor_;
      return pick;
    }
    case SelectionPolicy::kRandom:
      return candidates[rng_.NextBelow(candidates.size())];
    case SelectionPolicy::kLeastQueued: {
      net::NodeId best = candidates.front();
      size_t best_depth = ~size_t{0};
      for (net::NodeId node : candidates) {
        ServerLink* link = LinkOf(node);
        const size_t depth =
            (link != nullptr && link->conn != nullptr)
                ? link->conn->send_queue_depth()
                : 0;
        if (depth < best_depth) {
          best_depth = depth;
          best = node;
        }
      }
      return best;
    }
  }
  return candidates.front();
}

void LogClient::ChooseWriteSet() {
  // Full house (the common case, hit once per PumpSends): nothing to do.
  if (write_set_.size() >= static_cast<size_t>(config_.copies)) return;
  uint64_t members = 0;
  for (net::NodeId node : write_set_) members |= BitOf(node);
  while (write_set_.size() < static_cast<size_t>(config_.copies)) {
    const net::NodeId pick = PickReplacement(members);
    if (pick == 0) break;
    members |= BitOf(pick);
    write_set_.push_back(pick);
    ServerLink& link = LinkFor(pick);
    link.in_write_set = true;
    EnsureConnected(&link);
    JoinWriteSetMember(pick);
    // A server joining mid-stream needs a NewInterval announcement unless
    // its stream is already contiguous with what we will send next.
    const Lsn first = pending_.empty() ? next_lsn_ : pending_.front();
    if (link.sent_high != first - 1) {
      wire::NewIntervalMsg msg{config_.client_id, epoch_, first};
      if (link.conn != nullptr) link.conn->Send(wire::EncodeNewInterval(msg));
      link.sent_high = first - 1;
    }
  }
}

size_t LogClient::UnackedSentRecords() const {
  return unacked_sent_records_;
}

void LogClient::JoinWriteSetMember(net::NodeId node) {
  if (!config_.multicast_writes) return;
  for (net::Network* network : networks_) {
    network->JoinGroup(Group(), node);
  }
}

void LogClient::LeaveWriteSetMember(net::NodeId node) {
  if (!config_.multicast_writes) return;
  for (net::Network* network : networks_) {
    network->LeaveGroup(Group(), node);
  }
}

void LogClient::PumpSends() {
  if (crashed_ || !initialized_) return;
  ChooseWriteSet();
  if (config_.multicast_writes) {
    // The multicast stream restarts from the lowest per-server position,
    // so a server that just joined catches up from the group stream;
    // redelivery to servers already ahead is idempotent.
    for (ServerLink* link : WriteSet()) EnsureConnected(link);
    StreamMulticast();
    return;
  }
  for (ServerLink* link : WriteSet()) {
    EnsureConnected(link);
    StreamTo(link);
  }
}

void LogClient::StreamMulticast() {
  const LinkList ws = WriteSet();
  if (ws.size() < static_cast<size_t>(config_.copies)) return;
  // The group stream reaches every member; while any of them is in a
  // shed backoff the whole stream waits (the backoff wakeup re-pumps).
  for (ServerLink* link : ws) {
    if (InShedBackoff(*link)) return;
  }
  Lsn frontier = ~Lsn{0};
  for (ServerLink* link : ws) frontier = std::min(frontier, link->sent_high);
  Stream(ws, frontier + 1, /*to_group=*/true);
}

void LogClient::StreamTo(ServerLink* link) {
  if (link->conn == nullptr) return;
  // A shed server gets no new batches until its backoff expires (the
  // OnOverloaded wakeup re-pumps).
  if (InShedBackoff(*link)) return;
  LinkList target;
  target.push_back(link);
  Stream(target, link->sent_high + 1, /*to_group=*/false);
}

void LogClient::Stream(const LinkList& targets, Lsn from, bool to_group) {
  // Is there an outstanding force the targets have not yet acknowledged?
  Lsn force_upto = kNoLsn;
  for (const ForceWaiter& w : force_waiters_) {
    force_upto = std::max(force_upto, w.upto);
  }

  // Grouping (Section 4.1): records stay in the client buffer until a
  // force covers them or a full packet's worth has accumulated, so that
  // "log records [are] stored on a client node until they are explicitly
  // forced by the recovery manager".
  Batch batch;
  bool sent_forced_batch = false;
  auto send_batch = [&]() {
    SendBatch(targets, batch, to_group);
    sent_forced_batch = sent_forced_batch || batch.forced;
    batch = Batch{};
  };
  size_t unacked_sent = UnackedSentRecords();
  for (Lsn lsn = std::max(from, pending_.front()); lsn < pending_.end();
       ++lsn) {
    const PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    // δ bound: throttle first-time sends so that at most `delta` records
    // can ever be partially written.
    if (pr->sent_to == 0 && unacked_sent >= config_.delta) break;
    const size_t cost = wire::EncodedRecordSize(pr->record);
    if (batch.count > 0 && batch.bytes + cost > config_.mtu_payload) {
      send_batch();
    }
    if (pr->sent_to == 0) ++unacked_sent;
    if (batch.count == 0) batch.first = lsn;
    batch.last = lsn;
    ++batch.count;
    batch.bytes += cost;
    batch.forced = batch.forced || pr->forced;
  }
  // A trailing partial packet goes out only when a force needs it;
  // otherwise those records keep buffering.
  if (batch.count > 0 &&
      (batch.forced || batch.bytes + 64 >= config_.mtu_payload)) {
    send_batch();
  }

  if (sent_forced_batch) {
    // The forced data batch itself elicits the acknowledgment.
    for (ServerLink* link : targets) {
      link->force_ping_high = std::max(link->force_ping_high, force_upto);
    }
    return;
  }
  // A force of already-streamed records still needs an acknowledgment:
  // prod each lagging server with one empty ForceLog per force point (the
  // retry timer re-prods if the ack is lost).
  for (ServerLink* link : targets) {
    if (force_upto == kNoLsn || link->acked_high >= force_upto ||
        link->sent_high < force_upto || link->force_ping_high >= force_upto ||
        link->conn == nullptr) {
      continue;
    }
    link->force_ping_high = force_upto;
    wire::RecordBatch ping;
    ping.client = config_.client_id;
    ping.epoch = epoch_;
    if (tracer_ != nullptr) {
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, ForceContext());
      tracer_->AddArg(send, "server", link->node);
      ping.trace = send.trace;
      ping.span = send.span;
    }
    link->conn->Send(
        wire::EncodeRecordBatch(wire::MessageType::kForceLog, ping),
        ping.trace, ping.span);
  }
}

void LogClient::SendBatch(const LinkList& targets, const Batch& batch,
                          bool to_group) {
  wire::RecordBatch header;
  header.client = config_.client_id;
  header.epoch = epoch_;
  obs::SpanContext send_parent;
  for (Lsn lsn = batch.first; lsn <= batch.last; ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->first_sent == 0) {
      pr->first_sent = sim_->Now();
      if (tracer_ != nullptr) tracer_->EndSpan(pr->group_span);
    }
    if (!send_parent.valid()) send_parent = pr->group_span;
    if (pr->sent_to == 0) ++unacked_sent_records_;
    for (ServerLink* link : targets) {
      pr->sent_to |= link->bit;
      link->sent_high = std::max(link->sent_high, lsn);
    }
    records_sent_.Increment();
  }
  const wire::MessageType type = batch.forced ? wire::MessageType::kForceLog
                                              : wire::MessageType::kWriteLog;
  if (tracer_ != nullptr) {
    if (batch.forced && ForceContext().valid()) send_parent = ForceContext();
    obs::SpanContext send =
        tracer_->StartSpan("wire.send", trace_node_, send_parent);
    if (to_group) {
      tracer_->AddArg(send, "group", Group());
    } else {
      tracer_->AddArg(send, "server", targets[0]->node);
    }
    tracer_->AddArg(send, "records", batch.count);
    header.trace = send.trace;
    header.span = send.span;
  }
  wire::RecordBatchWriter writer(type, header, batch.count, batch.bytes);
  for (Lsn lsn = batch.first; lsn <= batch.last; ++lsn) {
    if (const PendingRecord* pr = pending_.Find(lsn)) writer.Add(pr->record);
  }
  if (to_group) {
    endpoint_->SendDatagram(Group(), writer.Take(), header.trace,
                            header.span);
  } else {
    targets[0]->conn->Send(writer.Take(), header.trace, header.span);
  }
  batches_sent_.Increment();
}

void LogClient::OnNewHighLsn(ServerLink* link, Lsn high) {
  link->acked_high = std::max(link->acked_high, high);
  bool progressed = false;
  for (Lsn lsn = pending_.front(); lsn <= high && lsn < pending_.end();
       ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr || (pr->sent_to & link->bit) == 0 ||
        (pr->acked_by & link->bit) != 0) {
      continue;
    }
    pr->acked_by |= link->bit;
    progressed = true;
  }
  if (progressed) {
    link->silent_rounds = 0;
    CheckForceCompletion();
    PumpSends();  // δ slots may have freed up
  }
}

bool LogClient::InShedBackoff(const ServerLink& link) const {
  return link.shed_until > sim_->Now();
}

void LogClient::OnOverloaded(ServerLink* link,
                             const wire::OverloadedMsg& msg) {
  if (crashed_ || !initialized_) return;
  overloads_received_.Increment();
  if (config_.retry.enabled) {
    // Squeeze the transport window too: stop injecting before the
    // server's queue grows, not after.
    if (link->conn != nullptr) link->conn->NoteOverload();
    const sim::Duration backoff =
        retry_policy_.BackoffFor(link->shed_rounds, &rng_);
    ++link->shed_rounds;
    const sim::Duration hint = msg.retry_after_us * sim::kMicrosecond;
    const sim::Duration wait = std::max(backoff, hint);
    link->shed_until = sim_->Now() + wait;
    backoffs_.Increment();
    if (tracer_ != nullptr) {
      // Root the instant when no force is being traced: backoffs usually
      // interrupt background streaming.
      const obs::SpanContext parent = ForceContext();
      obs::SpanContext instant =
          parent.valid()
              ? tracer_->Instant("flow.backoff", trace_node_, parent)
              : tracer_->StartTrace("flow.backoff", trace_node_);
      tracer_->AddArg(instant, "server", link->node);
      tracer_->AddArg(instant, "wait_us", wait / sim::kMicrosecond);
      tracer_->EndSpan(instant);
    }
    const uint64_t generation = generation_;
    sim_->After(wait, [this, generation]() {
      if (generation != generation_ || crashed_ || !initialized_) return;
      PumpSends();
    });
  }
  // The reply carries the server's stored high LSN: progress the shed
  // server *did* make keeps counting toward N copies while we back off
  // (shed != down — N-of-M accounting must not regress).
  if (msg.high_lsn != kNoLsn) OnNewHighLsn(link, msg.high_lsn);
}

void LogClient::CheckForceCompletion() {
  // Retire records acknowledged by N servers.
  for (Lsn lsn = pending_.front(); lsn < pending_.end(); ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr || std::popcount(pr->acked_by) < config_.copies) {
      continue;
    }
    // The merged view keeps each holder list sorted by server id.
    std::array<ServerId, kMaxServers> holders{};
    size_t n = 0;
    for (uint64_t acked = pr->acked_by; acked != 0; acked &= acked - 1) {
      holders[n++] = config_.servers[std::countr_zero(acked)];
    }
    std::sort(holders.begin(), holders.begin() + n);
    view_.NoteWrite(lsn, pr->record.epoch, {holders.data(), n});
    bytes_buffered_ -= pr->record.data.size();
    if (pr->sent_to != 0) --unacked_sent_records_;
    pending_.Retire(lsn);
  }
  // Complete force waiters whose range is fully durable.
  while (!force_waiters_.empty()) {
    ForceWaiter& w = force_waiters_.front();
    if (!pending_.empty() && pending_.front() <= w.upto) break;
    force_latency_ms_.Add(sim::DurationToSeconds(sim_->Now() - w.started) *
                          1e3);
    force_latency_us_.Record((sim_->Now() - w.started) / sim::kMicrosecond);
    forces_completed_.Increment();
    if (tracer_ != nullptr) tracer_->EndSpan(w.span);
    if (w.span.valid() && --force_ctx_valid_spans_ == 0) {
      force_ctx_cache_ = {};
    }
    auto done = std::move(w.done);
    force_waiters_.pop_front();
    done(Status::OK());
  }
  if (force_waiters_.empty() && retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }
}

void LogClient::OnMissingInterval(ServerLink* link, Lsn low, Lsn high) {
  if (crashed_ || !initialized_ || link->conn == nullptr) return;
  // Records the server never saw: resend the ones still pending; announce
  // a new interval past anything already durable elsewhere.
  Lsn first_pending = kNoLsn;
  for (Lsn lsn = std::max(low, pending_.front());
       lsn <= high && lsn < pending_.end(); ++lsn) {
    if (pending_.Find(lsn) != nullptr) {
      first_pending = lsn;
      break;
    }
  }
  if (first_pending == kNoLsn) {
    // Everything missing is durable on other servers.
    wire::NewIntervalMsg msg{config_.client_id, epoch_, high + 1};
    link->conn->Send(wire::EncodeNewInterval(msg));
    link->sent_high = std::max(link->sent_high, high);
    StreamTo(link);
    return;
  }
  if (first_pending > low) {
    // The prefix of the gap is durable elsewhere; skip the server past it.
    wire::NewIntervalMsg msg{config_.client_id, epoch_, first_pending};
    link->conn->Send(wire::EncodeNewInterval(msg));
  }
  // Resend the pending remainder of the gap as a force.
  wire::RecordBatch batch;
  batch.client = config_.client_id;
  batch.epoch = epoch_;
  for (Lsn lsn = first_pending; lsn <= high && lsn < pending_.end(); ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->sent_to == 0) ++unacked_sent_records_;
    pr->sent_to |= link->bit;
    batch.records.push_back(pr->record);
  }
  resends_.Increment();
  if (tracer_ != nullptr) {
    obs::SpanContext send =
        tracer_->StartSpan("wire.send", trace_node_, ForceContext());
    tracer_->AddArg(send, "server", link->node);
    tracer_->AddArg(send, "records", batch.records.size());
    batch.trace = send.trace;
    batch.span = send.span;
  }
  link->conn->Send(
      wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch),
      batch.trace, batch.span);
}

void LogClient::ArmRetryTimer() {
  if (retry_timer_ != 0 || crashed_) return;
  const uint64_t generation = generation_;
  retry_timer_ = sim_->After(config_.force_timeout, [this, generation]() {
    if (generation != generation_) return;
    retry_timer_ = 0;
    OnRetryTimer();
  });
}

void LogClient::OnRetryTimer() {
  if (crashed_ || !initialized_ || force_waiters_.empty()) return;
  // Per write-set server: any forced record sent there but unacked?
  std::vector<ServerLink*> to_switch;
  for (ServerLink* link : WriteSet()) {
    if (InShedBackoff(*link)) {
      // Shed, not dead: the backoff wakeup resumes this link. Counting
      // these rounds as silence would churn write sets under overload.
      link->acked_at_last_round = link->acked_high;
      continue;
    }
    bool lagging = false;
    for (Lsn lsn = pending_.front(); lsn < pending_.end(); ++lsn) {
      const PendingRecord* pr = pending_.Find(lsn);
      if (pr != nullptr && pr->forced && (pr->sent_to & link->bit) != 0 &&
          (pr->acked_by & link->bit) == 0) {
        lagging = true;
        break;
      }
    }
    if (!lagging) {
      link->silent_rounds = 0;
      link->acked_at_last_round = link->acked_high;
      continue;
    }
    if (link->acked_high > link->acked_at_last_round) {
      link->silent_rounds = 0;  // making progress, just slow
    } else {
      ++link->silent_rounds;
    }
    link->acked_at_last_round = link->acked_high;

    if (link->silent_rounds > config_.force_retries) {
      to_switch.push_back(link);
      continue;
    }
    // "If it uses the ForceLog message and does not get a response, it
    // retries a number of times before moving to a different server."
    EnsureConnected(link);
    if (link->conn == nullptr) continue;
    // The token bucket bounds the retry rate so resends cannot amplify
    // an overload; the next timer round tries again. (MissingInterval
    // gap repair is a correctness path and stays unbudgeted.)
    if (config_.retry.enabled &&
        !retry_policy_.TryAcquireRetryToken(sim_->Now())) {
      retries_suppressed_.Increment();
      continue;
    }
    wire::RecordBatch batch;
    batch.client = config_.client_id;
    batch.epoch = epoch_;
    size_t bytes = wire::RecordBatchOverhead();
    for (Lsn lsn = pending_.front(); lsn < pending_.end(); ++lsn) {
      const PendingRecord* pr = pending_.Find(lsn);
      if (pr == nullptr || (pr->sent_to & link->bit) == 0 ||
          (pr->acked_by & link->bit) != 0) {
        continue;
      }
      const size_t cost = wire::EncodedRecordSize(pr->record);
      if (bytes + cost > config_.mtu_payload) break;
      batch.records.push_back(pr->record);
      bytes += cost;
    }
    resends_.Increment();
    if (tracer_ != nullptr) {
      obs::SpanContext send =
          tracer_->StartSpan("wire.send", trace_node_, ForceContext());
      tracer_->AddArg(send, "server", link->node);
      tracer_->AddArg(send, "records", batch.records.size());
      batch.trace = send.trace;
      batch.span = send.span;
    }
    link->conn->Send(
        wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch),
        batch.trace, batch.span);
  }
  for (ServerLink* link : to_switch) SwitchAwayFrom(link);
  PumpSends();
  ArmRetryTimer();
}

void LogClient::SwitchAwayFrom(ServerLink* link) {
  // "Clients will simply assume that the server has failed and will take
  // their logging elsewhere."
  link->in_write_set = false;
  link->silent_rounds = 0;
  write_set_.erase(
      std::remove(write_set_.begin(), write_set_.end(), link->node),
      write_set_.end());
  LeaveWriteSetMember(link->node);
  avoid_until_[link->node] = sim_->Now() + config_.server_retry_backoff;
  server_switches_.Increment();
  // Unacked records sent to the deserter still need N copies; make them
  // eligible for the replacement by dropping the deserter's claim. (Acks
  // it already gave still count.)
  ChooseWriteSet();  // fills the vacancy and announces NewInterval
}

Lsn LogClient::TruncateLog(Lsn below) {
  if (crashed_ || !initialized_) return kNoLsn;
  // Keep the most recent δ records (the restart recovery procedure reads
  // and re-copies them) and anything still awaiting replication.
  const Lsn durable_end =
      pending_.empty() ? next_lsn_ - 1 : pending_.front() - 1;
  const Lsn keep_from =
      durable_end > config_.delta ? durable_end - config_.delta : kNoLsn;
  below = std::min(below, keep_from + 1);
  if (below <= 1) return kNoLsn;

  wire::TruncateLogMsg msg{config_.client_id, below};
  const Bytes encoded = wire::EncodeTruncateLog(msg);
  for (net::NodeId node : config_.servers) {
    ServerLink* link = LinkOf(node);
    if (link == nullptr) continue;
    EnsureConnected(link);
    if (link->conn != nullptr) link->conn->Send(encoded);
  }
  view_.TruncateBelow(below);
  read_cache_.erase(read_cache_.begin(), read_cache_.lower_bound(below));
  return below;
}

// --- Media repair ---

struct LogClient::RepairState {
  uint64_t generation = 0;
  std::function<void(Status)> done;
  bool finished = false;

  // Interval gather.
  int responses = 0;
  int failures = 0;
  bool gathered = false;
  std::vector<ServerInterval> intervals;

  // Segments needing repair, processed sequentially.
  struct Work {
    Lsn low = kNoLsn;
    Lsn high = kNoLsn;
    std::vector<ServerId> holders;
    int missing = 0;
  };
  std::deque<Work> queue;
  // Current segment progress.
  std::vector<LogRecord> records;
  Lsn cursor = kNoLsn;
  std::vector<net::NodeId> targets;
  size_t copy_acks = 0;
  size_t copy_calls_needed = 0;
  size_t install_acks = 0;
  bool partial = false;  // some segment could not be repaired
  /// A failure was an explicit server shed (RpcStatus::kOverloaded), not
  /// absence: report Overloaded so the caller backs off instead of
  /// treating the cluster as down.
  bool overloaded = false;
};

void LogClient::RepairLog(std::function<void(Status)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  auto st = std::make_shared<RepairState>();
  st->generation = generation_;
  st->done = std::move(done);

  auto finish = [this, st](Status status) {
    if (st->finished) return;
    st->finished = true;
    st->done(status);
  };

  // Step 3 (declared first; steps chain backwards): process the queue.
  // Each recursive step captures itself weakly and takes a strong
  // reference while it runs: the outstanding RPC callbacks own the
  // chain, so it is freed once none remains.
  auto process = std::make_shared<std::function<void()>>();
  *process = [this, st, self = std::weak_ptr(process), finish]() {
    const auto process = self.lock();
    if (st->generation != generation_ || st->finished) return;
    if (st->queue.empty()) {
      if (!st->partial) {
        finish(Status::OK());
      } else if (st->overloaded) {
        finish(Status::Overloaded(
            "repair shed by overloaded servers; retry after backoff"));
      } else {
        finish(Status::Unavailable(
            "some records could not be re-replicated"));
      }
      return;
    }
    RepairState::Work& work = st->queue.front();

    // Choose repair targets: servers that do not hold the segment.
    st->targets.clear();
    for (net::NodeId node : config_.servers) {
      if (static_cast<int>(st->targets.size()) >= work.missing) break;
      if (std::find(work.holders.begin(), work.holders.end(), node) !=
          work.holders.end()) {
        continue;
      }
      st->targets.push_back(node);
    }
    if (static_cast<int>(st->targets.size()) < work.missing) {
      st->partial = true;
      st->queue.pop_front();
      (*process)();
      return;
    }

    // Read the segment's records from holders, then copy to targets.
    st->records.clear();
    st->cursor = work.low;
    auto read_chunk = std::make_shared<std::function<void(size_t)>>();
    *read_chunk = [this, st, process, self = std::weak_ptr(read_chunk),
                   finish](size_t holder_index) {
      const auto read_chunk = self.lock();
      if (st->generation != generation_ || st->finished) return;
      RepairState::Work& w = st->queue.front();
      if (st->cursor > w.high) {
        // All records read; stage the copies (re-stamped with the
        // current epoch) on every target, then install.
        std::vector<LogRecord> copies;
        for (const LogRecord& r : st->records) {
          LogRecord copy = r;
          copy.epoch = epoch_;
          copies.push_back(std::move(copy));
        }
        std::vector<std::vector<LogRecord>> chunks;
        std::vector<LogRecord> chunk;
        size_t bytes = wire::RecordBatchOverhead();
        for (const LogRecord& r : copies) {
          const size_t cost = wire::EncodedRecordSize(r);
          if (!chunk.empty() && bytes + cost > config_.mtu_payload) {
            chunks.push_back(std::move(chunk));
            chunk.clear();
            bytes = wire::RecordBatchOverhead();
          }
          chunk.push_back(r);
          bytes += cost;
        }
        if (!chunk.empty()) chunks.push_back(std::move(chunk));

        st->copy_acks = 0;
        st->install_acks = 0;
        st->copy_calls_needed = chunks.size() * st->targets.size();
        if (st->copy_calls_needed == 0) {
          st->queue.pop_front();
          (*process)();
          return;
        }
        for (net::NodeId node : st->targets) {
          ServerLink* link = &LinkFor(node);
          EnsureConnected(link);
          for (const std::vector<LogRecord>& c : chunks) {
            wire::CopyLogReq creq;
            creq.client = config_.client_id;
            creq.epoch = epoch_;
            creq.records = c;
            link->rpc->Call(
                [creq](uint64_t id) {
                  return wire::EncodeCopyLogReq(creq, id);
                },
                RpcOpts(),
                [this, st, process, finish,
                 copies](Result<wire::Envelope> env) {
                  if (st->generation != generation_ || st->finished) return;
                  bool ok = false;
                  if (env.ok()) {
                    auto resp = wire::DecodeCopyLogResp(env->body);
                    ok = resp.ok() &&
                         resp->status == wire::RpcStatus::kOk;
                    if (resp.ok() &&
                        resp->status == wire::RpcStatus::kOverloaded) {
                      st->overloaded = true;
                    }
                  }
                  if (!ok) {
                    st->partial = true;
                    st->queue.pop_front();
                    (*process)();
                    return;
                  }
                  if (++st->copy_acks < st->copy_calls_needed) return;
                  // Install on every target.
                  for (net::NodeId inode : st->targets) {
                    ServerLink* ilink = LinkOf(inode);
                    wire::InstallCopiesReq ireq{config_.client_id, epoch_};
                    ilink->rpc->Call(
                        [ireq](uint64_t id) {
                          return wire::EncodeInstallCopiesReq(ireq, id);
                        },
                        RpcOpts(),
                        [this, st, process, finish, inode,
                         copies](Result<wire::Envelope> ienv) {
                          if (st->generation != generation_ ||
                              st->finished) {
                            return;
                          }
                          bool iok = false;
                          if (ienv.ok()) {
                            auto iresp =
                                wire::DecodeInstallCopiesResp(ienv->body);
                            iok = iresp.ok() && iresp->status ==
                                                    wire::RpcStatus::kOk;
                            if (iresp.ok() &&
                                iresp->status ==
                                    wire::RpcStatus::kOverloaded) {
                              st->overloaded = true;
                            }
                          }
                          if (!iok) {
                            st->partial = true;
                            st->queue.pop_front();
                            (*process)();
                            return;
                          }
                          if (++st->install_acks < st->targets.size()) {
                            return;
                          }
                          // Segment repaired: note the new holders.
                          for (const LogRecord& r : copies) {
                            std::vector<ServerId> holders(
                                st->targets.begin(), st->targets.end());
                            view_.NoteWrite(r.lsn, r.epoch, holders);
                          }
                          st->queue.pop_front();
                          (*process)();
                        });
                  }
                });
          }
        }
        return;
      }

      // Read the next run of records starting at the cursor.
      if (holder_index >= w.holders.size()) {
        st->partial = true;
        st->queue.pop_front();
        (*process)();
        return;
      }
      ServerLink* link = LinkOf(w.holders[holder_index]);
      if (link == nullptr) {
        (*read_chunk)(holder_index + 1);
        return;
      }
      EnsureConnected(link);
      wire::ReadLogReq req{config_.client_id, st->cursor};
      link->rpc->Call(
          [req](uint64_t id) {
            return wire::EncodeReadLogReq(
                wire::MessageType::kReadLogForwardReq, req, id);
          },
          RpcOpts(),
          [this, st, read_chunk, holder_index](Result<wire::Envelope> env) {
            if (st->generation != generation_ || st->finished) return;
            RepairState::Work& w2 = st->queue.front();
            if (env.ok()) {
              auto resp = wire::DecodeReadLogResp(env->body);
              if (resp.ok() && resp->status == wire::RpcStatus::kOk &&
                  !resp->records.empty() &&
                  resp->records.front().lsn == st->cursor) {
                for (const LogRecord& r : resp->records) {
                  if (r.lsn < st->cursor || r.lsn > w2.high) continue;
                  st->records.push_back(r);
                  st->cursor = r.lsn + 1;
                }
                (*read_chunk)(0);
                return;
              }
            }
            (*read_chunk)(holder_index + 1);
          });
    };
    (*read_chunk)(0);
  };

  // Step 1: gather fresh interval lists from every server.
  const int m = static_cast<int>(config_.servers.size());
  for (net::NodeId node : config_.servers) {
    ServerLink* link = &LinkFor(node);
    EnsureConnected(link);
    wire::IntervalListReq req{config_.client_id};
    link->rpc->Call(
        [req](uint64_t id) { return wire::EncodeIntervalListReq(req, id); },
        RpcOpts(),
        [this, st, node, m, process, finish](Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->gathered) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            auto resp = wire::DecodeIntervalListResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              for (const Interval& iv : resp->intervals) {
                st->intervals.push_back(ServerInterval{node, iv});
              }
            }
          }
          ok ? ++st->responses : ++st->failures;
          if (st->responses + st->failures < m) return;
          st->gathered = true;
          if (st->responses < m - config_.copies + 1) {
            finish(Status::Unavailable(
                "fewer than M-N+1 servers answered the repair survey"));
            return;
          }
          // Step 2: find under-replicated segments.
          MergedLogView survey = MergedLogView::Build(st->intervals);
          for (const MergedLogView::Segment& seg : survey.segments()) {
            if (static_cast<int>(seg.servers.size()) >= config_.copies) {
              continue;
            }
            RepairState::Work work;
            work.low = seg.low;
            work.high = seg.high;
            work.holders = seg.servers;
            work.missing =
                config_.copies - static_cast<int>(seg.servers.size());
            st->queue.push_back(std::move(work));
          }
          (*process)();
        });
  }
}

// --- Reads ---

void LogClient::ReadLog(Lsn lsn, std::function<void(Result<Bytes>)> done) {
  if (crashed_ || !initialized_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::FailedPrecondition("log client not ready"));
    });
    return;
  }
  if (lsn == kNoLsn || lsn >= next_lsn_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::OutOfRange("beyond end of log"));
    });
    return;
  }
  // Locally buffered or cached records need no server round trip (the
  // paper's Section 5.2 motivation: aborts read from the client cache).
  if (const PendingRecord* pr = pending_.Find(lsn)) {
    // User-facing materialization: reads hand back an owned copy.
    Bytes data = pr->record.data.ToBytes();
    sim_->After(0, [done = std::move(done), data = std::move(data)]() {
      done(data);
    });
    return;
  }
  auto cit = read_cache_.find(lsn);
  if (cit != read_cache_.end()) {
    const LogRecord& rec = cit->second;
    Result<Bytes> result =
        rec.present ? Result<Bytes>(rec.data.ToBytes())
                    : Result<Bytes>(
                          Status::NotFound("record marked not present"));
    sim_->After(0,
                [done = std::move(done), result = std::move(result)]() {
                  done(result);
                });
    return;
  }

  const MergedLogView::Segment* seg = view_.Find(lsn);
  if (seg == nullptr) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::NotFound("no server holds this record"));
    });
    return;
  }

  auto st = std::make_shared<ReadState>();
  st->lsn = lsn;
  st->generation = generation_;
  st->holders = seg->servers;
  st->done = std::move(done);
  ReadFromHolder(std::move(st), 0);
}

void LogClient::ReadFromHolder(std::shared_ptr<ReadState> st, size_t index) {
  if (st->generation != generation_) {
    st->done(Status::Aborted("client crashed"));
    return;
  }
  if (index >= st->holders.size()) {
    st->done(Status::Unavailable("no holder answered"));
    return;
  }
  ServerLink* link = LinkOf(st->holders[index]);
  if (link == nullptr) {
    ReadFromHolder(std::move(st), index + 1);
    return;
  }
  EnsureConnected(link);
  wire::ReadLogReq req{config_.client_id, st->lsn};
  link->rpc->Call(
      [req](uint64_t id) {
        return wire::EncodeReadLogReq(wire::MessageType::kReadLogForwardReq,
                                      req, id);
      },
      RpcOpts(),
      [this, st, index](Result<wire::Envelope> env) {
        if (st->generation != generation_) {
          st->done(Status::Aborted("client crashed"));
          return;
        }
        if (!env.ok()) {
          ReadFromHolder(st, index + 1);
          return;
        }
        Result<wire::ReadLogResp> resp = wire::DecodeReadLogResp(env->body);
        if (!resp.ok() || resp->status != wire::RpcStatus::kOk ||
            resp->records.empty() || resp->records.front().lsn != st->lsn) {
          ReadFromHolder(st, index + 1);
          return;
        }
        // Cache the packed extra records for future reads.
        for (const LogRecord& r : resp->records) {
          if (read_cache_.size() > 4096) break;
          read_cache_[r.lsn] = r;
        }
        const LogRecord& rec = resp->records.front();
        if (!rec.present) {
          st->done(Status::NotFound("record marked not present"));
        } else {
          st->done(rec.data.ToBytes());
        }
      });
}

// --- Initialization ---

void LogClient::Init(std::function<void(Status)> done) {
  if (crashed_) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::Aborted("client crashed"));
    });
    return;
  }
  initialized_ = false;
  auto st = std::make_shared<InitState>();
  st->done = std::move(done);
  st->generation = generation_;
  ConnectAll();
  StartIntervalGather(st);
}

void LogClient::FinishInit(std::shared_ptr<InitState> st, Status status) {
  if (st->finished) return;
  st->finished = true;
  if (status.ok()) initialized_ = true;
  st->done(status);
}

void LogClient::StartIntervalGather(std::shared_ptr<InitState> st) {
  const int m = static_cast<int>(config_.servers.size());
  const int needed = m - config_.copies + 1;
  for (net::NodeId node : config_.servers) {
    ServerLink* link = LinkOf(node);
    wire::IntervalListReq req{config_.client_id};
    link->rpc->Call(
        [req](uint64_t id) { return wire::EncodeIntervalListReq(req, id); },
        RpcOpts(),
        [this, st, node, m, needed](Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->intervals_done) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            Result<wire::IntervalListResp> resp =
                wire::DecodeIntervalListResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              for (const Interval& iv : resp->intervals) {
                st->intervals.push_back(ServerInterval{node, iv});
              }
            }
          }
          ok ? ++st->interval_ok : ++st->interval_fail;
          if (st->interval_ok >= needed) {
            st->intervals_done = true;
            StartEpochAcquisition(st);
          } else if (st->interval_fail > m - needed) {
            st->intervals_done = true;
            FinishInit(st, Status::Unavailable(
                               "fewer than M-N+1 interval lists gathered"));
          }
        });
  }
}

void LogClient::StartEpochAcquisition(std::shared_ptr<InitState> st) {
  const int reps = static_cast<int>(config_.generator_reps.size());
  const int read_quorum = (reps + 2) / 2;   // ceil((R+1)/2)
  const int write_quorum = (reps + 1) / 2;  // ceil(R/2)

  for (net::NodeId node : config_.generator_reps) {
    ServerLink* link = LinkOf(node);
    wire::GenReadReq req{config_.client_id};
    link->rpc->Call(
        [req](uint64_t id) { return wire::EncodeGenReadReq(req, id); },
        RpcOpts(),
        [this, st, reps, read_quorum, write_quorum](
            Result<wire::Envelope> env) {
          if (st->generation != generation_ || st->finished ||
              st->gen_read_done) {
            return;
          }
          bool ok = false;
          if (env.ok()) {
            Result<wire::GenReadResp> resp = wire::DecodeGenReadResp(env->body);
            if (resp.ok() && resp->status == wire::RpcStatus::kOk) {
              ok = true;
              st->gen_max = std::max(st->gen_max, resp->value);
            }
          }
          ok ? ++st->gen_read_ok : ++st->gen_read_fail;
          if (st->gen_read_ok >= read_quorum) {
            st->gen_read_done = true;
            st->gen_value = st->gen_max + 1;
            // Write phase.
            for (net::NodeId wnode : config_.generator_reps) {
              ServerLink* wlink = LinkOf(wnode);
              wire::GenWriteReq wreq{config_.client_id, st->gen_value};
              wlink->rpc->Call(
                  [wreq](uint64_t id) {
                    return wire::EncodeGenWriteReq(wreq, id);
                  },
                  RpcOpts(),
                  [this, st, reps, write_quorum](Result<wire::Envelope> wenv) {
                    if (st->generation != generation_ || st->finished ||
                        st->gen_write_done) {
                      return;
                    }
                    bool wok = false;
                    if (wenv.ok()) {
                      auto wresp = wire::DecodeGenWriteResp(wenv->body);
                      wok = wresp.ok() &&
                            wresp->status == wire::RpcStatus::kOk;
                    }
                    wok ? ++st->gen_write_ok : ++st->gen_write_fail;
                    if (st->gen_write_ok >= write_quorum) {
                      st->gen_write_done = true;
                      StartRecoveryCopy(st);
                    } else if (st->gen_write_fail > reps - write_quorum) {
                      st->gen_write_done = true;
                      FinishInit(st, Status::Unavailable(
                                         "generator write quorum failed"));
                    }
                  });
            }
          } else if (st->gen_read_fail > reps - read_quorum) {
            st->gen_read_done = true;
            FinishInit(st, Status::Unavailable(
                               "generator read quorum failed"));
          }
        });
  }
}

void LogClient::StartRecoveryCopy(std::shared_ptr<InitState> st) {
  view_ = MergedLogView::Build(st->intervals);
  epoch_ = st->gen_value;
  if (view_.MaxEpoch().has_value() && epoch_ <= *view_.MaxEpoch()) {
    FinishInit(st, Status::Internal("generator epoch not above log epochs"));
    return;
  }

  const std::optional<Lsn> high = view_.HighLsn();
  if (!high.has_value()) {
    next_lsn_ = 1;
    ChooseWriteSet();
    FinishInit(st, Status::OK());
    return;
  }
  st->high = *high;

  // The most recent δ records may each be partially written; read them
  // all back (Section 4.2's generalization of the single-record copy).
  const Lsn delta = std::min<Lsn>(config_.delta, st->high);
  for (Lsn lsn = st->high - delta + 1; lsn <= st->high; ++lsn) {
    st->tail_lsns.push_back(lsn);
  }

  // Sequential async read of each tail record. The steps capture
  // themselves weakly (see RepairLog): pending RPC callbacks own them.
  auto read_next = std::make_shared<std::function<void()>>();
  *read_next = [this, st, self = std::weak_ptr(read_next)]() {
    const auto read_next = self.lock();
    if (st->generation != generation_ || st->finished) return;
    if (st->tail_cursor >= st->tail_lsns.size()) {
      // All tail records read: choose targets and copy.
      ChooseWriteSet();
      for (net::NodeId node : write_set_) st->targets.push_back(node);
      if (st->targets.size() < static_cast<size_t>(config_.copies)) {
        FinishInit(st, Status::Unavailable("not enough copy targets"));
        return;
      }

      // Build the copy batch: δ tail records re-stamped with the new
      // epoch, then δ not-present records above the old end of log.
      std::vector<LogRecord> copies;
      for (const auto& [lsn, rec] : st->tail_records) {
        LogRecord copy = rec;
        copy.epoch = epoch_;
        copies.push_back(std::move(copy));
      }
      const Lsn delta2 = std::min<Lsn>(config_.delta, st->high);
      for (Lsn lsn = st->high + 1; lsn <= st->high + delta2; ++lsn) {
        LogRecord np;
        np.lsn = lsn;
        np.epoch = epoch_;
        np.present = false;
        copies.push_back(std::move(np));
      }
      next_lsn_ = st->high + delta2 + 1;

      // Chunk the copies so each CopyLog call fits in a network packet.
      std::vector<std::vector<LogRecord>> chunks;
      {
        std::vector<LogRecord> chunk;
        size_t bytes = wire::RecordBatchOverhead();
        for (const LogRecord& r : copies) {
          const size_t cost = wire::EncodedRecordSize(r);
          if (!chunk.empty() && bytes + cost > config_.mtu_payload) {
            chunks.push_back(std::move(chunk));
            chunk.clear();
            bytes = wire::RecordBatchOverhead();
          }
          chunk.push_back(r);
          bytes += cost;
        }
        if (!chunk.empty()) chunks.push_back(std::move(chunk));
      }
      const size_t copy_calls_needed =
          chunks.size() * st->targets.size();

      for (net::NodeId node : st->targets) {
        ServerLink* link = LinkOf(node);
        for (const std::vector<LogRecord>& chunk : chunks) {
          wire::CopyLogReq creq;
          creq.client = config_.client_id;
          creq.epoch = epoch_;
          creq.records = chunk;
          link->rpc->Call(
              [creq](uint64_t id) {
                return wire::EncodeCopyLogReq(creq, id);
              },
              RpcOpts(),
              [this, st, node, copies,
               copy_calls_needed](Result<wire::Envelope> env) {
                if (st->generation != generation_ || st->finished) return;
                bool ok = false;
                bool shed = false;
                if (env.ok()) {
                  auto resp = wire::DecodeCopyLogResp(env->body);
                  ok = resp.ok() && resp->status == wire::RpcStatus::kOk;
                  shed = resp.ok() &&
                         resp->status == wire::RpcStatus::kOverloaded;
                }
                if (!ok) {
                  // An explicit shed is not "server down": report
                  // Overloaded so the caller retries with backoff rather
                  // than treating the cluster as unavailable.
                  FinishInit(st, shed ? Status::Overloaded(
                                            "CopyLog shed by server")
                                      : Status::Unavailable(
                                            "CopyLog failed"));
                  return;
                }
                if (++st->copy_acks < copy_calls_needed) {
                  return;
                }
              // All copies staged: install everywhere.
              for (net::NodeId inode : st->targets) {
                ServerLink* ilink = LinkOf(inode);
                wire::InstallCopiesReq ireq{config_.client_id, epoch_};
                ilink->rpc->Call(
                    [ireq](uint64_t id) {
                      return wire::EncodeInstallCopiesReq(ireq, id);
                    },
                    RpcOpts(),
                    [this, st, inode, copies](Result<wire::Envelope> ienv) {
                      if (st->generation != generation_ || st->finished) {
                        return;
                      }
                      bool iok = false;
                      bool ished = false;
                      if (ienv.ok()) {
                        auto iresp = wire::DecodeInstallCopiesResp(ienv->body);
                        iok = iresp.ok() &&
                              iresp->status == wire::RpcStatus::kOk;
                        ished = iresp.ok() &&
                                iresp->status == wire::RpcStatus::kOverloaded;
                      }
                      if (!iok) {
                        FinishInit(st, ished ? Status::Overloaded(
                                                   "InstallCopies shed "
                                                   "by server")
                                             : Status::Unavailable(
                                                   "InstallCopies failed"));
                        return;
                      }
                      if (++st->install_acks <
                          static_cast<size_t>(config_.copies)) {
                        return;
                      }
                      // Recovery complete: update the cached view and the
                      // per-link stream positions.
                      for (const LogRecord& r : copies) {
                        std::vector<ServerId> holders(st->targets.begin(),
                                                      st->targets.end());
                        view_.NoteWrite(r.lsn, r.epoch, holders);
                      }
                      for (net::NodeId tnode : st->targets) {
                        ServerLink* tlink = LinkOf(tnode);
                        tlink->sent_high = next_lsn_ - 1;
                        tlink->acked_high =
                            std::max(tlink->acked_high, next_lsn_ - 1);
                      }
                      FinishInit(st, Status::OK());
                    });
              }
            });
        }
      }
      return;
    }

    // Read one tail record from any holder.
    const Lsn lsn = st->tail_lsns[st->tail_cursor];
    const MergedLogView::Segment* seg = view_.Find(lsn);
    if (seg == nullptr) {
      // A hole inside the last δ records means the record was partially
      // written and its holder did not answer IntervalList; it will be
      // superseded by a not-present record. Synthesize nothing.
      ++st->tail_cursor;
      (*read_next)();
      return;
    }
    auto holders = std::make_shared<std::vector<ServerId>>(seg->servers);
    auto attempt = std::make_shared<std::function<void(size_t)>>();
    *attempt = [this, st, read_next, self = std::weak_ptr(attempt), holders,
                lsn](size_t index) {
      const auto attempt = self.lock();
      if (st->generation != generation_ || st->finished) return;
      if (index >= holders->size()) {
        FinishInit(st,
                   Status::Unavailable("no holder of a tail record answers"));
        return;
      }
      ServerLink* link = LinkOf((*holders)[index]);
      if (link == nullptr) {
        (*attempt)(index + 1);
        return;
      }
      EnsureConnected(link);
      wire::ReadLogReq req{config_.client_id, lsn};
      link->rpc->Call(
          [req](uint64_t id) {
            return wire::EncodeReadLogReq(
                wire::MessageType::kReadLogForwardReq, req, id);
          },
          RpcOpts(),
          [this, st, read_next, attempt, index,
           lsn](Result<wire::Envelope> env) {
            if (st->generation != generation_ || st->finished) return;
            if (env.ok()) {
              auto resp = wire::DecodeReadLogResp(env->body);
              if (resp.ok() && resp->status == wire::RpcStatus::kOk &&
                  !resp->records.empty() &&
                  resp->records.front().lsn == lsn) {
                st->tail_records[lsn] = resp->records.front();
                ++st->tail_cursor;
                (*read_next)();
                return;
              }
            }
            (*attempt)(index + 1);
          });
    };
    (*attempt)(0);
  };
  (*read_next)();
}

void LogClient::Crash() {
  if (crashed_) return;
  crashed_ = true;
  initialized_ = false;
  ++generation_;
  if (retry_timer_ != 0) {
    sim_->Cancel(retry_timer_);
    retry_timer_ = 0;
  }
  force_waiters_.clear();
  force_ctx_cache_ = {};
  force_ctx_valid_spans_ = 0;
  pending_ = PendingRing();
  unacked_sent_records_ = 0;
  read_cache_.clear();
  for (net::NodeId node : write_set_) LeaveWriteSetMember(node);
  write_set_.clear();
  links_.clear();  // RpcClient destructors fail pending calls (guarded)
  endpoint_->Crash();
  for (auto& nic : nics_) nic->SetUp(false);
  for (size_t i = 0; i < networks_.size(); ++i) {
    networks_[i]->Detach(config_.node_id);
  }
}

}  // namespace dlog::client
