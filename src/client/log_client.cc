#include "client/log_client.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <deque>
#include <optional>
#include <utility>

#include "epoch/id_generator.h"

namespace dlog::client {
namespace {

/// What ReadLog answers for a record read back from a server: an owned
/// copy of its data (counted as a payload copy), or NotFound when it is
/// marked not present.
Result<Bytes> ReadResult(const wire::RecordView& record) {
  if (!record.present) return Status::NotFound("record marked not present");
  const std::span<const uint8_t> data = record.data();
  AddBytesCopied(data.size());
  return Bytes(data.begin(), data.end());
}

}  // namespace

// Per-Init transient state, shared by the steps of one Init.
struct LogClient::InitState {
  std::function<void(Status)> done;
  uint64_t generation = 0;
  std::vector<ServerInterval> intervals;
  /// The highest generator value the NewID read quorum returned.
  uint64_t gen_max = 0;
  /// The old end of log, and the next tail LSN to read back.
  Lsn high = kNoLsn;
  Lsn tail = kNoLsn;
  std::vector<LogRecord> tail_records;
};

// Per-RepairLog state: the survey, then the segments repaired in turn.
struct LogClient::RepairState {
  uint64_t generation = 0;
  std::function<void(Status)> done;
  std::vector<ServerInterval> intervals;
  /// Servers (ServerLink::bit) whose interval list arrived.
  uint64_t listed = 0;

  struct Work {
    Lsn low = kNoLsn;
    Lsn high = kNoLsn;
    std::vector<ServerId> holders;
    int missing = 0;
  };
  std::deque<Work> queue;
  // The front segment's targets, and its records read so far.
  std::vector<net::NodeId> targets;
  std::vector<LogRecord> records;
  Lsn cursor = kNoLsn;
  bool partial = false;  // some segment could not be repaired
  /// A failure was an explicit server shed (RpcStatus::kOverloaded), not
  /// absence: report Overloaded so the caller backs off instead of
  /// treating the cluster as down.
  bool overloaded = false;
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
  cpu_ = std::make_unique<sim::Cpu>(sim, config_.cpu_mips);
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
  constexpr size_t kNicRingSlots = 16;
  auto nic = std::make_unique<net::Nic>(sim_, kNicRingSlots);
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
  // With the adaptive window off every window is its initial size, so
  // the first established link gives the answer.
  registry->RegisterCallback(prefix + "flow/min_window_bytes", [this]() {
    const bool adaptive = config_.wire.adaptive_window.enabled;
    double min_window = 0.0;
    for (const auto& [node, link] : links_) {
      if (link.conn == nullptr || !link.conn->IsEstablished()) continue;
      const double w = static_cast<double>(link.conn->window_bytes());
      if (min_window == 0.0 || w < min_window) min_window = w;
      if (!adaptive) break;
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
      Result<wire::NewHighLsnMsg> m =
          wire::Decode<wire::NewHighLsnMsg>(env->body);
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
      Result<wire::OverloadedMsg> m =
          wire::Decode<wire::OverloadedMsg>(env->body);
      if (m.ok()) OnOverloaded(link, *m);
      return;
    }
    case wire::MessageType::kMissingInterval: {
      Result<wire::MissingIntervalMsg> m =
          wire::Decode<wire::MissingIntervalMsg>(env->body);
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
  if (slot.lsn != lsn) ++live_;
  slot = PendingRecord{};
  slot.lsn = lsn;
  return slot;
}

void LogClient::PendingRing::Retire(Lsn lsn) {
  Slot(lsn) = PendingRecord{};
  --live_;
  while (span_ > 0 && Slot(base_).lsn == kNoLsn) {
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
  // A record travels whole in one batch, and batches are packed against
  // mtu_payload: the network would drop a larger one on every send.
  if (wire::kRecordFixedBytes + data.size() > config_.mtu_payload) {
    return Status::InvalidArgument("record larger than one packet");
  }
  PendingRecord& pr = pending_.Add(next_lsn_);
  pr.epoch = epoch_;
  pr.data = std::move(data);
  bytes_buffered_ += pr.data.size();
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

void LogClient::CacheWriteSet() {
  // WriteSet() hands out copies: callers iterate while nested sends can
  // re-enter PumpSends (inline-delivery configurations) and change the
  // write set under the caller's feet.
  write_links_.clear();
  for (net::NodeId node : write_set_) {
    ServerLink* link = LinkOf(node);
    if (link != nullptr) write_links_.push_back(link);
  }
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
    CacheWriteSet();
    link.in_write_set = true;
    EnsureConnected(&link);
    JoinWriteSetMember(pick);
    // A server joining mid-stream needs a NewInterval announcement unless
    // its stream is already contiguous with what we will send next.
    const Lsn first = pending_.empty() ? next_lsn_ : pending_.front();
    if (link.sent_high != first - 1) {
      wire::NewIntervalMsg msg{config_.client_id, epoch_, first};
      if (link.conn != nullptr) link.conn->Send(wire::Encode(msg));
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
  for (size_t i = 0; i < force_waiters_.size(); ++i) {
    force_upto = std::max(force_upto, force_waiters_[i].upto);
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
    const size_t cost = pr->encoded_size();
    if (batch.count > 0 && batch.bytes + cost > config_.mtu_payload) {
      send_batch();
    }
    if (pr->sent_to == 0) ++unacked_sent;
    batch.Add(lsn, cost);
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
    Batch ping;
    ping.forced = true;
    Transmit(ping, link, ForceContext());
  }
}

void LogClient::SendBatch(const LinkList& targets, const Batch& batch,
                          bool to_group) {
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
  if (batch.forced && ForceContext().valid()) send_parent = ForceContext();
  Transmit(batch, to_group ? nullptr : targets[0], send_parent);
  batches_sent_.Increment();
}

void LogClient::Transmit(const Batch& batch, ServerLink* link,
                         obs::SpanContext parent) {
  wire::RecordBatch header;
  header.client = config_.client_id;
  header.epoch = epoch_;
  if (tracer_ != nullptr) {
    obs::SpanContext send =
        tracer_->StartSpan("wire.send", trace_node_, parent);
    if (link == nullptr) {
      tracer_->AddArg(send, "group", Group());
    } else {
      tracer_->AddArg(send, "server", link->node);
    }
    if (batch.first != kNoLsn) tracer_->AddArg(send, "records", batch.count);
    header.trace = send.trace;
    header.span = send.span;
  }
  wire::RecordBatchWriter writer(header, 0,
                                 batch.bytes - wire::RecordBatchOverhead(),
                                 batch.forced ? wire::MessageType::kForceLog
                                              : wire::MessageType::kWriteLog);
  for (Lsn lsn = batch.first; batch.count > 0 && lsn <= batch.last; ++lsn) {
    const PendingRecord* pr = pending_.Find(lsn);
    if (pr != nullptr && batch.Takes(*pr)) {
      writer.Add(pr->lsn, pr->epoch, pr->data);
    }
  }
  if (link == nullptr) {
    endpoint_->SendDatagram(Group(), writer.Take(), header.trace,
                            header.span);
  } else {
    link->conn->Send(writer.Take(), header.trace, header.span);
  }
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
    view_.NoteWrite(lsn, pr->epoch, {holders.data(), n});
    bytes_buffered_ -= pr->data.size();
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
    link->conn->Send(wire::Encode(msg));
    link->sent_high = std::max(link->sent_high, high);
    StreamTo(link);
    return;
  }
  if (first_pending > low) {
    // The prefix of the gap is durable elsewhere; skip the server past it.
    wire::NewIntervalMsg msg{config_.client_id, epoch_, first_pending};
    link->conn->Send(wire::Encode(msg));
  }
  // Resend the pending remainder of the gap as one force, however large:
  // the network drops an oversized one, which sheds load (ROADMAP).
  Batch batch;
  batch.forced = true;
  for (Lsn lsn = first_pending; lsn <= high && lsn < pending_.end(); ++lsn) {
    PendingRecord* pr = pending_.Find(lsn);
    if (pr == nullptr) continue;
    if (pr->sent_to == 0) ++unacked_sent_records_;
    pr->sent_to |= link->bit;
    batch.Add(lsn, pr->encoded_size());
  }
  resends_.Increment();
  Transmit(batch, link, ForceContext());
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
    // One packet of what the server has not acknowledged. The run starts
    // at the ring's front even when nothing there fits.
    Batch batch;
    batch.first = pending_.front();
    batch.unacked_by = link->bit;
    batch.forced = true;
    for (Lsn lsn = batch.first; lsn < pending_.end(); ++lsn) {
      const PendingRecord* pr = pending_.Find(lsn);
      if (pr == nullptr || !batch.Takes(*pr)) continue;
      const size_t cost = pr->encoded_size();
      if (batch.bytes + cost > config_.mtu_payload) break;
      batch.Add(lsn, cost);
    }
    resends_.Increment();
    Transmit(batch, link, ForceContext());
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
  CacheWriteSet();
  LeaveWriteSetMember(link->node);
  // How long to avoid a server after abandoning it as unresponsive.
  constexpr sim::Duration kServerRetryBackoff = 5 * sim::kSecond;
  avoid_until_[link->node] = sim_->Now() + kServerRetryBackoff;
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
  const Bytes encoded = wire::Encode(msg);
  for (net::NodeId node : config_.servers) {
    ServerLink* link = LinkOf(node);
    if (link == nullptr) continue;
    EnsureConnected(link);
    if (link->conn != nullptr) link->conn->Send(encoded);
  }
  view_.TruncateBelow(below);
  // No truncated LSN may be read back from the read-ahead.
  for (const wire::RecordView r : read_ahead_) {
    if (r.lsn < below) {
      read_ahead_ = {};
      break;
    }
  }
  return below;
}

// --- Recovery-time calls ---

template <typename Req>
std::vector<LogClient::Rpc<Req>> LogClient::ToEach(
    const std::vector<net::NodeId>& nodes, const Req& req) {
  std::vector<Rpc<Req>> calls;
  for (net::NodeId node : nodes) calls.push_back(Rpc<Req>{node, req});
  return calls;
}

template <typename Req>
void LogClient::Call(Rpc<Req> rpc, std::function<void(ReplyOf<Req>)> done) {
  ServerLink& link = LinkFor(rpc.node);
  EnsureConnected(&link);
  link.rpc->Call(
      rpc.req, RpcOpts(),
      [done = std::move(done)](Result<wire::Envelope> env) {
        if (!env.ok()) {
          done(env.status());
          return;
        }
        ReplyOf<Req> resp = wire::Decode<typename Req::Reply>(env->body);
        if (!resp.ok() || resp->status == wire::RpcStatus::kOk) {
          done(std::move(resp));
        } else if (resp->status == wire::RpcStatus::kOverloaded) {
          done(Status::Overloaded("call shed by server"));
        } else {
          done(Status::Unavailable("call failed at server"));
        }
      });
}

template <typename Req>
void LogClient::QuorumCall(std::vector<Rpc<Req>> calls, size_t need,
                           ReplyHook<Req> on_reply,
                           std::function<void(Status)> done) {
  assert(need >= 1 && need <= calls.size());
  struct Round {
    uint64_t generation = 0;
    size_t need = 0;   // successes still missing
    size_t spare = 0;  // failures that still leave `need` reachable
    bool shed = false;
    bool fired = false;
    ReplyHook<Req> on_reply;
    std::function<void(Status)> done;
  };
  auto round = std::make_shared<Round>();
  round->generation = generation_;
  round->need = need;
  round->spare = calls.size() - need;
  round->on_reply = std::move(on_reply);
  round->done = std::move(done);
  for (Rpc<Req>& rpc : calls) {
    const net::NodeId node = rpc.node;
    Call(std::move(rpc),
         [this, round, node](ReplyOf<Req> resp) {
           if (round->fired || round->generation != generation_) return;
           const Status status =
               round->on_reply ? round->on_reply(node, resp) : resp.status();
           if (status.ok()) {
             if (--round->need > 0) return;
           } else {
             round->shed = round->shed || status.IsOverloaded();
             if (round->spare > 0) {
               --round->spare;
               return;
             }
           }
           round->fired = true;
           if (status.ok()) {
             round->done(Status::OK());
           } else if (round->shed) {
             round->done(Status::Overloaded("round shed by a server"));
           } else {
             round->done(Status::Unavailable("quorum out of reach"));
           }
         });
  }
}

void LogClient::ReadFrom(std::vector<ServerId> holders, Lsn lsn,
                         std::function<void(Result<wire::RecordRun>)> done) {
  if (holders.empty()) {
    done(Status::Unavailable("no holder answered"));
    return;
  }
  const net::NodeId node = holders.front();
  holders.erase(holders.begin());
  Call(Rpc<wire::ReadLogReq>{node, {config_.client_id, lsn}},
       [this, generation = generation_, holders = std::move(holders), lsn,
        done = std::move(done)](Result<wire::ReadLogResp> resp) mutable {
         if (generation != generation_) {
           done(Status::Aborted("client crashed"));
         } else if (resp.ok() && !resp->records.empty() &&
                    resp->records.front().lsn == lsn) {
           done(std::move(resp->records));
         } else {
           ReadFrom(std::move(holders), lsn, std::move(done));
         }
       });
}

void LogClient::CopySegment(std::vector<LogRecord> records,
                            std::vector<net::NodeId> targets,
                            std::function<void(Status)> done) {
  // Chunk the copies so each CopyLog call fits in a network packet.
  std::vector<std::vector<LogRecord>> chunks;
  size_t chunk_bytes = 0;  // the last chunk's encoded size
  for (LogRecord& r : records) {
    r.epoch = epoch_;
    const size_t cost = wire::EncodedRecordSize(r);
    const bool fits = !chunks.empty() && wire::RecordBatchOverhead() +
                                                 chunk_bytes + cost <=
                                             config_.mtu_payload;
    if (!fits) {
      chunks.emplace_back();
      chunk_bytes = 0;
    }
    chunks.back().push_back(r);
    chunk_bytes += cost;
  }
  std::vector<wire::CopyLogReq> reqs;
  for (const std::vector<LogRecord>& chunk : chunks) {
    reqs.push_back({config_.client_id, epoch_, wire::RecordRun::Of(chunk)});
  }
  std::vector<Rpc<wire::CopyLogReq>> copies;
  for (net::NodeId node : targets) {
    for (const wire::CopyLogReq& req : reqs) copies.push_back({node, req});
  }
  const size_t calls = copies.size();
  QuorumCall(
      std::move(copies), calls, nullptr,
      [this, records = std::move(records), targets = std::move(targets),
       done = std::move(done)](Status staged) {
        // An explicit shed is not "server down": report Overloaded so
        // the caller retries with backoff.
        if (!staged.ok()) {
          done(staged.IsOverloaded()
                   ? Status::Overloaded("CopyLog shed by server")
                   : Status::Unavailable("CopyLog failed"));
          return;
        }
        // All copies staged: install everywhere.
        QuorumCall(
            ToEach(targets, wire::InstallCopiesReq{config_.client_id, epoch_}),
            targets.size(), nullptr,
            [this, records, targets, done](Status installed) {
              if (!installed.ok()) {
                done(installed.IsOverloaded()
                         ? Status::Overloaded("InstallCopies shed by server")
                         : Status::Unavailable("InstallCopies failed"));
                return;
              }
              for (const LogRecord& r : records) {
                view_.NoteWrite(r.lsn, r.epoch, targets);
              }
              done(Status::OK());
            });
      });
}

// --- Media repair ---

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

  // Survey every server: counting a segment's holders takes all M
  // answers, so a failed reply counts as answered; at least M-N+1 of
  // them must be real lists.
  QuorumCall(
      ToEach(config_.servers, wire::IntervalListReq{config_.client_id}),
      config_.servers.size(),
      [this, st](net::NodeId node,
                 const Result<wire::IntervalListResp>& resp) {
        if (resp.ok()) {
          st->listed |= BitOf(node);
          for (const Interval& iv : resp->intervals) {
            st->intervals.push_back(ServerInterval{node, iv});
          }
        }
        return Status::OK();
      },
      [this, st](Status) {
        const int m = static_cast<int>(config_.servers.size());
        if (std::popcount(st->listed) < m - config_.copies + 1) {
          st->done(Status::Unavailable(
              "fewer than M-N+1 servers answered the repair survey"));
          return;
        }
        // Queue the under-replicated segments.
        const MergedLogView survey = MergedLogView::Build(st->intervals);
        for (const MergedLogView::Segment& seg : survey.segments()) {
          const int missing =
              config_.copies - static_cast<int>(seg.servers.size());
          if (missing > 0) {
            st->queue.push_back({seg.low, seg.high, seg.servers, missing});
          }
        }
        RepairNext(st);
      });
}

void LogClient::RepairNext(std::shared_ptr<RepairState> st) {
  if (st->queue.empty()) {
    if (!st->partial) {
      st->done(Status::OK());
    } else if (st->overloaded) {
      st->done(Status::Overloaded(
          "repair shed by overloaded servers; retry after backoff"));
    } else {
      st->done(Status::Unavailable("some records could not be re-replicated"));
    }
    return;
  }
  const RepairState::Work& work = st->queue.front();

  // Choose repair targets: servers that do not hold the segment.
  st->targets.clear();
  for (net::NodeId node : config_.servers) {
    if (static_cast<int>(st->targets.size()) >= work.missing) break;
    if (std::find(work.holders.begin(), work.holders.end(), node) ==
        work.holders.end()) {
      st->targets.push_back(node);
    }
  }
  if (static_cast<int>(st->targets.size()) < work.missing) {
    EndSegment(std::move(st), Status::Unavailable("no spare server"));
    return;
  }
  st->records.clear();
  st->cursor = work.low;
  RepairRead(std::move(st));
}

void LogClient::RepairRead(std::shared_ptr<RepairState> st) {
  const RepairState::Work& work = st->queue.front();
  if (st->cursor > work.high) {
    // All records read: copy them to the targets.
    CopySegment(std::move(st->records), st->targets,
                [this, st](Status copied) { EndSegment(st, copied); });
    return;
  }
  // Read the next run of records starting at the cursor.
  ReadFrom(work.holders, st->cursor,
           [this, st](Result<wire::RecordRun> read) {
             if (st->generation != generation_) return;
             if (!read.ok()) {
               EndSegment(st, read.status());
               return;
             }
             const Lsn high = st->queue.front().high;
             for (const wire::RecordView r : *read) {
               if (r.lsn < st->cursor || r.lsn > high) continue;
               st->records.push_back(wire::ToLogRecord(read->Share(r)));
               st->cursor = r.lsn + 1;
             }
             RepairRead(st);
           });
}

void LogClient::EndSegment(std::shared_ptr<RepairState> st,
                           const Status& status) {
  if (!status.ok()) {
    st->partial = true;
    st->overloaded = st->overloaded || status.IsOverloaded();
  }
  st->queue.pop_front();
  RepairNext(std::move(st));
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
    AddBytesCopied(pr->data.size());
    sim_->After(0, [done = std::move(done), data = pr->data]() mutable {
      done(std::move(data));
    });
    return;
  }
  // A reply may carry one LSN twice; its last copy answers.
  std::optional<wire::RecordView> ahead;
  for (const wire::RecordView r : read_ahead_) {
    if (r.lsn == lsn) ahead = r;
  }
  if (ahead.has_value()) {
    sim_->After(0, [done = std::move(done),
                    result = ReadResult(*ahead)]() mutable {
      done(std::move(result));
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
  ReadFrom(seg->servers, lsn,
           [this, done = std::move(done)](Result<wire::RecordRun> read) {
             if (!read.ok()) {
               done(read.status());
               return;
             }
             read_ahead_ = std::move(*read);
             done(ReadResult(read_ahead_.front()));
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

  // Merge the interval lists of any M-N+1 servers (Section 3.1.2).
  QuorumCall(
      ToEach(config_.servers, wire::IntervalListReq{config_.client_id}),
      config_.servers.size() - config_.copies + 1,
      [st](net::NodeId node, const Result<wire::IntervalListResp>& resp) {
        if (resp.ok()) {
          for (const Interval& iv : resp->intervals) {
            st->intervals.push_back(ServerInterval{node, iv});
          }
        }
        return resp.status();
      },
      [this, st](Status gathered) {
        if (!gathered.ok()) {
          FinishInit(*st, Status::Unavailable(
                              "fewer than M-N+1 interval lists gathered"));
          return;
        }
        AcquireEpoch(st);
      });
}

void LogClient::FinishInit(const InitState& st, Status status) {
  if (status.ok()) initialized_ = true;
  st.done(status);
}

void LogClient::AcquireEpoch(std::shared_ptr<InitState> st) {
  const size_t reps = config_.generator_reps.size();
  QuorumCall(
      ToEach(config_.generator_reps, wire::GenReadReq{config_.client_id}),
      epoch::ReadQuorum(reps),
      [st](net::NodeId, const Result<wire::GenReadResp>& resp) {
        if (resp.ok()) st->gen_max = std::max(st->gen_max, resp->value);
        return resp.status();
      },
      [this, st, reps](Status read) {
        if (!read.ok()) {
          FinishInit(*st, Status::Unavailable("generator read quorum failed"));
          return;
        }
        // Write a value above every value read.
        QuorumCall(
            ToEach(config_.generator_reps,
                   wire::GenWriteReq{config_.client_id, st->gen_max + 1}),
            epoch::WriteQuorum(reps), nullptr,
            [this, st](Status written) {
              if (!written.ok()) {
                FinishInit(*st, Status::Unavailable(
                                    "generator write quorum failed"));
                return;
              }
              StartRecoveryCopy(st);
            });
      });
}

void LogClient::StartRecoveryCopy(std::shared_ptr<InitState> st) {
  view_ = MergedLogView::Build(st->intervals);
  epoch_ = st->gen_max + 1;
  if (view_.MaxEpoch().has_value() && epoch_ <= *view_.MaxEpoch()) {
    FinishInit(*st, Status::Internal("generator epoch not above log epochs"));
    return;
  }

  const std::optional<Lsn> high = view_.HighLsn();
  if (!high.has_value()) {
    next_lsn_ = 1;
    ChooseWriteSet();
    FinishInit(*st, Status::OK());
    return;
  }
  // The most recent δ records may each be partially written; read them
  // all back (Section 4.2's generalization of the single-record copy).
  st->high = *high;
  st->tail = st->high - std::min<Lsn>(config_.delta, st->high) + 1;
  ReadTail(std::move(st));
}

void LogClient::ReadTail(std::shared_ptr<InitState> st) {
  // A hole inside the last δ records means the record was partially
  // written and its holder did not answer IntervalList; it will be
  // superseded by a not-present record. Synthesize nothing.
  while (st->tail <= st->high && view_.Find(st->tail) == nullptr) {
    ++st->tail;
  }
  if (st->tail > st->high) {
    CopyTail(std::move(st));
    return;
  }
  const Lsn lsn = st->tail++;
  ReadFrom(view_.Find(lsn)->servers, lsn,
           [this, st](Result<wire::RecordRun> read) {
             if (st->generation != generation_) return;
             if (!read.ok()) {
               FinishInit(*st, Status::Unavailable(
                                   "no holder of a tail record answers"));
               return;
             }
             st->tail_records.push_back(
                 wire::ToLogRecord(read->Share(read->front())));
             ReadTail(st);
           });
}

void LogClient::CopyTail(std::shared_ptr<InitState> st) {
  ChooseWriteSet();
  if (write_set_.size() < static_cast<size_t>(config_.copies)) {
    FinishInit(*st, Status::Unavailable("not enough copy targets"));
    return;
  }
  // The copy batch: the δ tail records, then δ not-present records above
  // the old end of log.
  std::vector<LogRecord> records = std::move(st->tail_records);
  const Lsn delta = std::min<Lsn>(config_.delta, st->high);
  for (Lsn lsn = st->high + 1; lsn <= st->high + delta; ++lsn) {
    records.push_back(LogRecord{lsn, epoch_, /*present=*/false, {}});
  }
  next_lsn_ = st->high + delta + 1;
  const std::vector<net::NodeId> targets = write_set_;
  CopySegment(std::move(records), targets,
              [this, st, targets](Status copied) {
                if (!copied.ok()) {
                  FinishInit(*st, copied);
                  return;
                }
                // Recovery complete: the targets' streams continue past
                // the copies.
                for (net::NodeId node : targets) {
                  ServerLink* link = LinkOf(node);
                  link->sent_high = next_lsn_ - 1;
                  link->acked_high =
                      std::max(link->acked_high, next_lsn_ - 1);
                }
                FinishInit(*st, Status::OK());
              });
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
  read_ahead_ = {};
  for (net::NodeId node : write_set_) LeaveWriteSetMember(node);
  write_set_.clear();
  write_links_.clear();
  links_.clear();  // RpcClient destructors fail pending calls (guarded)
  endpoint_->Crash();
  for (auto& nic : nics_) nic->SetUp(false);
  for (size_t i = 0; i < networks_.size(); ++i) {
    networks_[i]->Detach(config_.node_id);
  }
}

}  // namespace dlog::client
