#ifndef DLOG_CLIENT_LOG_CLIENT_H_
#define DLOG_CLIENT_LOG_CLIENT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/log_types.h"
#include "common/result.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "flow/retry_policy.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "wire/connection.h"
#include "wire/messages.h"
#include "wire/rpc.h"

namespace dlog::client {

/// How the client picks a replacement when it abandons an unresponsive
/// server (Section 5.4 leaves load assignment open; these are the
/// "simple decentralized strategies" experiment E9 compares).
enum class SelectionPolicy {
  kStickyFailover,  // keep current set; replace with lowest-id available
  kRoundRobin,      // rotate through the server list
  kRandom,          // uniform random replacement
  kLeastQueued,     // server with the least locally-queued traffic
};

/// The most log servers one client can use: its acknowledgment
/// bookkeeping keeps one bit per server.
inline constexpr size_t kMaxServers = 64;

/// Configuration of a replicated-log protocol client node.
struct LogClientConfig {
  ClientId client_id = 1;
  net::NodeId node_id = 1000;
  /// N — copies per record.
  int copies = 2;
  /// The M log server node ids (M <= kMaxServers).
  std::vector<net::NodeId> servers;
  /// Hosts of the generator state representatives (Appendix I). Empty
  /// means the first min(3, M) servers.
  std::vector<net::NodeId> generator_reps;
  double cpu_mips = 2.0;
  /// Packing budget for a record batch ("as many log records as will fit
  /// in a network packet").
  size_t mtu_payload = 1400;
  /// δ — "the client must limit the number of records contained in
  /// unacknowledged WriteLog and ForceLog messages to ensure that no more
  /// than δ log records are partially written" (Section 4.2).
  size_t delta = 16;
  /// Force resend interval and how many resends before switching server.
  sim::Duration force_timeout = 300 * sim::kMillisecond;
  int force_retries = 3;
  /// Synchronous-call (Figure 4-1 RPC) parameters.
  sim::Duration rpc_timeout = 400 * sim::kMillisecond;
  int rpc_attempts = 4;
  SelectionPolicy policy = SelectionPolicy::kStickyFailover;
  /// Section 4.1's multicast option: stream record batches once to a
  /// multicast group containing the write set instead of N unicast
  /// copies ("With the use of multicast, this amount would be
  /// approximately halved"). Acknowledgments, gap repair, and all
  /// synchronous calls stay unicast.
  bool multicast_writes = false;
  uint64_t seed = 1;
  wire::WireConfig wire;
  /// Backoff-and-budget policy applied when a server sheds a batch with
  /// an Overloaded reply (src/flow). Jitter is drawn from this client's
  /// own Rng stream (seeded from `seed`), so runs stay byte-identical.
  flow::RetryPolicyConfig retry;

  /// OK iff the configuration can drive the protocol: at least one copy,
  /// `copies <= servers.size() <= kMaxServers`, nonzero δ and packing
  /// budget, positive timeouts/attempt counts, ...
  Status Validate() const;
};

/// The asynchronous replicated-log client (Sections 3.1.2 + 4.2): buffers
/// log records locally, streams them in packed WriteLog/ForceLog messages
/// to N of M log servers, tracks per-server acknowledgments, resends or
/// switches servers on silence, answers MissingInterval prompts, and
/// performs the full client-initialization procedure (interval-list
/// merge, new epoch via the replicated identifier generator, CopyLog /
/// InstallCopies recovery of the last δ records).
///
/// All operations are asynchronous: they return immediately and invoke
/// the supplied callback when the simulated protocol completes.
class LogClient {
 public:
  LogClient(sim::Scheduler* sim, const LogClientConfig& config);
  /// Drops pending RPCs without running their callbacks: an operation
  /// still in flight when its client is destroyed never completes.
  ~LogClient();

  LogClient(const LogClient&) = delete;
  LogClient& operator=(const LogClient&) = delete;

  /// Attaches to a network (twice for dual-network configurations).
  void AttachNetwork(net::Network* network);

  /// Client initialization (Section 3.1.2). `done` fires with OK once the
  /// log is usable, or with an error (retry later — the paper's client
  /// "can poll until it receives responses from enough servers").
  void Init(std::function<void(Status)> done);

  bool IsInitialized() const { return initialized_; }
  Epoch current_epoch() const { return epoch_; }
  /// The cached merged view of the replicated log (diagnostics/tests).
  const MergedLogView& view() const { return view_; }

  /// Appends a record to the local group buffer and returns its LSN
  /// immediately. The record reaches log servers when a ForceLog covers
  /// it or enough records accumulate to fill packets (grouping,
  /// Section 4.1). InvalidArgument if the record's wire encoding
  /// (wire::EncodedRecordSize) exceeds `mtu_payload`.
  Result<Lsn> WriteLog(Bytes data);

  /// Requests that all records up to `upto` become stable on N servers;
  /// `done` fires when the last acknowledgment arrives.
  void ForceLog(Lsn upto, std::function<void(Status)> done);

  /// Reads a record via the cached merged view (one ServerReadLog in the
  /// common case), or with no RPC from the records still buffered or
  /// packed into the newest read's reply. Errors: OutOfRange beyond end
  /// of log, NotFound for not-present records, Unavailable/TimedOut when
  /// no holder answers.
  void ReadLog(Lsn lsn, std::function<void(Result<Bytes>)> done);

  /// LSN of the most recently written (possibly still buffered) record.
  Lsn EndOfLog() const { return next_lsn_ - 1; }

  /// Log space management (Section 5.3): asks every server to discard
  /// this client's records below `below`. The point is clamped so the
  /// most recent δ records (needed by restart recovery) and anything not
  /// yet fully replicated always survive. Returns the clamped point.
  Lsn TruncateLog(Lsn below);

  /// Media-failure repair (Section 5.3: "the repair of a log when one
  /// redundant copy is lost"): re-gathers interval lists, finds records
  /// with fewer than N holders, and re-replicates them to additional
  /// servers via CopyLog/InstallCopies. `done` receives OK when every
  /// under-replicated record has N holders again, or an error if some
  /// could not be repaired (retry later).
  void RepairLog(std::function<void(Status)> done);

  /// Crashes the node: every volatile structure (buffers, view, epoch,
  /// connections) is lost. A crashed client is dead; construct a new
  /// LogClient with the same ids and Init() it to model the restart
  /// (harness::Cluster::RestartClient does exactly that).
  void Crash();

  /// False once Crash() has run: the node is powered off until replaced.
  bool IsUp() const { return !crashed_; }

  ClientId client_id() const { return config_.client_id; }

  /// The wire incarnation this node is running as. Survives crashes only
  /// via whoever rebuilds the node: a replacement LogClient must be given
  /// `config.wire.initial_incarnation > wire_incarnation()` or its
  /// connection ids collide with ones the servers still hold.
  uint64_t wire_incarnation() const { return endpoint_->incarnation(); }

  // --- Observability ---
  /// Attaches the shared causal tracer. Records opened while a context is
  /// current (see obs::Tracer::Scope) get "wal.group" spans; sends get
  /// "wire.send" spans whose ids travel inside the RecordBatch so the
  /// receiving server can close them.
  void SetTracer(obs::Tracer* tracer);
  /// Registers this client's counters/histograms under
  /// "client-<id>/log/...".
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  // --- Statistics ---
  sim::Cpu& cpu() { return *cpu_; }
  sim::Histogram& force_latency_ms() { return force_latency_ms_; }
  /// Streaming (bucketed, microseconds) twin of force_latency_ms: what
  /// windowed telemetry diffs for per-window quantiles.
  const sim::StreamingHistogram& force_latency_us() const {
    return force_latency_us_;
  }
  sim::Counter& records_sent() { return records_sent_; }
  sim::Counter& batches_sent() { return batches_sent_; }
  sim::Counter& forces_completed() { return forces_completed_; }
  sim::Counter& server_switches() { return server_switches_; }
  sim::Counter& resends() { return resends_; }
  sim::Counter& overloads_received() { return overloads_received_; }
  sim::Counter& backoffs() { return backoffs_; }
  sim::Counter& retries_suppressed() { return retries_suppressed_; }
  uint64_t bytes_buffered() const { return bytes_buffered_; }
  /// Records written but not yet acknowledged by N servers: the backlog
  /// an application layer watches to apply end-to-end backpressure.
  size_t pending_records() const { return pending_.size(); }

 private:
  struct ServerLink {
    net::NodeId node = 0;
    /// This server's bit in PendingRecord masks: 1 << its index in
    /// LogClientConfig::servers (0 for a generator representative that
    /// is not one of them).
    uint64_t bit = 0;
    wire::Connection* conn = nullptr;
    std::unique_ptr<wire::RpcClient> rpc;
    /// Highest LSN this server acknowledged via NewHighLsn.
    Lsn acked_high = 0;
    /// Highest LSN streamed to this server in the current epoch.
    Lsn sent_high = 0;
    /// True if this link is in the current write set.
    bool in_write_set = false;
    int silent_rounds = 0;  // force-timeout rounds without progress
    Lsn acked_at_last_round = 0;
    /// Highest force point already prodded with an empty ForceLog (so a
    /// force of already-streamed records elicits exactly one ack request;
    /// the retry timer covers losses).
    Lsn force_ping_high = 0;
    /// Consecutive Overloaded sheds from this server (resets on a real
    /// acknowledgment); drives the exponential backoff.
    int shed_rounds = 0;
    /// No new batches go to this server before this time (shed backoff).
    sim::Time shed_until = 0;
  };

  struct PendingRecord {
    /// kNoLsn in a retired ring slot.
    Lsn lsn = kNoLsn;
    Epoch epoch = 0;
    /// The payload WriteLog was handed, owned here until the record
    /// retires (a retired slot keeps no buffer). Every batch that carries
    /// the record encodes it from these bytes.
    Bytes data;
    /// Servers (ServerLink::bit) the record was streamed to, and those
    /// that acknowledged it.
    uint64_t sent_to = 0;
    uint64_t acked_by = 0;
    sim::Time first_sent = 0;
    bool forced = false;
    /// "wal.group" span: client-buffer residency, WriteLog to first send.
    obs::SpanContext group_span;

    /// Bytes of the record's wire encoding.
    size_t encoded_size() const {
      return wire::kRecordFixedBytes + data.size();
    }
  };

  /// The records written but not yet acknowledged by N servers, indexed
  /// by LSN. LSNs are dense and ascending, so the window [front(), end())
  /// maps onto a power-of-two ring of slots: a record retires in place
  /// (its slot resets) and retired slots are popped from the front. Every
  /// slot outside the window is reset.
  class PendingRing {
   public:
    bool empty() const { return live_ == 0; }
    /// Records not yet retired.
    size_t size() const { return live_; }
    /// The lowest pending LSN (when not empty).
    Lsn front() const { return base_; }
    /// One past the highest LSN the window covers.
    Lsn end() const { return base_ + span_; }
    /// The pending record with this LSN, or nullptr.
    PendingRecord* Find(Lsn lsn) {
      if (lsn < base_ || lsn >= end()) return nullptr;
      PendingRecord& slot = Slot(lsn);
      return slot.lsn == lsn ? &slot : nullptr;
    }
    /// A fresh pending record at `lsn` (replacing one already there).
    PendingRecord& Add(Lsn lsn);
    /// Retires the pending record at `lsn`.
    void Retire(Lsn lsn);

   private:
    PendingRecord& Slot(Lsn lsn) {
      return slots_[lsn & (slots_.size() - 1)];
    }

    std::vector<PendingRecord> slots_;  // empty or a power of two
    Lsn base_ = 0;
    Lsn span_ = 0;
    size_t live_ = 0;
  };

  /// A by-value list of at most kMaxServers links (a write set never
  /// holds more): callers iterate it while nested sends may re-enter
  /// PumpSends, and building or copying one allocates nothing and
  /// touches only its used slots.
  class LinkList {
   public:
    LinkList() = default;
    LinkList(const LinkList& other) : size_(other.size_) {
      std::copy(other.begin(), other.end(), links_.begin());
    }
    LinkList& operator=(const LinkList& other) {
      size_ = other.size_;
      std::copy(other.begin(), other.end(), links_.begin());
      return *this;
    }

    void push_back(ServerLink* link) { links_[size_++] = link; }
    void clear() { size_ = 0; }
    size_t size() const { return size_; }
    ServerLink* operator[](size_t i) const { return links_[i]; }
    ServerLink* const* begin() const { return links_.data(); }
    ServerLink* const* end() const { return links_.data() + size_; }

   private:
    std::array<ServerLink*, kMaxServers> links_;  // [0, size_) are set
    size_t size_ = 0;
  };

  /// A batch being packed: the pending records it takes in the LSN run
  /// [first, last] (retired slots inside it are skipped), how many there
  /// are, whether it goes as a ForceLog, and the encoded message size. A
  /// batch with no run (first == kNoLsn) is the empty ForceLog prod.
  struct Batch {
    Lsn first = kNoLsn;
    Lsn last = kNoLsn;
    /// Servers (ServerLink::bit) a taken record was sent to and is not
    /// acknowledged by (a resend's); 0 takes every pending record.
    uint64_t unacked_by = 0;
    size_t count = 0;
    size_t bytes = wire::RecordBatchOverhead();
    bool forced = false;

    bool Takes(const PendingRecord& pr) const {
      return (pr.sent_to & unacked_by) == unacked_by &&
             (pr.acked_by & unacked_by) == 0;
    }
    /// Takes the record at `lsn`, `cost` encoded bytes, past the last.
    void Add(Lsn lsn, size_t cost) {
      if (first == kNoLsn) first = lsn;
      last = lsn;
      ++count;
      bytes += cost;
    }
  };

  struct ForceWaiter {
    Lsn upto;
    std::function<void(Status)> done;
    sim::Time started;
    /// "ForceLog" span: force request to last acknowledgment.
    obs::SpanContext span;
  };

  // --- transport plumbing ---
  void ConnectAll();
  ServerLink* LinkOf(net::NodeId node);
  /// The link to `node`, created on first use.
  ServerLink& LinkFor(net::NodeId node);
  /// `node`'s bit in PendingRecord masks (0 if it is not a server).
  uint64_t BitOf(net::NodeId node) const;
  void EnsureConnected(ServerLink* link);
  void OnServerMessage(net::NodeId node, const SharedBytes& payload);
  void OnNewHighLsn(ServerLink* link, Lsn high);
  void OnMissingInterval(ServerLink* link, Lsn low, Lsn high);
  void OnOverloaded(ServerLink* link, const wire::OverloadedMsg& msg);
  /// True while `link` sits in a shed backoff and must not receive new
  /// record batches.
  bool InShedBackoff(const ServerLink& link) const;

  // --- write pipeline ---
  void ChooseWriteSet();
  /// The current write-set links in write_set_ order.
  LinkList WriteSet() const { return write_links_; }
  /// Rebuilds write_links_ after write_set_ changed.
  void CacheWriteSet();
  /// A server to add to the write set, outside the `exclude` bits.
  net::NodeId PickReplacement(uint64_t exclude);
  void PumpSends();
  /// Streams the pending records past `link`'s stream position to it.
  void StreamTo(ServerLink* link);
  /// Multicast mode: streams the common tail once to the write-set
  /// group.
  void StreamMulticast();
  /// Packs the pending records from `from` on into batches for
  /// `targets` (Section 4.1 grouping under the δ bound) and sends them,
  /// to the write-set group when `to_group` and otherwise to the single
  /// target; marks the final batch ForceLog if a force is outstanding,
  /// and prods lagging targets once per force point.
  void Stream(const LinkList& targets, Lsn from, bool to_group);
  /// Marks `batch`'s records sent to `targets` and transmits it.
  void SendBatch(const LinkList& targets, const Batch& batch, bool to_group);
  /// Encodes `batch` from the pending ring at its exact size, in a
  /// "wire.send" span under `parent`, and sends it to `link`, or to the
  /// write-set group when `link` is null. Every record batch the client
  /// sends goes out here: streamed batches, resends and force prods.
  void Transmit(const Batch& batch, ServerLink* link,
                obs::SpanContext parent);
  /// The multicast group carrying this client's record stream.
  net::NodeId Group() const {
    return net::kMulticastBase + config_.client_id;
  }
  void JoinWriteSetMember(net::NodeId node);
  void LeaveWriteSetMember(net::NodeId node);
  void CheckForceCompletion();
  void ArmRetryTimer();
  void OnRetryTimer();
  void SwitchAwayFrom(ServerLink* link);
  size_t UnackedSentRecords() const;
  /// The span of the most recent outstanding force (for parenting sends
  /// that carry no fresh records).
  obs::SpanContext ForceContext() const;

  // --- recovery-time calls (Figure 4-1 RPCs) ---
  /// One call: its server and its request, which names its reply type.
  template <typename Req>
  struct Rpc {
    net::NodeId node = 0;
    Req req;
  };
  template <typename Req>
  using ReplyOf = Result<typename Req::Reply>;
  template <typename Req>
  using ReplyHook = std::function<Status(net::NodeId, const ReplyOf<Req>&)>;
  /// The same request to each of `nodes`, in order.
  template <typename Req>
  static std::vector<Rpc<Req>> ToEach(const std::vector<net::NodeId>& nodes,
                                      const Req& req);
  /// Issues `rpc` and hands `done` its reply. A timeout, a garbled reply
  /// or a non-OK status arrives as an error (Overloaded for a shed).
  template <typename Req>
  void Call(Rpc<Req> rpc, std::function<void(ReplyOf<Req>)> done);
  /// Issues `calls` (1 <= need <= calls.size()) and fires `done` once: OK
  /// on the `need`-th success, or an error as soon as `need` is out of
  /// reach (Overloaded if a counted failure was a shed). `on_reply`, if
  /// set, sees each reply first and returns the status to count for it.
  /// Replies after `done` fired, or after a crash, are dropped.
  template <typename Req>
  void QuorumCall(std::vector<Rpc<Req>> calls, size_t need,
                  ReplyHook<Req> on_reply, std::function<void(Status)> done);
  /// Asks `holders` in order for the record at `lsn` and hands `done` the
  /// records of the first reply that starts with it (plus the records
  /// packed after it); Unavailable if no holder answers, Aborted if the
  /// client crashes.
  void ReadFrom(std::vector<ServerId> holders, Lsn lsn,
                std::function<void(Result<wire::RecordRun>)> done);
  /// Re-stamps `records` with the current epoch, stages them on every
  /// target in packet-sized CopyLog chunks, installs them there and notes
  /// the targets as their holders. `done` gets OK or the failed round's
  /// error, and never fires once the client has crashed.
  void CopySegment(std::vector<LogRecord> records,
                   std::vector<net::NodeId> targets,
                   std::function<void(Status)> done);

  // --- initialization and repair steps ---
  struct InitState;
  void AcquireEpoch(std::shared_ptr<InitState> st);
  void StartRecoveryCopy(std::shared_ptr<InitState> st);
  void ReadTail(std::shared_ptr<InitState> st);
  void CopyTail(std::shared_ptr<InitState> st);
  void FinishInit(const InitState& st, Status status);
  struct RepairState;
  void RepairNext(std::shared_ptr<RepairState> st);
  void RepairRead(std::shared_ptr<RepairState> st);
  /// Pops the front segment (a failure makes the repair partial).
  void EndSegment(std::shared_ptr<RepairState> st, const Status& status);

  wire::RpcClient::CallOptions RpcOpts() const;

  sim::Scheduler* sim_;
  LogClientConfig config_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<wire::Endpoint> endpoint_;
  std::vector<std::unique_ptr<net::Nic>> nics_;
  std::vector<net::Network*> networks_;
  Rng rng_;

  bool crashed_ = false;
  bool initialized_ = false;
  uint64_t generation_ = 0;
  Epoch epoch_ = 0;
  Lsn next_lsn_ = 1;
  MergedLogView view_;
  std::map<net::NodeId, ServerLink> links_;
  std::vector<net::NodeId> write_set_;
  /// write_set_'s links, kept current wherever write_set_ changes.
  LinkList write_links_;
  size_t round_robin_cursor_ = 0;
  /// Servers recently abandoned as unresponsive, with the time until
  /// which they should not be re-chosen.
  std::map<net::NodeId, sim::Time> avoid_until_;

  PendingRing pending_;
  /// Count of pending records with a nonzero sent_to mask, maintained at
  /// the sent_to/retire transition points so the δ-bound check in the
  /// streaming hot path is O(1) instead of a pending_ sweep.
  size_t unacked_sent_records_ = 0;
  RingQueue<ForceWaiter> force_waiters_;
  /// Cached ForceContext(): the span of the newest force_waiters_ entry
  /// with a valid span, plus the count of valid spans in the queue
  /// (waiters only ever push at the back and pop at the front, so the
  /// newest valid span changes only on push or on drain-to-zero).
  obs::SpanContext force_ctx_cache_;
  size_t force_ctx_valid_spans_ = 0;
  sim::EventId retry_timer_ = 0;
  /// The read-ahead: the records of the newest ReadLogForward reply, in
  /// its one buffer. A server packs the records after the one asked for
  /// into the reply, and a replay reads them next; a ReadLog it cannot
  /// answer replaces it with the reply that answers the read.
  wire::RecordRun read_ahead_;

  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;

  sim::Histogram force_latency_ms_;
  sim::StreamingHistogram force_latency_us_;
  sim::Counter records_sent_;
  sim::Counter batches_sent_;
  sim::Counter forces_completed_;
  sim::Counter server_switches_;
  sim::Counter resends_;
  flow::RetryPolicy retry_policy_;
  sim::Counter overloads_received_;
  sim::Counter backoffs_;
  sim::Counter retries_suppressed_;
  uint64_t bytes_buffered_ = 0;
};

}  // namespace dlog::client

#endif  // DLOG_CLIENT_LOG_CLIENT_H_
