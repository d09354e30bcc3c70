#ifndef DLOG_SERVER_LOG_SERVER_H_
#define DLOG_SERVER_LOG_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log_types.h"
#include "flow/admission.h"
#include "forest/append_forest.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client_log_store.h"
#include "server/track_format.h"
#include "server/track_images.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "storage/disk.h"
#include "storage/nvram.h"
#include "wire/connection.h"
#include "wire/messages.h"

namespace dlog::server {

/// Configuration of a log server node (Section 4).
struct LogServerConfig {
  net::NodeId node_id = 0;
  double cpu_mips = 4.0;
  storage::DiskConfig disk;
  /// Battery-backed CMOS group buffer size.
  size_t nvram_bytes = 512 * 1024;
  /// A partially filled track is flushed after this long, bounding NVRAM
  /// occupancy (records are already stable in NVRAM, so this is a
  /// capacity matter, not a durability one).
  sim::Duration flush_interval = 100 * sim::kMillisecond;
  /// Load shedding / admission control (Section 4.2: servers "are free to
  /// ignore ForceLog and WriteLog messages if they become too heavily
  /// loaded"). When `admission.enabled`, overload produces an explicit
  /// Overloaded reply with a retry-after hint; when disabled, writes are
  /// silently ignored while NVRAM is more than 95% full (the legacy
  /// behavior).
  flow::AdmissionConfig admission;
  /// Ablation (experiment E10): when true the server behaves as if it had
  /// no battery-backed buffer — ForceLog is acknowledged only after the
  /// records reach the disk, so every force pays rotational latency.
  bool ack_after_disk = false;
  wire::WireConfig wire;

  /// OK iff the configuration describes a runnable server: positive CPU
  /// speed, valid disk geometry, nonzero NVRAM, a positive flush
  /// interval and retry-after bounds in order. NVRAM smaller than a
  /// track is allowed; a record entry that does not fit is dropped (see
  /// writes_shed()).
  Status Validate() const;
};

/// A log server node: NICs, CPU, NVRAM group buffer, one logging disk,
/// and the protocol engine implementing every operation of Figure 4-1.
///
/// Durability model (what survives Crash()):
///   * the disk contents (torn in-flight writes are lost whole);
///   * the NVRAM group buffer and truncation marks;
///   * the hosted generator state representatives (Appendix I).
/// Volatile and rebuilt on Restart() from a scan of the whole disk and
/// the NVRAM group buffer:
///   * per-client stores (records held past a gap are lost),
///   * all connection state (clients see resets and reconnect).
class LogServer {
 public:
  LogServer(sim::Scheduler* sim, const LogServerConfig& config);
  ~LogServer();

  LogServer(const LogServer&) = delete;
  LogServer& operator=(const LogServer&) = delete;

  /// Attaches this server to a network (twice for dual-network setups).
  /// Must be called before traffic flows.
  void AttachNetwork(net::Network* network);

  /// Crashes the node: connections and volatile state vanish; NVRAM,
  /// disk, and generator representatives survive.
  void Crash();

  /// Restarts after a crash: replays the disk stream and the NVRAM group
  /// buffer to rebuild the per-client stores, then resumes service.
  void Restart();

  /// Media failure: the node crashes and loses its disk contents and
  /// NVRAM (e.g., a head crash plus battery drain). Clients repair the
  /// lost redundancy with LogClient::RepairLog (Section 5.3: "the repair
  /// of a log when one redundant copy is lost"). Call Restart() after.
  void WipeStorage();

  /// Media failure of the disk alone (a head crash): the node crashes and
  /// its disk contents are destroyed, but the battery-backed NVRAM — a
  /// separate device — keeps the group buffer, truncation marks, and
  /// generator representatives. The Section 5.3 repair trigger.
  void FailDisk();

  /// NVRAM battery loss: the node crashes and the group buffer, stable
  /// truncation marks, and hosted generator representatives are gone;
  /// disk-resident tracks survive. Records that were only in the buffer
  /// lose this copy (clients still hold them on N-1 other servers or in
  /// their own δ-bounded resend window).
  void LoseNvram();

  bool IsUp() const { return up_; }
  net::NodeId id() const { return config_.node_id; }

  /// Hosted generator state representative for `client` (Appendix I:
  /// "representatives of a replicated identifier generator's state will
  /// normally be implemented on log server nodes").
  storage::StableCell* generator_cell(ClientId client);

  /// Forces any buffered records to disk now (test/shutdown helper).
  void FlushNow();

  // --- Observability ---
  /// Attaches the shared causal tracer: incoming record batches close
  /// their sender's "wire.send" span, buffered records emit
  /// "nvram.buffer" instants, disk flushes emit "track.write" spans, and
  /// force acknowledgments emit "force.ack" instants.
  void SetTracer(obs::Tracer* tracer);
  /// Registers this server's counters and the NVRAM occupancy gauge
  /// under "server-<id>/...".
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  // --- Introspection for tests, figures, and experiments ---

  /// Interval list currently stored for `client` (empty if unknown).
  IntervalList IntervalsOf(ClientId client) const;
  /// All records stored for `client`, in stream write order.
  std::vector<LogRecord> RecordsOf(ClientId client) const;
  /// The append forest (Section 4.3) indexing `client`'s disk tracks by
  /// LSN range, built by the restart scan's walk of the disk; nullopt
  /// when the client has no store.
  std::optional<forest::AppendForest> ForestOf(ClientId client) const;

  sim::Cpu& cpu() { return *cpu_; }
  storage::SimDisk& disk() { return *disk_; }
  storage::NvramQueue& nvram_buffer() { return *nvram_buffer_; }
  /// The NVRAM occupancy account, in buffered bytes: set on every buffer
  /// change, across LoseNvram() and restarts alike.
  const sim::TimeWeightedGauge& nvram_occupancy() const {
    return nvram_occupancy_;
  }
  /// The NIC attached to network `i` (AttachNetwork order).
  net::Nic& nic(int i = 0) { return *nics_[i]; }
  sim::Counter& records_written() { return records_written_; }
  sim::Counter& forces_acked() { return forces_acked_; }
  sim::Counter& tracks_written() { return tracks_written_; }
  sim::Counter& missing_interval_sent() { return missing_interval_sent_; }
  /// Counts both the batches admission refuses and the records
  /// ApplyRecord drops because NVRAM has no room for their entry.
  sim::Counter& writes_shed() { return writes_shed_; }
  flow::AdmissionController& admission() { return admission_; }
  sim::Counter& read_rpcs() { return read_rpcs_; }
  sim::Counter& records_truncated() { return records_truncated_; }
  /// Records currently stored (online log) for `client`.
  size_t LiveRecordsOf(ClientId client) const;
  uint64_t bytes_logged() const { return bytes_logged_; }

 private:
  /// How to send a reply for the message being handled: over the
  /// originating connection, or as a datagram to the sender (multicast
  /// record streams).
  using ReplyFn = std::function<void(Bytes)>;

  /// The message being served: its envelope (type, rpc id), the
  /// connection it came on (null for a datagram) and how to reply.
  struct Incoming {
    const wire::Envelope& env;
    wire::Connection* conn;
    const ReplyFn& reply;
  };

  void OnAccept(wire::Connection* conn);
  void OnMessage(wire::Connection* conn, const SharedBytes& payload);
  void OnDatagram(net::NodeId src, const SharedBytes& payload);
  /// Reads the body as an M and hands it to its Handle; a garbled body
  /// is dropped (the medium is lossy anyway).
  template <typename M>
  void Serve(const Incoming& in);
  // One handler per message a server serves (WriteLog and ForceLog share
  // the RecordBatch one, both ReadLog directions the ReadLogReq one).
  // The RPC handlers answer with their request's Reply type.
  void Handle(const Incoming& in, const wire::RecordBatch& batch);
  void Handle(const Incoming& in, const wire::NewIntervalMsg& msg);
  void Handle(const Incoming& in, const wire::TruncateLogMsg& msg);
  void Handle(const Incoming& in, const wire::IntervalListReq& req);
  void Handle(const Incoming& in, const wire::ReadLogReq& req);
  void Handle(const Incoming& in, const wire::CopyLogReq& req);
  void Handle(const Incoming& in, const wire::InstallCopiesReq& req);
  void Handle(const Incoming& in, const wire::GenReadReq& req);
  void Handle(const Incoming& in, const wire::GenWriteReq& req);
  /// Sends `resp` on `in`'s connection as the reply to its request, a
  /// Req: only Req's Reply type compiles.
  template <typename Req>
  void Answer(const Incoming& in, const Req& req,
              const typename Req::Reply& resp);

  /// Applies one in-order record: its stream entry goes into the NVRAM
  /// group buffer and its location into the store. Returns false (and
  /// sheds) if NVRAM is too full.
  bool ApplyRecord(ClientLogStore* store, ClientId client,
                   const wire::RecordView& record);
  /// Applies the held records that now extend `store`'s stream.
  void ApplyHeld(ClientLogStore* store, ClientId client);
  /// Re-packs the NVRAM buffer greedily from the front (after a failed
  /// track write) and moves each buffered record's location with it.
  void RepackNvram();
  /// Writes full tracks from the NVRAM buffer to disk.
  void MaybeFlush();
  void ScheduleFlushTimer();
  /// Points each record waiting for this flush to become its read copy
  /// (relocate_on_flush_) at its entry in disk track `track`, whose
  /// entries are `entries`.
  void RelocateToTrack(uint64_t track, const TrackView& entries);
  /// Calls `fn(track, entries)` for each disk track from track 0 on, and
  /// stops at the first one not written. A written track that is not a
  /// valid track ends the stream on a rewritable disk (it is torn or
  /// corrupt) and is skipped on a write-once disk (it is burned). Returns
  /// the number of tracks scanned.
  uint64_t ScanDisk(
      const std::function<void(uint64_t, const TrackView&)>& fn) const;
  /// Replies on `conn` (no-op when down).
  void Reply(wire::Connection* conn, Bytes message);
  /// Serves `fn` after charging the disk read needed for `lsn` (free when
  /// the record still sits in NVRAM).
  void WithReadLatency(ClientId client, Lsn lsn, std::function<void()> fn);

  /// `client`'s store, created on first use.
  ClientLogStore& StoreOf(ClientId client);
  /// `client`'s store; nullptr if it has none.
  ClientLogStore* FindStore(ClientId client);
  const ClientLogStore* FindStore(ClientId client) const;
  double NvramFraction() const;
  void RebuildFromStableStorage();
  /// Samples the NVRAM occupancy gauge after any buffer change.
  void NoteNvramLevel();

  sim::Scheduler* sim_;
  LogServerConfig config_;
  flow::AdmissionController admission_;
  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<wire::Endpoint> endpoint_;
  std::vector<std::unique_ptr<net::Nic>> nics_;
  std::vector<net::Network*> networks_;
  std::unique_ptr<storage::SimDisk> disk_;
  std::unique_ptr<storage::NvramQueue> nvram_buffer_;
  /// Hosted generator representatives, keyed by client (stable).
  std::map<ClientId, storage::StableCell> generator_cells_;
  /// Per-client truncation marks (records below are discarded). Stable:
  /// a few bytes in NVRAM, reapplied after the restart scan.
  std::map<ClientId, Lsn> truncate_marks_;

  /// Deferred force acknowledgments for the ack_after_disk ablation.
  struct PendingAck {
    ReplyFn reply;
    ClientId client;
    obs::SpanContext ctx;
  };
  std::vector<PendingAck> pending_acks_;

  bool up_ = true;
  /// Bumped on every Crash(); queued callbacks from a previous life check
  /// it and abandon themselves (their state died with the node).
  uint64_t generation_ = 0;
  uint64_t next_track_ = 0;       // volatile; rebuilt by scan
  bool flush_in_progress_ = false;
  /// FlushNow() sets this; cleared once the buffer drains.
  bool force_partial_flush_ = false;
  sim::EventId flush_timer_ = 0;
  /// The stores' track images: the NVRAM group buffer's images from
  /// its first track on, and the disk's tracks below it.
  class Images final : public TrackImages {
   public:
    explicit Images(LogServer* server) : server_(server) {}
    std::optional<RecordLocation> Append(
        ClientId client, std::span<const uint8_t> record) override;
    SharedBytes Image(uint64_t track) const override;

   private:
    LogServer* server_;
  };
  Images images_{this};
  // Volatile. Sorted by client id and searched per record batch and per
  // client run of a flushed track. Only a client that has sent this
  // server something has a store: the ids come off the wire, so they do
  // not index a vector.
  std::vector<std::pair<ClientId, std::unique_ptr<ClientLogStore>>> clients_;
  /// Records the restart found both on disk and in the NVRAM buffer: each
  /// keeps reading from its disk track until its NVRAM copy is flushed.
  /// Volatile.
  std::set<std::tuple<ClientId, Lsn, Epoch>> relocate_on_flush_;

  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;
  /// Context of the record batch currently being applied (parents the
  /// per-record "nvram.buffer" instants).
  obs::SpanContext current_batch_ctx_;
  /// (client, lsn, epoch) -> originating wire.send context, recorded at
  /// buffering time and consumed when the record's track flushes, so each
  /// "track.write" span is attributed to the transactions it made
  /// disk-resident. Volatile (traces of lost records stay open).
  std::map<std::tuple<ClientId, Lsn, Epoch>, obs::SpanContext> record_ctx_;

  sim::Counter records_written_;
  sim::Counter forces_acked_;
  sim::Counter tracks_written_;
  sim::Counter missing_interval_sent_;
  sim::Counter writes_shed_;
  sim::Counter read_rpcs_;
  sim::Counter records_truncated_;
  sim::TimeWeightedGauge nvram_occupancy_;
  uint64_t bytes_logged_ = 0;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_LOG_SERVER_H_
