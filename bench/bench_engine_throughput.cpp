// Engine throughput — the fast-path optimizations measured head to head.
//
// Four sections, one BENCH_ENGINE.json:
//
//   * engine: raw discrete-event throughput (events/sec) of the current
//     sim::Simulator (slot/generation table, pooled small-buffer
//     callbacks, POD heap entries) against a faithful inline replica of
//     the previous engine (std::function events copied on every pop,
//     lazy cancellation through an unordered_set probed per pop). Both
//     run the identical workload: a ring of self-rescheduling events
//     with steady cancel churn, captures sized like the wire layer's
//     (inline-eligible in the new engine).
//
//   * obs: the disabled-tracer hot path, gated at zero heap
//     allocations. Span names and node labels pass as string_views, so
//     a disabled tracer at every-event call frequency must not touch
//     the allocator; a global operator-new counter proves it.
//
//   * wire: payload bytes memcpy'd per delivered record, after their
//     initial serialization (the dlog::BytesCopied() counter). "after"
//     runs the real stack: trailer framing in place, SharedBytes slices
//     through envelope and record decode, one counted materialization at
//     persistence. "before" replays the same payload through the copy
//     chain the previous stack performed (header-prefix rebuild, packet
//     buffer copy, per-receiver duplication, envelope body copy, record
//     blob copy, pending-buffer copy, persistence encode), counting each
//     with the same counter.
//
//   * cluster: end-to-end messages/sec and records/sec (wall clock) of a
//     live 3-server cluster forcing records through the full new stack —
//     the figure the two optimizations above exist to move.
//
// Wall-clock numbers vary by machine; the JSON is for trend tracking,
// not byte-diffing. CI gates on this binary exiting 0 and, via
// tools/bench_diff.py, on the machine-independent zero_alloc_ok metric.
//
// Usage: bench_engine_throughput [engine_events] [cluster_records]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "harness/cluster.h"
#include "obs/bench_report.h"
#include "obs/trace.h"
#include "server/track_format.h"
#include "sim/simulator.h"
#include "wire/messages.h"

// Global allocation tally backing the obs section's zero-allocation
// regression assert. Counting is process-wide; the assert reads a delta
// across a single-threaded region, so relaxed ordering suffices.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dlog;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- Section 1: event engine, before vs after ---

/// The previous engine, verbatim (git history: src/sim/simulator.{h,cc}
/// before the slot-table rewrite): one std::function per queued event,
/// copied out of the heap top on every pop, with lazy cancellation via
/// an unordered_set probe per pop.
class LegacySimulator {
 public:
  using EventId = uint64_t;

  sim::Time Now() const { return now_; }

  EventId At(sim::Time t, std::function<void()> fn) {
    EventId id = next_id_++;
    queue_.push(Event{t, id, std::move(fn)});
    return id;
  }

  EventId After(sim::Duration d, std::function<void()> fn) {
    return At(now_ + d, std::move(fn));
  }

  bool Cancel(EventId id) {
    if (id == 0 || id >= next_id_) return false;
    return cancelled_.insert(id).second;
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();  // copies the std::function
      queue_.pop();
      if (cancelled_.erase(ev.id) > 0) continue;
      now_ = ev.time;
      ++events_executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  void Run() {
    while (Step()) {
    }
  }

  uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    sim::Time time;
    EventId id;
    std::function<void()> fn;
  };
  struct EventGreater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  sim::Time now_ = 0;
  EventId next_id_ = 1;
  uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventGreater> queue_;
  std::unordered_set<EventId> cancelled_;
};

/// The weight of a wire-layer event capture: Network::DeliverTo and
/// Endpoint::SendFrame close over a Packet (src, dst, refcounted
/// payload) plus a pointer — about 40 bytes. Below std::function's
/// small-object threshold this would be free; at the real size the old
/// engine pays a heap allocation per scheduled event and a deep copy per
/// pop, while sim::Callback keeps it inline.
struct PacketCapture {
  uint64_t a = 0, b = 0, c = 0, d = 0;
  void* e = nullptr;
};

/// How far out each chain's retry timer is armed.
constexpr sim::Duration kDecoyDelay = 3000;

/// The shared workload: `width` self-rescheduling timer chains with
/// packet-sized captures, each also arming a far-out retry timer that is
/// disarmed on the next step — the mix the real simulations produce
/// (delivery events plus RPC/force timeout timers that are cancelled by
/// the ack long before they fire, so the queue carries a standing
/// population of cancelled entries). Runs until `target` events have
/// executed.
template <typename Sim>
uint64_t RunEngineWorkload(Sim& sim, uint64_t target, int width) {
  struct Chain {
    Sim* sim;
    uint64_t remaining;
    uint64_t step = 0;
    uint64_t decoy = 0;

    void Fire(const PacketCapture& pkt) {
      if (remaining == 0) return;
      --remaining;
      ++step;
      if (decoy != 0) {
        sim->Cancel(decoy);
        decoy = 0;
      }
      // The retry timer: armed now, disarmed next step, dead weight in
      // the queue until its expiry sweeps past.
      PacketCapture decoy_pkt = pkt;
      decoy = sim->After(kDecoyDelay + (step % 7), [decoy_pkt] {
        (void)decoy_pkt;
      });
      Chain* self = this;
      PacketCapture next = pkt;
      next.a = step;
      sim->After(1 + (step % 3), [self, next] { self->Fire(next); });
    }
  };

  std::vector<std::unique_ptr<Chain>> chains;
  const uint64_t per_chain = target / width;
  for (int i = 0; i < width; ++i) {
    auto c = std::make_unique<Chain>();
    c->sim = &sim;
    c->remaining = per_chain;
    c->step = static_cast<uint64_t>(i);
    chains.push_back(std::move(c));
  }
  for (auto& c : chains) {
    Chain* self = c.get();
    sim.After(1, [self] { self->Fire(PacketCapture{}); });
  }
  sim.Run();
  return sim.events_executed();
}

// --- Section 2: bytes copied per delivered record, before vs after ---

struct WireSample {
  double bytes_copied_per_record;
  double records;
};

LogRecord MakeRecord(Lsn lsn, size_t payload_bytes) {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = 1;
  r.present = true;
  r.data = Bytes(payload_bytes, static_cast<uint8_t>(lsn));
  return r;
}

constexpr ClientId kBatchClient = 7;

/// The `b`-th ForceLog batch of `records_per_batch` records.
Bytes EncodeBatch(int b, int records_per_batch, size_t payload_bytes) {
  wire::RecordBatch header;
  header.client = kBatchClient;
  header.epoch = 1;
  wire::RecordBatchWriter writer(
      header, 0, records_per_batch * (wire::kRecordFixedBytes + payload_bytes),
      wire::MessageType::kForceLog);
  for (int i = 0; i < records_per_batch; ++i) {
    writer.Add(MakeRecord(static_cast<Lsn>(b * records_per_batch + i),
                          payload_bytes));
  }
  return writer.Take();
}

/// The current path: encode once, frame in place, read the envelope and
/// records in place, and copy each record's wire bytes once, at
/// persistence (AppendStreamEntry counts the copy). `receivers` models
/// the N-server multicast fan-out.
WireSample RunWireAfter(int batches, int records_per_batch,
                        size_t payload_bytes, int receivers) {
  ResetBytesCopied();
  uint64_t decoded = 0;
  for (int b = 0; b < batches; ++b) {
    Bytes msg = EncodeBatch(b, records_per_batch, payload_bytes);
    // Trailer framing appends in place; the frame then becomes the
    // refcounted packet payload shared by every receiver.
    msg.resize(msg.size() + 29);
    SharedBytes packet_payload(std::move(msg));
    for (int rcv = 0; rcv < receivers; ++rcv) {
      SharedBytes delivered =
          packet_payload.Slice(0, packet_payload.size() - 29);
      Result<wire::Envelope> env = wire::DecodeEnvelope(delivered);
      if (!env.ok()) std::abort();
      Result<wire::RecordBatch> rb =
          wire::Decode<wire::RecordBatch>(env->body);
      if (!rb.ok()) std::abort();
      for (const wire::RecordView rec : rb->records) {
        // Persistence: the record's wire bytes into its NVRAM group-buffer
        // image (the one kept copy).
        Bytes image;
        image.reserve(server::kStreamEntryClientBytes + rec.bytes.size());
        server::AppendStreamEntry(&image, rb->client, rec.bytes);
        ++decoded;
      }
    }
  }
  WireSample s;
  s.records = static_cast<double>(decoded);
  s.bytes_copied_per_record = static_cast<double>(BytesCopied()) / decoded;
  return s;
}

/// The previous path, replayed copy for copy on the same payloads. Every
/// step below was a real memcpy in the old stack; each is performed (so
/// the timing is honest) and tallied with the same counter.
WireSample RunWireBefore(int batches, int records_per_batch,
                         size_t payload_bytes, int receivers) {
  ResetBytesCopied();
  uint64_t decoded = 0;
  for (int b = 0; b < batches; ++b) {
    Bytes msg = EncodeBatch(b, records_per_batch, payload_bytes);

    // 1. SendFrame: header-prefixed rebuild into a fresh buffer.
    Bytes framed;
    framed.reserve(29 + msg.size());
    framed.resize(29);
    framed.insert(framed.end(), msg.begin(), msg.end());
    AddBytesCopied(msg.size());

    // 2. Packet payload: the frame copied into the Packet struct.
    Bytes packet_payload = framed;
    AddBytesCopied(framed.size());

    for (int rcv = 0; rcv < receivers; ++rcv) {
      // 3. Network::DeliverTo: one Packet copy per multicast receiver.
      Bytes per_receiver = packet_payload;
      AddBytesCopied(packet_payload.size());

      // 4. ProcessPacket: payload split out of the frame.
      Bytes payload(per_receiver.begin() + 29, per_receiver.end());
      AddBytesCopied(payload.size());

      // 5. DecodeEnvelope: body.assign copy of everything past the
      //    message header.
      Result<wire::Envelope> env = wire::DecodeEnvelope(payload);
      if (!env.ok()) std::abort();
      AddBytesCopied(env->body.size());

      // 6. GetBlob per record (the old GetRecord materialization) —
      //    performed for real by ToBytes below, which also stands in for
      //    the old double-copy fixed in Decoder::GetString.
      Result<wire::RecordBatch> rb =
          wire::Decode<wire::RecordBatch>(env->body);
      if (!rb.ok()) std::abort();
      for (const wire::RecordView rec : rb->records) {
        Bytes materialized(rec.data().begin(), rec.data().end());
        AddBytesCopied(materialized.size());
        // 7. Persistence: the record re-encoded into its entry, counted
        //    like the new path's one copy.
        const Bytes encoded = wire::EncodeRecord(LogRecord{
            rec.lsn, rec.epoch, rec.present, std::move(materialized)});
        Bytes image;
        image.reserve(server::kStreamEntryClientBytes + encoded.size());
        server::AppendStreamEntry(&image, kBatchClient, encoded);
        ++decoded;
      }
    }
  }
  WireSample s;
  s.records = static_cast<double>(decoded);
  s.bytes_copied_per_record = static_cast<double>(BytesCopied()) / decoded;
  return s;
}

// --- Section 3: end-to-end cluster throughput on the new stack ---

struct ClusterSample {
  double wall_seconds;
  double records;
  double messages;
};

ClusterSample RunClusterWorkload(int records) {
  harness::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.seed = 42;
  harness::Cluster cluster(cfg);

  client::LogClientConfig ccfg;
  ccfg.client_id = 1;
  ccfg.copies = 2;
  harness::ClientHandle writer = cluster.AddClient(ccfg);

  bool ready = false;
  writer->Init([&](Status s) { ready = s.ok(); });
  cluster.RunUntil([&]() { return ready; }, 10 * sim::kSecond);
  if (!ready) std::abort();

  const auto start = std::chrono::steady_clock::now();
  int forced = 0;
  for (int i = 0; i < records; ++i) {
    Result<Lsn> lsn =
        writer->WriteLog(Bytes(256, static_cast<uint8_t>(i)));
    if (!lsn.ok()) std::abort();
    bool done = false;
    writer->ForceLog(*lsn, [&](Status st) { done = st.ok(); });
    cluster.RunUntil([&]() { return done; }, 5 * sim::kSecond);
    if (done) ++forced;
  }
  ClusterSample s;
  s.wall_seconds = SecondsSince(start);
  s.records = forced;
  double messages = 0;
  for (int sid = 1; sid <= cfg.num_servers; ++sid) {
    messages +=
        static_cast<double>(cluster.server(sid).records_written().value());
  }
  s.messages = messages;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t engine_events =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000;
  const int cluster_records = argc > 2 ? std::atoi(argv[2]) : 400;

  obs::BenchReport report("engine_throughput");

  // Engine: identical workload on both engines. Three repeats each,
  // alternating, best-of reported: single-run numbers on shared machines
  // are dominated by scheduling noise, and the best run is the one
  // closest to each engine's steady-state cost.
  {
    double before_rate = 0;
    double after_rate = 0;
    for (int rep = 0; rep < 3; ++rep) {
      LegacySimulator before;
      auto t0 = std::chrono::steady_clock::now();
      const uint64_t before_events =
          RunEngineWorkload(before, engine_events, /*width=*/64);
      const double r_before = before_events / SecondsSince(t0);
      if (r_before > before_rate) before_rate = r_before;

      sim::Simulator after;
      t0 = std::chrono::steady_clock::now();
      const uint64_t after_events =
          RunEngineWorkload(after, engine_events, /*width=*/64);
      const double r_after = after_events / SecondsSince(t0);
      if (r_after > after_rate) after_rate = r_after;
    }
    std::printf("engine: before %.0f events/s, after %.0f events/s "
                "(%.2fx)\n",
                before_rate, after_rate, after_rate / before_rate);

    report.BeginRow();
    report.SetConfig("section", std::string("engine"));
    report.SetConfig("target_events", static_cast<double>(engine_events));
    report.SetMetric("events_per_sec_before", before_rate);
    report.SetMetric("events_per_sec_after", after_rate);
    report.SetMetric("speedup", after_rate / before_rate);
  }

  // Obs: the disabled-tracer hot path must not allocate. Every call
  // below passes literals as string_views — the shapes the server and
  // client hot paths use at every-event frequency.
  {
    sim::Simulator sim;
    obs::Tracer tracer(&sim);
    tracer.set_enabled(false);
    constexpr uint64_t kCalls = 200'000;
    const uint64_t allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < kCalls; ++i) {
      obs::SpanContext span =
          tracer.StartSpan("record.append", "server-17", {});
      tracer.AddArg(span, "lsn", i);
      obs::SpanContext instant =
          tracer.Instant("force.ack", "server-17", span);
      (void)instant;
      tracer.EndSpan(span);
    }
    const uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    std::printf("obs: %llu disabled-tracer calls, %llu heap allocations\n",
                static_cast<unsigned long long>(4 * kCalls),
                static_cast<unsigned long long>(allocs));
    if (allocs != 0) {
      std::printf("obs: REGRESSION — disabled tracer hit the heap\n");
      return 1;
    }

    report.BeginRow();
    report.SetConfig("section", std::string("obs"));
    report.SetConfig("calls", static_cast<double>(4 * kCalls));
    report.SetMetric("disabled_tracer_allocs",
                     static_cast<double>(allocs));
    report.SetMetric("zero_alloc_ok", allocs == 0 ? 1.0 : 0.0);
  }

  // Wire: bytes copied per delivered record, old chain vs new chain.
  {
    const int batches = 2000, per_batch = 4, receivers = 3;
    const size_t payload = 256;
    const WireSample before =
        RunWireBefore(batches, per_batch, payload, receivers);
    const WireSample after =
        RunWireAfter(batches, per_batch, payload, receivers);
    std::printf("wire: before %.1f bytes copied/record, after %.1f "
                "(%.1fx fewer)\n",
                before.bytes_copied_per_record,
                after.bytes_copied_per_record,
                before.bytes_copied_per_record /
                    after.bytes_copied_per_record);

    report.BeginRow();
    report.SetConfig("section", std::string("wire"));
    report.SetConfig("payload_bytes", static_cast<double>(payload));
    report.SetConfig("receivers", receivers);
    report.SetMetric("bytes_copied_per_record_before",
                     before.bytes_copied_per_record);
    report.SetMetric("bytes_copied_per_record_after",
                     after.bytes_copied_per_record);
    report.SetMetric("copy_reduction",
                     before.bytes_copied_per_record /
                         after.bytes_copied_per_record);
  }

  // Cluster: end-to-end throughput on the new stack.
  {
    const ClusterSample s = RunClusterWorkload(cluster_records);
    std::printf("cluster: %.0f forced records in %.2fs wall (%.0f "
                "records/s, %.0f server record-writes)\n",
                s.records, s.wall_seconds, s.records / s.wall_seconds,
                s.messages);

    report.BeginRow();
    report.SetConfig("section", std::string("cluster"));
    report.SetConfig("records", cluster_records);
    report.SetMetric("records_per_sec_wall", s.records / s.wall_seconds);
    report.SetMetric("server_record_writes", s.messages);
    report.SetMetric("wall_seconds", s.wall_seconds);
  }

  Status st = report.WriteJson("BENCH_ENGINE.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_ENGINE.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_ENGINE.json (%zu rows)\n", report.rows());
  return 0;
}
