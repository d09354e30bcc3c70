#ifndef DLOG_SIM_SIMULATOR_H_
#define DLOG_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/callback.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace dlog::sim {

/// A deterministic discrete-event simulator: the Scheduler every
/// component runs on. Components schedule callbacks at absolute or
/// relative times; Run() executes them in (time, schedule order)
/// sequence. Single-threaded by design: a run is a pure function of the
/// initial configuration and RNG seeds. Independent runs may execute on
/// different threads (harness::TrialRunner), one Simulator each.
///
/// Engine layout (the hot path of every experiment): callbacks live in a
/// slot table with small-buffer storage (sim::Callback — no heap
/// allocation for captures up to 48 bytes), and the priority queue is an
/// inline 4-ary min-heap of 16-byte plain-data entries — half the levels
/// of a binary heap, and each level's four children share a cache line,
/// so sifts are short and branch-predictable. Cancellation is a
/// tombstone bit in the slot plus a per-slot generation that invalidates
/// stale EventIds in O(1) — no hashing, and Cancel() of an event that
/// already ran is detected exactly (the generation has advanced) instead
/// of poisoning a cancelled-set forever.
///
/// Coarse-deadline timers (client retry/force timers, RPC timeouts,
/// chaos repair events — anything >= ~1 ms out) take a hierarchical
/// timer-wheel tier instead of the heap: O(1) insertion into a bucketed
/// calendar, with each bucket flushed wholesale into the heap when the
/// clock reaches its start. Entries keep their original (time, seq)
/// keys, so the executed schedule is bit-for-bit the same as a heap-only
/// build — the wheel only changes *where* a far-out timer waits. The
/// point is the churn: at thousands of clients most of these timers are
/// cancelled long before they fire (acks beat timeouts), and a wheeled
/// timer that dies in its bucket never pays heap sifts at all.
class Simulator final : public Scheduler {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// "No pending event": the sentinel PeekNextTime() returns for an
  /// empty queue, ordered after every real time.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();

  /// Current simulated time.
  Time Now() const override { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= Now()). Events with
  /// equal time run in scheduling order.
  EventId At(Time t, Callback fn) override;

  /// Cancels a pending event. Returns false if it already ran or was
  /// already cancelled.
  bool Cancel(EventId id) override;

  /// Runs until the event queue is empty.
  void Run();

  /// Runs events with time <= `t`, then sets Now() to `t`.
  void RunUntil(Time t);

  /// Runs for `d` simulated time from Now().
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Executes a single event; returns false if the queue was empty.
  bool Step();

  /// Time of the earliest pending live event, or kNoEvent when the queue
  /// is empty. May garbage-collect tombstoned entries at the queue head
  /// as a side effect — invisible on the executed schedule. The cluster
  /// harness uses this to place its telemetry and polling stops.
  Time PeekNextTime();

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  /// Number of live pending events (cancelled events no longer count,
  /// even while their queue entry awaits garbage collection).
  size_t pending_events() const { return live_events_; }

  /// True while an event callback is running — i.e., the caller is code
  /// executing *inside* the simulation rather than setup/teardown code
  /// between runs. TickSequencer uses this to tell deferrable in-run
  /// posts from quiescent ones that must apply inline.
  bool Executing() const { return executing_; }

  /// Toggles the timer-wheel tier (on by default). Disabling while
  /// timers are wheeled flushes them into the heap — legal at any time,
  /// and invisible on the executed schedule either way; the toggle
  /// exists so tests and benches can compare wheel vs heap-only builds.
  void EnableTimerWheel(bool on);
  bool timer_wheel_enabled() const { return wheel_enabled_; }
  /// Entries currently waiting in wheel buckets (live + cancelled).
  size_t wheel_pending() const { return wheel_ ? wheel_->size : 0; }

 private:
  /// A queued event: plain data only — the callback stays in its slot.
  /// `key` packs the schedule-order tie-break (`seq`, the role the public
  /// EventId used to play; the id itself now carries a generation and so
  /// is no longer monotonic) above the slot index, so an Entry is 16
  /// bytes and the four children of a heap node share one cache line.
  /// Limits implied by the packing: 2^40 (~10^12) events per Simulator
  /// lifetime, 2^24 (~16M) simultaneously queued — both far beyond any
  /// experiment, and asserted in At().
  struct Entry {
    Time time;
    uint64_t key;  // (seq << kSlotBits) | slot
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static uint32_t SlotOfEntry(const Entry& e) {
    return static_cast<uint32_t>(e.key) & kSlotMask;
  }
  /// Execution order: earlier time first, then schedule order. `seq` is
  /// unique, so comparing the packed key is exactly comparing seq.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  /// Callback storage plus the tombstone/generation cancellation state.
  struct Slot {
    Callback fn;
    uint32_t generation = 0;
    bool cancelled = false;
    /// Entry waits in a wheel bucket, not the heap: its cancellation is
    /// counted against the wheel, and PurgeCancelled must not expect to
    /// find it.
    bool in_wheel = false;
  };

  /// The timer-wheel calendar: kLevels levels of kBuckets buckets, level
  /// l bucketing time in widths of 2^(kShift + l*kBucketBits) ns. An
  /// event at delta >= its level's bucket width lands in a bucket whose
  /// start is strictly in the future, so flushing buckets as the clock
  /// reaches their starts never moves time backwards. Deltas under ~1 ms
  /// or beyond the top level's span stay in the heap. Lazily allocated:
  /// simulations that never see coarse timers pay one null check.
  struct Wheel {
    static constexpr int kShift = 20;      // level-0 bucket ~1.05 ms
    static constexpr int kBucketBits = 6;  // 64 buckets per level
    static constexpr int kLevels = 4;      // top span ~4.9 simulated hours
    static constexpr int kBuckets = 1 << kBucketBits;
    /// Bit b set iff bucket[l][b] is non-empty.
    uint64_t occupied[kLevels] = {};
    std::vector<Entry> bucket[kLevels][kBuckets];
    size_t size = 0;        // entries across all buckets (incl. cancelled)
    size_t tombstones = 0;  // cancelled entries still in buckets
    /// Earliest occupied bucket start (kNoEvent when empty). Always
    /// > now_: due buckets are flushed before the clock passes them.
    Time next = std::numeric_limits<Time>::max();
  };

  /// Wheel level for an event `delta` ahead of now, or -1 for the heap.
  static int WheelLevel(Duration delta);
  /// Absolute start of occupied bucket (level, b) — the unique boundary
  /// with that index in (now_, now_ + span].
  Time WheelBucketStart(int level, int b) const;
  /// Moves every bucket starting exactly at wheel_->next into the heap
  /// (frees cancelled entries) and advances wheel_->next.
  void FlushDueWheelBuckets();
  /// Recomputes wheel_->next by scanning the occupancy bitmaps.
  void RecomputeWheelNext();
  /// Drops cancelled wheel entries (the wheel-side PurgeCancelled).
  void PurgeWheel();
  /// Raw earliest heap time (tombstones included) — a conservative
  /// horizon for deciding whether a wheel bucket is due.
  Time HeapTopTime() const {
    return heap_.empty() ? kNoEvent : heap_.front().time;
  }

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    // slot+1 keeps id 0 unissued.
    return (static_cast<uint64_t>(slot + 1) << 32) | generation;
  }
  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 32) - 1;
  }
  static uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id);
  }

  /// Pops the queue head, frees its slot, and runs it unless tombstoned.
  /// Returns true if a live event ran. Shared by Step() and RunUntil().
  bool PopAndMaybeRun();
  /// Returns the slot to the free list and invalidates outstanding ids.
  void FreeSlot(uint32_t slot);

  // 4-ary min-heap over Entry (root at index 0, children of i at
  // 4i+1..4i+4).
  void HeapPush(const Entry& e);
  void HeapPop();
  /// Sifts the element at `i` down to its heap position (hole-based: one
  /// move per level).
  void SiftDown(size_t i);
  /// Rebuilds the heap without its cancelled entries (O(n) Floyd
  /// build), freeing their slots. Triggered from Cancel() once
  /// tombstones outnumber live entries, so the heap tracks the live
  /// population instead of the cancellation history: timer-heavy
  /// workloads (arm, cancel on ack) would otherwise sift through a
  /// queue that is mostly dead weight. Amortized O(1) per cancel.
  /// Removal order is irrelevant to determinism — only live events
  /// execute, and their relative (time, seq) order is preserved.
  void PurgeCancelled();

  Time now_ = 0;
  bool executing_ = false;
  bool wheel_enabled_ = true;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  size_t live_events_ = 0;
  size_t tombstones_ = 0;  // cancelled entries still in heap_
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unique_ptr<Wheel> wheel_;
};

/// Replays sequenced posts at the end of their tick in (key, post order)
/// order. Actors shared by every node (the Network's medium arbitration
/// and topology maps) Post their mutations here instead of applying them
/// inline, so same-tick posts from different nodes apply in ascending
/// key order — with key = source node id, a pure function of simulated
/// state — rather than in heap-insertion order. This is the tie order
/// every committed baseline was recorded under. Key 0 is reserved for
/// control-plane mutations (attach/detach, partitions, link faults).
///
/// Mechanics: the first Post in a tick schedules one drain event at the
/// current time; since every event of tick T is already queued when T
/// begins (components never schedule at zero delay into the running
/// tick), the drain pops after all of them and replays the sorted batch.
/// A post made from inside a drained callback lands in a fresh buffer
/// whose own drain runs later in the same tick. Posts while quiescent
/// (setup/teardown between runs) apply inline.
class TickSequencer final {
 public:
  explicit TickSequencer(Simulator* sim) : sim_(sim) {}

  TickSequencer(const TickSequencer&) = delete;
  TickSequencer& operator=(const TickSequencer&) = delete;

  /// Runs `fn` at the end of the current tick, after every other event
  /// of the tick, in (key, post order); inline when quiescent.
  void Post(uint64_t key, Callback fn);

 private:
  void Drain();

  struct Item {
    uint64_t key;
    uint64_t seq;
    Callback fn;
  };

  Simulator* sim_;
  uint64_t next_seq_ = 0;
  std::vector<Item> buffer_;
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_SIMULATOR_H_
