#ifndef DLOG_SIM_SIMULATOR_H_
#define DLOG_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
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
  };

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
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  size_t live_events_ = 0;
  size_t tombstones_ = 0;  // cancelled entries still in heap_
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_SIMULATOR_H_
