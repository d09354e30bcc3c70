#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dlog::sim {

void Simulator::HeapPush(const Entry& e) {
  // Hole insertion: bubble an empty slot up and place `e` once, one move
  // per level instead of a three-move swap.
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDown(size_t i) {
  // Sift a hole at `i` down, moving the smallest child up one move per
  // level, until the displaced element fits.
  const Entry e = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    // Smallest of the (up to four) children.
    size_t best = first_child;
    const size_t last_child =
        first_child + 4 <= n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::HeapPop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void Simulator::PurgeCancelled() {
  size_t w = 0;
  for (size_t r = 0; r < heap_.size(); ++r) {
    const uint32_t slot = SlotOfEntry(heap_[r]);
    if (slots_[slot].cancelled) {
      FreeSlot(slot);
    } else {
      heap_[w++] = heap_[r];
    }
  }
  heap_.resize(w);
  // Floyd bottom-up heapify: leaves are already heaps.
  if (w > 1) {
    for (size_t i = (w - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  tombstones_ = 0;
}

int Simulator::WheelLevel(Duration delta) {
  if (delta < (Duration{1} << Wheel::kShift)) return -1;
  // Level l holds deltas whose most significant bit lies in its bucket-
  // width band [kShift + l*kBucketBits, kShift + (l+1)*kBucketBits):
  // small enough to land within the level's 64-bucket span, and at least
  // one bucket width out, so the bucket's start is strictly future.
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(delta));
  const int level = (msb - Wheel::kShift) / Wheel::kBucketBits;
  return level < Wheel::kLevels ? level : -1;
}

Time Simulator::WheelBucketStart(int level, int b) const {
  const int shift = Wheel::kShift + Wheel::kBucketBits * level;
  const uint64_t cur = static_cast<uint64_t>(now_) >> shift;
  // The unique boundary with index b in (now_, now_ + span]: occupied
  // buckets are always strictly ahead of the clock (due ones are flushed
  // before the clock passes them), so index b at distance 0 means a full
  // lap ahead.
  uint64_t steps = (static_cast<uint64_t>(b) - cur) & (Wheel::kBuckets - 1);
  if (steps == 0) steps = Wheel::kBuckets;
  return static_cast<Time>((cur + steps) << shift);
}

void Simulator::RecomputeWheelNext() {
  Time next = kNoEvent;
  for (int l = 0; l < Wheel::kLevels; ++l) {
    for (uint64_t m = wheel_->occupied[l]; m != 0; m &= m - 1) {
      const int b = __builtin_ctzll(m);
      const Time start = WheelBucketStart(l, b);
      if (start < next) next = start;
    }
  }
  wheel_->next = next;
}

void Simulator::FlushDueWheelBuckets() {
  const Time due = wheel_->next;
  for (int l = 0; l < Wheel::kLevels; ++l) {
    const int shift = Wheel::kShift + Wheel::kBucketBits * l;
    const int b =
        static_cast<int>((static_cast<uint64_t>(due) >> shift) &
                         (Wheel::kBuckets - 1));
    if ((wheel_->occupied[l] & (uint64_t{1} << b)) == 0) continue;
    if (WheelBucketStart(l, b) != due) continue;  // a later lap
    std::vector<Entry>& bucket = wheel_->bucket[l][b];
    for (const Entry& e : bucket) {
      const uint32_t slot = SlotOfEntry(e);
      Slot& s = slots_[slot];
      s.in_wheel = false;
      if (s.cancelled) {
        // Dies here: a wheeled-then-cancelled timer never touches the
        // heap at all.
        --wheel_->tombstones;
        FreeSlot(slot);
      } else {
        // The entry keeps its original (time, seq) key, so once
        // heap-resident it orders exactly as if it had never wheeled.
        HeapPush(e);
      }
    }
    wheel_->size -= bucket.size();
    bucket.clear();  // keeps capacity: buckets are reused every lap
    wheel_->occupied[l] &= ~(uint64_t{1} << b);
  }
  RecomputeWheelNext();
}

void Simulator::PurgeWheel() {
  for (int l = 0; l < Wheel::kLevels; ++l) {
    for (uint64_t m = wheel_->occupied[l]; m != 0; m &= m - 1) {
      const int b = __builtin_ctzll(m);
      std::vector<Entry>& bucket = wheel_->bucket[l][b];
      size_t w = 0;
      for (size_t r = 0; r < bucket.size(); ++r) {
        const uint32_t slot = SlotOfEntry(bucket[r]);
        if (slots_[slot].cancelled) {
          slots_[slot].in_wheel = false;
          FreeSlot(slot);
        } else {
          bucket[w++] = bucket[r];
        }
      }
      wheel_->size -= bucket.size() - w;
      bucket.resize(w);
      if (w == 0) wheel_->occupied[l] &= ~(uint64_t{1} << b);
    }
  }
  wheel_->tombstones = 0;
  RecomputeWheelNext();
}

void Simulator::EnableTimerWheel(bool on) {
  wheel_enabled_ = on;
  if (!on && wheel_ != nullptr && wheel_->size > 0) {
    // Flush everything into the heap: every wheeled entry's time is
    // ahead of now_, so this is legal mid-run and schedule-invisible.
    while (wheel_->size > 0) FlushDueWheelBuckets();
  }
}

EventId Simulator::At(Time t, Callback fn) {
  assert(t >= now_ && "cannot schedule in the past");
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.cancelled = false;
  assert(slot <= kSlotMask && "too many simultaneously queued events");
  assert(next_seq_ < (uint64_t{1} << (64 - kSlotBits)) &&
         "event sequence numbers exhausted");
  const Entry entry{t, (next_seq_++ << kSlotBits) | slot};
  const int level = wheel_enabled_ ? WheelLevel(t - now_) : -1;
  if (level >= 0) {
    if (wheel_ == nullptr) wheel_ = std::make_unique<Wheel>();
    const int shift = Wheel::kShift + Wheel::kBucketBits * level;
    const int b =
        static_cast<int>((static_cast<uint64_t>(t) >> shift) &
                         (Wheel::kBuckets - 1));
    wheel_->bucket[level][b].push_back(entry);
    wheel_->occupied[level] |= uint64_t{1} << b;
    ++wheel_->size;
    const Time start =
        static_cast<Time>((static_cast<uint64_t>(t) >> shift) << shift);
    if (start < wheel_->next) wheel_->next = start;
    s.in_wheel = true;
  } else {
    HeapPush(entry);
  }
  ++live_events_;
  return MakeId(slot, s.generation);
}

bool Simulator::Cancel(EventId id) {
  if (id == 0) return false;
  const uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A generation mismatch means the event already ran (its slot was freed
  // and possibly reissued); a set tombstone means it was already
  // cancelled. Either way there is nothing to cancel.
  if (s.generation != GenerationOf(id) || s.cancelled) return false;
  s.cancelled = true;
  --live_events_;
  if (s.in_wheel) {
    // Wheel-side tombstone: reclaimed when its bucket flushes, or by
    // PurgeWheel if the wheel fills with dead entries first. It must not
    // count against the heap's purge trigger — PurgeCancelled scans only
    // the heap and would never find it.
    if (++wheel_->tombstones > wheel_->size / 2 && wheel_->size >= 64) {
      PurgeWheel();
    }
    return true;
  }
  // Keep the queue dominated by live entries (see PurgeCancelled). The
  // floor avoids churn on tiny heaps, where sifts are cheap anyway.
  if (++tombstones_ > heap_.size() / 2 && heap_.size() >= 64) {
    PurgeCancelled();
  }
  return true;
}

void Simulator::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = Callback();
  s.in_wheel = false;
  ++s.generation;  // invalidates every EventId issued for this slot
  free_slots_.push_back(slot);
}

bool Simulator::PopAndMaybeRun() {
  const Entry entry = heap_.front();
  HeapPop();
  const uint32_t slot = SlotOfEntry(entry);
  Slot& s = slots_[slot];
  if (s.cancelled) {
    --tombstones_;
    FreeSlot(slot);
    return false;
  }
  // Move the callback out before freeing: running it may schedule new
  // events, which can reuse this slot or grow the slot table.
  Callback fn = std::move(s.fn);
  FreeSlot(slot);
  --live_events_;
  now_ = entry.time;
  ++events_executed_;
  executing_ = true;
  fn();
  executing_ = false;
  return true;
}

Time Simulator::PeekNextTime() {
  for (;;) {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      const uint32_t slot = SlotOfEntry(top);
      if (!slots_[slot].cancelled) break;
      --tombstones_;
      HeapPop();
      FreeSlot(slot);
    }
    const Time h = HeapTopTime();
    if (wheel_ == nullptr || wheel_->size == 0 || wheel_->next > h) {
      return h;
    }
    // A wheel bucket may hold the earliest event; make it heap-resident
    // (invisible on the executed schedule, like the tombstone GC above).
    FlushDueWheelBuckets();
  }
}

bool Simulator::Step() {
  for (;;) {
    if (wheel_ != nullptr && wheel_->size > 0 &&
        wheel_->next <= HeapTopTime()) {
      FlushDueWheelBuckets();
      continue;
    }
    if (heap_.empty()) return false;
    if (PopAndMaybeRun()) return true;
  }
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Time t) {
  for (;;) {
    if (wheel_ != nullptr && wheel_->size > 0 && wheel_->next <= t &&
        wheel_->next <= HeapTopTime()) {
      // Due on this run: a bucket starting at or before `t` may hold
      // events with time <= t. Buckets starting after `t` hold only
      // later events and stay wheeled across the final clock advance.
      FlushDueWheelBuckets();
      continue;
    }
    if (heap_.empty()) break;
    const Entry& top = heap_.front();
    if (slots_[SlotOfEntry(top)].cancelled) {
      // Collect tombstones eagerly even past `t`: their slots free up and
      // the queue shrinks without a hash probe per pop.
      const uint32_t slot = SlotOfEntry(top);
      --tombstones_;
      HeapPop();
      FreeSlot(slot);
      continue;
    }
    if (top.time > t) break;
    PopAndMaybeRun();
  }
  if (t > now_) now_ = t;
}

void TickSequencer::Post(uint64_t key, Callback fn) {
  if (!sim_->Executing()) {
    // Quiescent: setup/teardown code observes its effects synchronously,
    // and there is no same-tick contention to arbitrate.
    fn();
    return;
  }
  if (buffer_.empty()) {
    sim_->At(sim_->Now(), [this] { Drain(); });
  }
  buffer_.push_back({key, next_seq_++, std::move(fn)});
}

void TickSequencer::Drain() {
  // Sort, not stable_sort: seq is unique, so (key, seq) is a total order.
  std::sort(buffer_.begin(), buffer_.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  });
  // Swap out before running: a replayed callback may Post again (at this
  // same tick only via a zero-delay chain, which schedules a fresh drain
  // that pops later in the tick).
  std::vector<Item> batch;
  batch.swap(buffer_);
  for (Item& item : batch) item.fn();
  // Hand the capacity back for the next tick's posts, unless the batch
  // posted for a later drain of its own.
  batch.clear();
  if (buffer_.empty()) buffer_.swap(batch);
}

}  // namespace dlog::sim
