#include "sim/simulator.h"

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
  HeapPush({t, (next_seq_++ << kSlotBits) | slot});
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
  fn();
  return true;
}

Time Simulator::PeekNextTime() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    const uint32_t slot = SlotOfEntry(top);
    if (!slots_[slot].cancelled) return top.time;
    --tombstones_;
    HeapPop();
    FreeSlot(slot);
  }
  return kNoEvent;
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    if (PopAndMaybeRun()) return true;
  }
  return false;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Time t) {
  // PeekNextTime collects tombstones at the head, even past `t`, so the
  // head PopAndMaybeRun takes is always live.
  while (PeekNextTime() <= t && !heap_.empty()) PopAndMaybeRun();
  if (t > now_) now_ = t;
}

}  // namespace dlog::sim
