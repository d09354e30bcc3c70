#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&]() { order.push_back(3); });
  sim.At(10, [&]() { order.push_back(1); });
  sim.At(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  Time fired = 0;
  sim.At(100, [&]() {
    sim.After(50, [&]() { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, 150u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.At(10, [&]() { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.At(10, [&]() { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  // The id is stale: its slot was freed when the event ran. The old
  // cancelled-set implementation accepted it (returning true and leaking a
  // poisoned entry); the generation scheme detects it exactly.
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);  // must not underflow
}

TEST(SimulatorTest, StaleIdDoesNotCancelSlotReuser) {
  Simulator sim;
  bool first = false;
  bool second = false;
  EventId id1 = sim.At(10, [&]() { first = true; });
  sim.RunUntil(10);
  EXPECT_TRUE(first);
  // This event reuses the freed slot of id1; its generation differs, so
  // cancelling through the stale id must not touch it.
  EventId id2 = sim.At(20, [&]() { second = true; });
  EXPECT_NE(id1, id2);
  EXPECT_FALSE(sim.Cancel(id1));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.At(10, []() {});
  EventId id = sim.At(20, []() {});
  sim.At(30, []() {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Cancel(id));
  // The tombstoned entry may still sit in the queue, but it is not live.
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, CancelledEventsPastRunUntilAreCollected) {
  Simulator sim;
  int count = 0;
  std::vector<EventId> far;
  for (int i = 0; i < 100; ++i) {
    far.push_back(sim.At(1000 + i, [&]() { ++count; }));
  }
  sim.At(10, [&]() { ++count; });
  for (EventId id : far) EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntil(20);  // collects the far tombstones eagerly
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, CompactionPreservesLiveEventOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with a majority of soon-cancelled events so the
  // tombstone compaction (triggered when cancelled entries outnumber
  // live ones) runs mid-stream.
  for (int i = 0; i < 200; ++i) {
    sim.At(10 + 5 * i, [&order, i]() { order.push_back(i); });
    doomed.push_back(sim.At(11 + 5 * i, []() {}));
    doomed.push_back(sim.At(12 + 5 * i, []() {}));
  }
  for (EventId id : doomed) EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 200u);
  sim.Run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.events_executed(), 200u);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.At(10, [&]() { ++count; });
  sim.At(20, [&]() { ++count; });
  sim.At(30, [&]() { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) sim.After(1, recurse);
  };
  sim.After(1, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 100u);
}

// Far timers: from just over 2^20 ns to hours out, they wait in the one
// heap like any other event.

constexpr Duration kFar = (Duration{1} << 20) + 1;
constexpr Duration kHour = 3600 * kSecond;

TEST(SimulatorTest, FarTimersFireInTimeOrderAtExactTimes) {
  Simulator sim;
  std::vector<std::pair<int, Time>> fired;
  const Time hours = 3 * kHour + 7;
  sim.At(hours, [&]() { fired.push_back({4, sim.Now()}); });
  sim.At(3 * kFar, [&]() { fired.push_back({2, sim.Now()}); });
  sim.At(kFar, [&]() { fired.push_back({1, sim.Now()}); });
  sim.At(kSecond, [&]() { fired.push_back({3, sim.Now()}); });
  sim.At(10, [&]() { fired.push_back({0, sim.Now()}); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, Time>>{{0, 10},
                                                      {1, kFar},
                                                      {2, 3 * kFar},
                                                      {3, kSecond},
                                                      {4, hours}}));
}

TEST(SimulatorTest, EqualFarTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (const Time t : {kFar + 123, 2 * kHour}) {
    for (int i = 0; i < 3; ++i) {
      sim.At(t, [&order, i]() { order.push_back(i); });
    }
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(SimulatorTest, CancelledFarTimerNeverFires) {
  Simulator sim;
  bool fired = false;
  EventId near_id = sim.At(kFar + 50, [&]() { fired = true; });
  EventId far_id = sim.At(5 * kHour, [&]() { fired = true; });
  sim.At(6 * kHour, []() {});  // runs time past both cancelled timers
  ASSERT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Cancel(near_id));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(far_id));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(far_id));  // a second cancel reports failure
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), 6 * kHour);
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(SecondsToDuration(1.5), 1'500'000'000u);
  EXPECT_EQ(SecondsToDuration(-1.0), 0u);
  EXPECT_DOUBLE_EQ(DurationToSeconds(2 * kSecond), 2.0);
  EXPECT_EQ(kMillisecond, 1'000'000u);
}

// --- Cpu ---

TEST(CpuTest, ExecutionTimeMatchesMips) {
  Simulator sim;
  Cpu cpu(&sim, 1.0);  // 1 MIPS: 1000 instructions = 1 ms
  Time done_at = 0;
  cpu.Execute(1000, [&]() { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, kMillisecond);
}

TEST(CpuTest, WorkIsServedFifo) {
  Simulator sim;
  Cpu cpu(&sim, 1.0);
  std::vector<Time> completions;
  cpu.Execute(1000, [&]() { completions.push_back(sim.Now()); });
  cpu.Execute(2000, [&]() { completions.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], kMillisecond);
  EXPECT_EQ(completions[1], 3 * kMillisecond);  // queued behind the first
}

TEST(CpuTest, UtilizationTracksBusyFraction) {
  Simulator sim;
  Cpu cpu(&sim, 1.0);
  auto elapsed = [&]() {
    return BusyElapsed(cpu.busy_ns().value(), cpu.busy_until(), sim.Now());
  };
  cpu.Execute(1000, nullptr);  // busy [0, 1) ms
  cpu.Execute(2000, nullptr);  // queued behind it: busy [1, 3) ms
  // The account is charged at submission; none of it has elapsed yet.
  EXPECT_EQ(cpu.busy_ns().value(), 3 * kMillisecond);
  EXPECT_EQ(cpu.busy_until(), 3 * kMillisecond);
  EXPECT_EQ(elapsed(), 0u);
  sim.RunUntil(2 * kMillisecond);
  EXPECT_EQ(elapsed(), 2 * kMillisecond);
  sim.RunUntil(4 * kMillisecond);
  const Duration busy = elapsed();
  EXPECT_EQ(busy, 3 * kMillisecond);
  EXPECT_DOUBLE_EQ(static_cast<double>(busy) / static_cast<double>(sim.Now()),
                   0.75);
  // Idle from 3 ms on: a later window reads no busy time.
  sim.RunUntil(6 * kMillisecond);
  EXPECT_EQ(elapsed() - busy, 0u);
}

TEST(CpuTest, InstructionsToTime) {
  Simulator sim;
  Cpu cpu(&sim, 4.0);
  EXPECT_EQ(cpu.InstructionsToTime(4'000'000), kSecond);
}

// --- Stats ---

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.Add(0.0);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.25), 2.5);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.99), 0.0);
}

TEST(HistogramTest, AddAfterQueryResorts) {
  Histogram h;
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Max(), 5.0);
  h.Add(9.0);
  EXPECT_DOUBLE_EQ(h.Max(), 9.0);
}

TEST(CounterTest, Increments) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(HistogramTest, MergeFoldsSamples) {
  Histogram a, b;
  a.Add(1.0);
  a.Add(3.0);
  b.Add(5.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.Max(), 5.0);
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 3.0);
  // The source is untouched.
  EXPECT_EQ(b.count(), 1u);
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram a, b;
  a.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(TimeWeightedGaugeTest, AverageWeightsByHoldingTime) {
  TimeWeightedGauge g;
  // Level 10 for 9 units, then 0 for 1 unit: mean 9.0, not 5.0.
  g.Set(0, 10.0);
  g.Set(9, 0.0);
  EXPECT_DOUBLE_EQ(g.Average(10), 9.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TimeWeightedGaugeTest, BeforeAnySetIsZero) {
  TimeWeightedGauge g;
  EXPECT_DOUBLE_EQ(g.Average(100), 0.0);
}

TEST(TimeWeightedGaugeTest, NoElapsedTimeReturnsCurrentLevel) {
  TimeWeightedGauge g;
  g.Set(5, 3.0);
  EXPECT_DOUBLE_EQ(g.Average(5), 3.0);
}

TEST(TimeWeightedGaugeTest, WindowMeanIsDifferenceOfIntegrals) {
  TimeWeightedGauge g;
  EXPECT_DOUBLE_EQ(g.Integral(5), 0.0);  // before any Set
  // Level 100 over [10,20), 200 over [20,40), then 50; each reading is
  // taken at its instant, as a run reads its accounts.
  g.Set(10, 100.0);
  EXPECT_DOUBLE_EQ(g.Integral(10), 0.0);
  const double i15 = g.Integral(15);
  g.Set(20, 300.0);
  g.Set(20, 200.0);  // same instant: replaces the level
  const double i30 = g.Integral(30);
  g.Set(40, 50.0);
  EXPECT_DOUBLE_EQ(g.Integral(40), 100.0 * 10 + 200.0 * 20);
  const double i60 = g.Integral(60);
  // Windows that start and end between level changes.
  EXPECT_DOUBLE_EQ(i15, 100.0 * 5);
  EXPECT_DOUBLE_EQ((i30 - i15) / 15, (100.0 * 5 + 200.0 * 10) / 15);
  EXPECT_DOUBLE_EQ((i60 - i30) / 30, (200.0 * 10 + 50.0 * 20) / 30);
  // The whole-run mean is the window from the first Set.
  EXPECT_DOUBLE_EQ(g.Average(60), i60 / 50);
  EXPECT_DOUBLE_EQ(g.max(), 300.0);  // max sees every Set, even replaced
}

}  // namespace
}  // namespace dlog::sim
