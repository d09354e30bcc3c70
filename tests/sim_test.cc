#include <gtest/gtest.h>

#include <string>
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

// --- Timer-wheel tier ---
//
// Timers at least 2^20 ticks out are staged in wheel buckets instead of
// the heap; the wheel is schedule-invisible, so everything observable
// (firing order, firing times, cancellation semantics) must match a
// heap-only engine exactly.

constexpr Duration kWheelHorizon = Duration{1} << 20;

TEST(TimerWheelTest, FarTimersAreStagedNearTimersAreNot) {
  Simulator sim;
  ASSERT_TRUE(sim.timer_wheel_enabled());
  sim.At(100, []() {});
  EXPECT_EQ(sim.wheel_pending(), 0u);  // below the horizon: straight to heap
  sim.At(kWheelHorizon + 5, []() {});
  EXPECT_EQ(sim.wheel_pending(), 1u);
}

TEST(TimerWheelTest, WheeledTimersFireInOrderAtExactTimes) {
  Simulator sim;
  std::vector<std::pair<int, Time>> fired;
  sim.At(3 * kWheelHorizon + 7, [&]() { fired.push_back({3, sim.Now()}); });
  sim.At(kWheelHorizon + 5, [&]() { fired.push_back({1, sim.Now()}); });
  sim.At(2 * kWheelHorizon, [&]() { fired.push_back({2, sim.Now()}); });
  sim.At(10, [&]() { fired.push_back({0, sim.Now()}); });
  sim.Run();
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<int, Time>{0, 10}));
  EXPECT_EQ(fired[1], (std::pair<int, Time>{1, kWheelHorizon + 5}));
  EXPECT_EQ(fired[2], (std::pair<int, Time>{2, 2 * kWheelHorizon}));
  EXPECT_EQ(fired[3], (std::pair<int, Time>{3, 3 * kWheelHorizon + 7}));
  EXPECT_EQ(sim.wheel_pending(), 0u);
}

TEST(TimerWheelTest, EqualFarTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const Time t = kWheelHorizon + 123;
  sim.At(t, [&]() { order.push_back(1); });
  sim.At(t, [&]() { order.push_back(2); });
  sim.At(t, [&]() { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, CancelledWheeledTimerNeverFires) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.At(kWheelHorizon + 50, [&]() { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel reports failure
  sim.At(2 * kWheelHorizon, []() {});  // run time past the cancelled slot
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, DisableFlushesWheelAndPreservesSchedule) {
  Simulator sim;
  std::vector<int> order;
  sim.At(kWheelHorizon + 20, [&]() { order.push_back(2); });
  sim.At(kWheelHorizon + 10, [&]() { order.push_back(1); });
  ASSERT_EQ(sim.wheel_pending(), 2u);
  sim.EnableTimerWheel(false);
  EXPECT_EQ(sim.wheel_pending(), 0u);  // flushed into the heap
  EXPECT_FALSE(sim.timer_wheel_enabled());
  sim.At(kWheelHorizon + 15, [&]() { order.push_back(15); });  // heap now
  EXPECT_EQ(sim.wheel_pending(), 0u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 15, 2}));
}

TEST(TimerWheelTest, ReenablingResumesStaging) {
  Simulator sim;
  sim.EnableTimerWheel(false);
  sim.At(kWheelHorizon + 1, []() {});
  EXPECT_EQ(sim.wheel_pending(), 0u);
  sim.EnableTimerWheel(true);
  sim.At(kWheelHorizon + 2, []() {});
  EXPECT_EQ(sim.wheel_pending(), 1u);
  sim.Run();
}

TEST(TimerWheelTest, IdenticalExecutionToHeapOnlyOnMixedWorkload) {
  // A self-rescheduling mix of near and far (later cancelled) timers;
  // the executed (time, label) sequence must be identical with the
  // wheel on and off.
  auto run = [](bool wheel) {
    Simulator sim;
    sim.EnableTimerWheel(wheel);
    std::vector<std::pair<Time, int>> log;
    struct Chain {
      Simulator* sim;
      std::vector<std::pair<Time, int>>* log;
      int id;
      int remaining;
      EventId decoy = 0;
      void Fire() {
        log->push_back({sim->Now(), id});
        if (decoy != 0) sim->Cancel(decoy);
        if (remaining-- == 0) return;
        decoy = sim->After(kWheelHorizon + 3 * id, []() {});
        sim->After(17 + id, [this]() { Fire(); });
      }
    };
    std::vector<Chain> chains;
    chains.reserve(4);
    for (int i = 0; i < 4; ++i) {
      chains.push_back(Chain{&sim, &log, i, 40});
    }
    for (auto& c : chains) {
      sim.At(static_cast<Time>(c.id), [&c]() { c.Fire(); });
    }
    sim.Run();
    return log;
  };
  EXPECT_EQ(run(true), run(false));
}

// --- TickSequencer ---

TEST(TickSequencerTest, PostsRunInKeyOrderAfterTheTicksOtherEvents) {
  Simulator sim;
  TickSequencer seq(&sim);
  std::vector<std::string> order;
  auto post = [&](uint64_t key) {
    seq.Post(key,
             [&order, key]() { order.push_back("k" + std::to_string(key)); });
  };
  sim.At(10, [&]() { post(3); order.push_back("e1"); });
  sim.At(10, [&]() { post(1); order.push_back("e2"); });
  sim.At(10, [&]() { post(2); order.push_back("e3"); });
  sim.At(10, [&]() { order.push_back("e4"); });
  sim.At(11, [&]() { order.push_back("next"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"e1", "e2", "e3", "e4", "k1",
                                             "k2", "k3", "next"}));
}

TEST(TickSequencerTest, EqualKeysKeepPostOrder) {
  Simulator sim;
  TickSequencer seq(&sim);
  std::vector<std::string> order;
  auto post = [&](uint64_t key, std::string tag) {
    seq.Post(key, [&order, tag]() { order.push_back(tag); });
  };
  sim.At(10, [&]() {
    post(5, "a");
    post(5, "b");
  });
  sim.At(10, [&]() {
    post(5, "c");
    post(2, "d");
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"d", "a", "b", "c"}));
}

TEST(TickSequencerTest, QuiescentPostRunsInline) {
  Simulator sim;
  TickSequencer seq(&sim);
  bool ran = false;
  seq.Post(7, [&]() { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TickSequencerTest, PostFromDrainedCallbackRunsInLaterDrainOfSameTick) {
  Simulator sim;
  TickSequencer seq(&sim);
  std::vector<std::pair<std::string, Time>> order;
  auto record = [&](std::string tag) { order.emplace_back(tag, sim.Now()); };
  sim.At(10, [&]() {
    seq.Post(1, [&]() {
      record("outer");
      // Key 0 sorts before everything in the running batch, but the
      // batch is already being replayed: it waits for the next drain.
      seq.Post(0, [&]() { record("inner"); });
    });
    seq.Post(2, [&]() { record("second"); });
  });
  sim.At(11, [&]() { record("next"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::pair<std::string, Time>>{
                       {"outer", 10}, {"second", 10}, {"inner", 10},
                       {"next", 11}}));
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
  cpu.Execute(1000, nullptr);  // busy 1 ms
  sim.RunUntil(4 * kMillisecond);
  EXPECT_NEAR(cpu.Utilization(), 0.25, 1e-9);
}

TEST(CpuTest, ResetStatsStartsNewWindow) {
  Simulator sim;
  Cpu cpu(&sim, 1.0);
  cpu.Execute(1000, nullptr);
  sim.RunUntil(2 * kMillisecond);
  cpu.ResetStats();
  sim.RunUntil(4 * kMillisecond);
  EXPECT_NEAR(cpu.Utilization(), 0.0, 1e-9);
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

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
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

TEST(GaugeTest, TracksLevelAndHighWaterMark) {
  Gauge g;
  g.Set(4);
  g.Add(3);
  EXPECT_EQ(g.value(), 7);
  g.Add(-5);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(GaugeTest, NegativeLevelsAllowed) {
  Gauge g;
  g.Add(-3);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(g.max(), 0);
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

TEST(TimeWeightedGaugeTest, ResetStartsNewWindow) {
  TimeWeightedGauge g;
  g.Set(0, 100.0);
  g.Set(10, 2.0);
  g.Reset(10);
  EXPECT_DOUBLE_EQ(g.Average(20), 2.0);
  // Max restarts from the level held at reset time.
  EXPECT_DOUBLE_EQ(g.max(), 2.0);
}

}  // namespace
}  // namespace dlog::sim
