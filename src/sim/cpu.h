#ifndef DLOG_SIM_CPU_H_
#define DLOG_SIM_CPU_H_

#include <cstdint>
#include <functional>
#include <string>

#include "sim/callback.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::sim {

/// Models a node's processor as a single FIFO-served resource with a fixed
/// instruction rate (Section 2 anticipates "at least a few MIPS").
///
/// Work is expressed in instruction counts, matching the paper's Section
/// 4.1 accounting (1000 instructions per packet, 2000 instructions to
/// process the log records in a message, 2000 instructions per track
/// write). Execute() queues the work and invokes the completion callback
/// when the simulated processor has gotten to and finished it.
class Cpu {
 public:
  /// `mips` is millions of instructions per second; must be > 0.
  Cpu(Scheduler* sim, double mips, std::string name = "cpu");

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Schedules `instructions` of work; calls `done` (may be null) at the
  /// simulated completion time. Work is served FIFO after all previously
  /// submitted work.
  void Execute(uint64_t instructions, Callback done);

  /// Time the CPU has spent busy since construction (or last ResetStats).
  Duration busy_time() const { return busy_time_; }

  /// Cumulative busy nanoseconds since construction as a registrable
  /// counter: never reset, bumped at submission time by the full service
  /// time of the queued work. Increments happen while the submitting
  /// event executes, so reading it at a quiescent point is deterministic
  /// — the utilization signal windowed telemetry diffs per sampling
  /// window, with no profiler attached.
  const Counter& busy_ns() const { return busy_ns_; }

  /// Busy fraction over the window since the last ResetStats() call.
  double Utilization() const;

  /// Resets the utilization accounting window to start at Now().
  void ResetStats();

  double mips() const { return mips_; }
  const std::string& name() const { return name_; }

  /// Converts an instruction count to execution time on this CPU.
  Duration InstructionsToTime(uint64_t instructions) const;

  /// Busy-interval probe: invoked once per Execute() with the simulated
  /// interval [start, end) the processor is busy on that work. Intervals
  /// are reported in submission order with non-decreasing start times
  /// (FIFO service), which lets a profiler build an exact utilization
  /// timeline without sampling. Null (the default) costs nothing.
  using BusyProbe = std::function<void(Time start, Time end)>;
  void SetBusyProbe(BusyProbe probe) { busy_probe_ = std::move(probe); }

 private:
  Scheduler* sim_;
  double mips_;
  std::string name_;
  Time free_at_ = 0;        // when previously queued work completes
  Duration busy_time_ = 0;  // total busy time in the current window
  Counter busy_ns_;         // total busy time ever (see busy_ns())
  Time window_start_ = 0;
  BusyProbe busy_probe_;
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_CPU_H_
