#ifndef DLOG_SIM_CPU_H_
#define DLOG_SIM_CPU_H_

#include <cstdint>

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
  Cpu(Scheduler* sim, double mips);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Schedules `instructions` of work; calls `done` (may be null) at the
  /// simulated completion time. Work is served FIFO after all previously
  /// submitted work.
  void Execute(uint64_t instructions, Callback done);

  /// The CPU's busy account: cumulative service time of all work
  /// submitted since construction, bumped at submission by the full
  /// service time of the queued work. Registrable as a counter; windowed
  /// telemetry diffs it per sampling window. With busy_until(),
  /// sim::BusyElapsed gives the busy time elapsed by any instant, and a
  /// window's busy time is the difference of two such readings.
  const Counter& busy_ns() const { return busy_ns_; }

  /// When the work queued so far completes (0 before any work).
  Time busy_until() const { return free_at_; }

  double mips() const { return mips_; }

  /// Converts an instruction count to execution time on this CPU.
  Duration InstructionsToTime(uint64_t instructions) const;

 private:
  Scheduler* sim_;
  double mips_;
  Time free_at_ = 0;  // when previously queued work completes
  Counter busy_ns_;   // total busy time ever (see busy_ns())
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_CPU_H_
