#ifndef DLOG_SIM_SCHEDULER_H_
#define DLOG_SIM_SCHEDULER_H_

#include <cstdint>

#include "sim/callback.h"
#include "sim/time.h"

namespace dlog::sim {

/// Identifies a scheduled event so it can be cancelled. Ids are never
/// reused within one engine; id 0 is never issued (callers use it as
/// "no event").
using EventId = uint64_t;

/// The narrow scheduling surface every component programs against: a
/// clock plus one-shot timers. sim::Simulator implements it; nothing
/// wider (Run, Step, queue introspection) is exposed here, so driving
/// the clock stays a harness decision.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current simulated time.
  virtual Time Now() const = 0;

  /// Schedules `fn` to run at absolute time `t` (>= Now()). Events with
  /// equal time run in scheduling order.
  virtual EventId At(Time t, Callback fn) = 0;

  /// Cancels a pending event. Returns false if it already ran or was
  /// already cancelled.
  virtual bool Cancel(EventId id) = 0;

  /// Schedules `fn` to run `d` after Now().
  EventId After(Duration d, Callback fn) { return At(Now() + d, std::move(fn)); }
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_SCHEDULER_H_
