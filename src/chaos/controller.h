#ifndef DLOG_CHAOS_CONTROLLER_H_
#define DLOG_CHAOS_CONTROLLER_H_

#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/targets.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

namespace dlog::chaos {

/// The continuous-time Markov (alternating-renewal) fault process of
/// Section 3.2: each server is independently up for an exponential time
/// with mean `mttf`, then down for an exponential time with mean `mttr`,
/// so its steady-state down probability is p = MTTR / (MTTF + MTTR) —
/// the `p` of the paper's availability formulas.
struct MarkovFaultConfig {
  sim::Duration mttf = 190 * sim::kSecond;  // mean time to failure
  sim::Duration mttr = 10 * sim::kSecond;   // mean time to repair
  uint64_t seed = 1;

  /// p = MTTR / (MTTF + MTTR).
  double SteadyStateDownProbability() const;

  Status Validate() const;
};

/// Executes FaultPlans and runs the Markov fault process against a
/// FaultTargets (in practice: a harness::Cluster), entirely on the
/// simulator clock. Every injected fault emits a closed root span
/// ("chaos.<type>" on node "chaos", annotated with its target) and bumps
/// a per-type counter, so exported traces show cause -> effect and
/// metric snapshots count what was injured.
///
/// Determinism: plan events fire at fixed simulated times; the Markov
/// process drives each server from its own Rng (derived from the config
/// seed and the server id), so the sampled fault schedule is a pure
/// function of (config, seed) regardless of event interleaving.
class ChaosController {
 public:
  ChaosController(sim::Scheduler* sim, FaultTargets* targets);

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// Attaches the shared causal tracer (may be null: spans dropped).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches the flight recorder (may be null): every successfully
  /// applied crash-class fault (server/client crash, disk fail, NVRAM
  /// loss) dumps the victim's ring at the instant of the fault.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  /// Registers the per-fault-type counters under "chaos/...".
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  /// Schedules every event of `plan`, relative to the current simulated
  /// time. Multiple plans may be executed; their events interleave.
  void Execute(const FaultPlan& plan);

  /// Injects one fault immediately (the Execute path, without the
  /// schedule). Faults against targets already in the requested state
  /// (e.g. crashing a down server) are skipped and not counted.
  void Inject(const FaultEvent& event);

  /// Starts the Markov crash/repair process on every server. Replaces a
  /// running process.
  void StartMarkov(const MarkovFaultConfig& config);
  /// Stops sampling; servers stay in whatever state they are in.
  void StopMarkov();
  bool MarkovRunning() const { return markov_running_; }

  uint64_t faults_injected() const { return faults_injected_.value(); }
  sim::Counter& server_crashes() { return server_crashes_; }
  sim::Counter& server_restarts() { return server_restarts_; }
  sim::Counter& client_crashes() { return client_crashes_; }
  sim::Counter& client_restarts() { return client_restarts_; }
  sim::Counter& partitions() { return partitions_; }
  sim::Counter& partition_heals() { return partition_heals_; }
  sim::Counter& link_degrades() { return link_degrades_; }
  sim::Counter& disk_failures() { return disk_failures_; }
  sim::Counter& nvram_losses() { return nvram_losses_; }

 private:
  /// Applies the event against the targets. Returns false when it was a
  /// no-op (already in the requested state / no such target).
  bool Apply(const FaultEvent& event);
  void EmitSpan(const FaultEvent& event);
  /// Flight-recorder dump for crash-class faults (no-op otherwise).
  void MaybeDumpFlight(const FaultEvent& event);
  /// Schedules the next up->down or down->up transition of `server`.
  void ScheduleTransition(int server, bool crash_next);

  sim::Scheduler* sim_;
  FaultTargets* targets_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;

  MarkovFaultConfig markov_;
  bool markov_running_ = false;
  /// Bumped by StopMarkov/StartMarkov; in-flight transitions from an
  /// older process check it and abandon themselves.
  uint64_t markov_generation_ = 0;
  /// One independent stream per server (index server-1): the sampled
  /// schedule never depends on event interleaving.
  std::vector<Rng> markov_rngs_;

  sim::Counter faults_injected_;
  sim::Counter server_crashes_;
  sim::Counter server_restarts_;
  sim::Counter client_crashes_;
  sim::Counter client_restarts_;
  sim::Counter partitions_;
  sim::Counter partition_heals_;
  sim::Counter link_degrades_;
  sim::Counter disk_failures_;
  sim::Counter nvram_losses_;
};

}  // namespace dlog::chaos

#endif  // DLOG_CHAOS_CONTROLLER_H_
