#ifndef DLOG_HARNESS_ET1_DRIVER_H_
#define DLOG_HARNESS_ET1_DRIVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "sim/stats.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"

namespace dlog::harness {

/// Workload parameters for one transaction-processing node.
struct Et1DriverConfig {
  /// Target local transaction rate (the paper's clients "execute ten
  /// local ET1 transactions per second"), with Poisson arrivals.
  double tps = 10.0;
  tp::BankConfig bank;
  tp::EngineConfig engine;
  uint64_t seed = 1;
  /// End-to-end backpressure: when nonzero, a new transaction is refused
  /// (counted in txns_shed()) while the log client holds more than this
  /// many unacknowledged records — the application-level response to
  /// server overload, closing the loop the servers' Overloaded replies
  /// start. 0 keeps the legacy open-loop arrivals.
  size_t max_log_backlog = 0;
};

/// One simulated transaction-processing node: a replicated-log client, a
/// WAL engine, an ET1 bank, and an open-loop arrival process. Used by the
/// capacity (E4), remote-vs-local (E5), and load-assignment (E9)
/// experiments and the workstation_cluster example.
class Et1Driver {
 public:
  Et1Driver(Cluster* cluster, client::LogClientConfig log_config,
            const Et1DriverConfig& config);
  ~Et1Driver();

  Et1Driver(const Et1Driver&) = delete;
  Et1Driver& operator=(const Et1Driver&) = delete;

  /// Initializes the replicated log, then begins issuing transactions.
  void Start();
  /// Stops issuing new transactions (in-flight ones complete).
  void Stop();

  /// True once Init has succeeded and transactions are issuing; never
  /// reverts.
  bool started() const { return started_; }
  uint64_t committed() const { return committed_; }
  uint64_t failed() const { return failed_; }
  /// Transactions refused at arrival because the log backlog exceeded
  /// Et1DriverConfig::max_log_backlog.
  uint64_t txns_shed() const { return txns_shed_; }
  sim::Histogram& txn_latency_ms() { return txn_latency_ms_; }
  client::LogClient& log() { return *log_; }
  tp::TransactionEngine& engine() { return *engine_; }
  tp::BankDb& bank() { return *bank_; }

 private:
  void ScheduleNext();
  void RunOne();

  Cluster* cluster_;
  /// The cluster's scheduler: arrivals and latency stamps are events on
  /// it.
  sim::Scheduler* sched_;
  Et1DriverConfig config_;
  /// "client-<id>": names this node in traces and metric paths.
  std::string trace_node_;
  Rng rng_;
  /// The cluster-owned replicated-log client this node drives.
  ClientHandle log_;
  std::unique_ptr<tp::ReplicatedTxnLogger> logger_;
  std::unique_ptr<tp::PageDisk> page_disk_;
  std::unique_ptr<tp::TransactionEngine> engine_;
  std::unique_ptr<tp::BankDb> bank_;

  bool started_ = false;
  bool stopped_ = false;
  uint64_t committed_ = 0;
  uint64_t failed_ = 0;
  uint64_t txns_shed_ = 0;
  sim::Histogram txn_latency_ms_;
};

/// A Cluster::RunUntil predicate that holds once every driver in
/// `drivers` has started. started() never reverts, so the predicate keeps
/// a cursor past the drivers already seen: a poll costs amortized O(1),
/// not O(drivers), and it turns true at the first poll after the last
/// driver starts.
std::function<bool()> AllStarted(
    const std::vector<std::unique_ptr<Et1Driver>>& drivers);

}  // namespace dlog::harness

#endif  // DLOG_HARNESS_ET1_DRIVER_H_
