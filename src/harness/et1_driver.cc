#include "harness/et1_driver.h"

#include <string>

namespace dlog::harness {

Et1Driver::Et1Driver(Cluster* cluster, client::LogClientConfig log_config,
                     const Et1DriverConfig& config)
    : cluster_(cluster), config_(config), rng_(config.seed) {
  log_ = cluster->AddClient(log_config);
  sched_ = &cluster->sim();
  logger_ = std::make_unique<tp::ReplicatedTxnLogger>(log_.get());
  page_disk_ = std::make_unique<tp::PageDisk>(config.engine.page_bytes);
  engine_ = std::make_unique<tp::TransactionEngine>(
      sched_, logger_.get(), page_disk_.get(), config.engine);
  bank_ = std::make_unique<tp::BankDb>(engine_.get(), config.bank);
  // Same node name as the LogClient so the engine's "txn" roots and the
  // client's "wal.group"/"ForceLog" spans share a timeline row.
  trace_node_ = "client-" + std::to_string(log_->client_id());
  engine_->SetTracer(&cluster->tracer(), trace_node_);
  engine_->RegisterMetrics(&cluster->metrics(), trace_node_);
  cluster->metrics().RegisterHistogram(
      trace_node_ + "/driver/txn_latency_ms", &txn_latency_ms_);
}

Et1Driver::~Et1Driver() {
  stopped_ = true;
  // The registry outlives this driver; drop its pointers into the engine
  // and histogram before they die. The log client is cluster-owned and
  // keeps its "client-<id>/log/" metrics registered.
  cluster_->metrics().UnregisterPrefix(trace_node_ + "/tp/");
  cluster_->metrics().UnregisterPrefix(trace_node_ + "/driver/");
}

void Et1Driver::Start() {
  log_->Init([this](Status st) {
    if (!st.ok()) {
      // Keep polling: "the client process can poll until it receives
      // responses from enough servers."
      sched_->After(500 * sim::kMillisecond,
                    [this]() { if (!stopped_) Start(); });
      return;
    }
    started_ = true;
    ScheduleNext();
  });
}

void Et1Driver::Stop() { stopped_ = true; }

void Et1Driver::ScheduleNext() {
  if (stopped_) return;
  const double gap_s = rng_.NextExponential(1.0 / config_.tps);
  sched_->After(sim::SecondsToDuration(gap_s), [this]() {
    if (stopped_) return;
    RunOne();
    ScheduleNext();
  });
}

void Et1Driver::RunOne() {
  if (config_.max_log_backlog > 0 &&
      log_->pending_records() > config_.max_log_backlog) {
    ++txns_shed_;
    return;
  }
  const int account =
      static_cast<int>(rng_.NextBelow(config_.bank.accounts));
  const int teller = static_cast<int>(rng_.NextBelow(config_.bank.tellers));
  const int branch =
      static_cast<int>(rng_.NextBelow(config_.bank.branches));
  const int64_t delta = static_cast<int64_t>(rng_.NextBelow(200)) - 100;
  const sim::Time start = sched_->Now();
  bank_->RunEt1(account, teller, branch, delta, [this, start](Status st) {
    if (st.ok()) {
      ++committed_;
      txn_latency_ms_.Add(
          sim::DurationToSeconds(sched_->Now() - start) * 1e3);
    } else {
      ++failed_;
    }
  });
}

std::function<bool()> AllStarted(
    const std::vector<std::unique_ptr<Et1Driver>>& drivers) {
  return [&drivers, next = size_t{0}]() mutable {
    while (next < drivers.size() && drivers[next]->started()) ++next;
    return next == drivers.size();
  };
}

}  // namespace dlog::harness
