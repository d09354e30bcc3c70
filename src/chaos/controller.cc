#include "chaos/controller.h"

#include <string>

#include "obs/flight.h"

namespace dlog::chaos {

double MarkovFaultConfig::SteadyStateDownProbability() const {
  return static_cast<double>(mttr) / static_cast<double>(mttf + mttr);
}

Status MarkovFaultConfig::Validate() const {
  if (mttf <= 0) return Status::InvalidArgument("mttf must be > 0");
  if (mttr <= 0) return Status::InvalidArgument("mttr must be > 0");
  return Status::OK();
}

ChaosController::ChaosController(sim::Scheduler* sim, FaultTargets* targets)
    : sim_(sim), targets_(targets) {}

void ChaosController::RegisterMetrics(obs::MetricsRegistry* registry) const {
  registry->RegisterCounter("chaos/faults_injected", &faults_injected_);
  registry->RegisterCounter("chaos/server_crashes", &server_crashes_);
  registry->RegisterCounter("chaos/server_restarts", &server_restarts_);
  registry->RegisterCounter("chaos/client_crashes", &client_crashes_);
  registry->RegisterCounter("chaos/client_restarts", &client_restarts_);
  registry->RegisterCounter("chaos/partitions", &partitions_);
  registry->RegisterCounter("chaos/partition_heals", &partition_heals_);
  registry->RegisterCounter("chaos/link_degrades", &link_degrades_);
  registry->RegisterCounter("chaos/disk_failures", &disk_failures_);
  registry->RegisterCounter("chaos/nvram_losses", &nvram_losses_);
}

void ChaosController::Execute(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events()) {
    sim_->After(event.at, [this, event]() { Inject(event); });
  }
}

void ChaosController::Inject(const FaultEvent& event) {
  if (!Apply(event)) return;
  faults_injected_.Increment();
  EmitSpan(event);
  MaybeDumpFlight(event);
}

void ChaosController::MaybeDumpFlight(const FaultEvent& event) {
  if (flight_ == nullptr) return;
  switch (event.type) {
    case FaultType::kServerCrash:
    case FaultType::kDiskFail:
    case FaultType::kNvramLoss:
      flight_->Dump("server-" + std::to_string(event.target), sim_->Now(),
                    "chaos." + std::string(FaultTypeName(event.type)));
      return;
    case FaultType::kClientCrash:
      flight_->Dump(targets_->ClientNodeName(event.target), sim_->Now(),
                    "chaos." + std::string(FaultTypeName(event.type)));
      return;
    default:
      return;
  }
}

bool ChaosController::Apply(const FaultEvent& event) {
  switch (event.type) {
    case FaultType::kServerCrash:
      if (event.target < 1 || event.target > targets_->num_servers() ||
          !targets_->ServerUp(event.target)) {
        return false;
      }
      targets_->CrashServer(event.target);
      server_crashes_.Increment();
      return true;
    case FaultType::kServerRestart:
      if (event.target < 1 || event.target > targets_->num_servers() ||
          targets_->ServerUp(event.target)) {
        return false;
      }
      targets_->RestartServer(event.target);
      server_restarts_.Increment();
      return true;
    case FaultType::kClientCrash:
      if (event.target < 0 || event.target >= targets_->num_clients() ||
          !targets_->ClientUp(event.target)) {
        return false;
      }
      targets_->CrashClient(event.target);
      client_crashes_.Increment();
      return true;
    case FaultType::kClientRestart:
      if (event.target < 0 || event.target >= targets_->num_clients() ||
          targets_->ClientUp(event.target)) {
        return false;
      }
      targets_->RestartClient(event.target);
      client_restarts_.Increment();
      return true;
    case FaultType::kPartition:
      if (event.network < 0 || event.network >= targets_->num_networks()) {
        return false;
      }
      targets_->network(event.network).SetPartition(event.groups);
      partitions_.Increment();
      return true;
    case FaultType::kHealPartition:
      if (event.network < 0 || event.network >= targets_->num_networks() ||
          !targets_->network(event.network).HasPartition()) {
        return false;
      }
      targets_->network(event.network).HealPartition();
      partition_heals_.Increment();
      return true;
    case FaultType::kLinkDegrade:
      if (event.network < 0 || event.network >= targets_->num_networks()) {
        return false;
      }
      targets_->network(event.network)
          .SetLinkFault(event.src, event.dst, event.link);
      link_degrades_.Increment();
      return true;
    case FaultType::kLinkRestore:
      if (event.network < 0 || event.network >= targets_->num_networks()) {
        return false;
      }
      targets_->network(event.network).ClearLinkFault(event.src, event.dst);
      return true;
    case FaultType::kDiskFail:
      if (event.target < 1 || event.target > targets_->num_servers() ||
          !targets_->ServerUp(event.target)) {
        return false;
      }
      targets_->FailServerDisk(event.target);
      disk_failures_.Increment();
      return true;
    case FaultType::kNvramLoss:
      if (event.target < 1 || event.target > targets_->num_servers() ||
          !targets_->ServerUp(event.target)) {
        return false;
      }
      targets_->LoseServerNvram(event.target);
      nvram_losses_.Increment();
      return true;
  }
  return false;
}

void ChaosController::EmitSpan(const FaultEvent& event) {
  if (tracer_ == nullptr) return;
  obs::SpanContext ctx = tracer_->StartTrace(
      "chaos." + std::string(FaultTypeName(event.type)), "chaos");
  switch (event.type) {
    case FaultType::kServerCrash:
    case FaultType::kServerRestart:
    case FaultType::kDiskFail:
    case FaultType::kNvramLoss:
      tracer_->AddArg(ctx, "server", static_cast<uint64_t>(event.target));
      break;
    case FaultType::kClientCrash:
    case FaultType::kClientRestart:
      tracer_->AddArg(ctx, "client", static_cast<uint64_t>(event.target));
      break;
    case FaultType::kPartition:
    case FaultType::kHealPartition:
      tracer_->AddArg(ctx, "network", static_cast<uint64_t>(event.network));
      break;
    case FaultType::kLinkDegrade:
    case FaultType::kLinkRestore:
      tracer_->AddArg(ctx, "network", static_cast<uint64_t>(event.network));
      tracer_->AddArg(ctx, "src", static_cast<uint64_t>(event.src));
      tracer_->AddArg(ctx, "dst", static_cast<uint64_t>(event.dst));
      break;
  }
  tracer_->EndSpan(ctx);
}

void ChaosController::StartMarkov(const MarkovFaultConfig& config) {
  DLOG_CHECK_OK(config.Validate());
  markov_ = config;
  markov_running_ = true;
  ++markov_generation_;
  markov_rngs_.clear();
  for (int s = 1; s <= targets_->num_servers(); ++s) {
    // Independent per-server stream: splitmix inside Rng spreads the
    // (seed, server) pair into unrelated sequences.
    markov_rngs_.emplace_back(config.seed + 0x100000001b3ull *
                                                static_cast<uint64_t>(s));
    ScheduleTransition(s, /*crash_next=*/true);
  }
}

void ChaosController::StopMarkov() {
  markov_running_ = false;
  ++markov_generation_;
}

void ChaosController::ScheduleTransition(int server, bool crash_next) {
  Rng& rng = markov_rngs_[static_cast<size_t>(server - 1)];
  const double mean_s = sim::DurationToSeconds(
      crash_next ? markov_.mttf : markov_.mttr);
  const sim::Duration wait =
      sim::SecondsToDuration(rng.NextExponential(mean_s));
  const uint64_t generation = markov_generation_;
  sim_->After(wait, [this, server, crash_next, generation]() {
    if (generation != markov_generation_) return;
    FaultEvent e;
    e.type = crash_next ? FaultType::kServerCrash
                        : FaultType::kServerRestart;
    e.target = server;
    Inject(e);
    ScheduleTransition(server, !crash_next);
  });
}

}  // namespace dlog::chaos
