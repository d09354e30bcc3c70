// Experiment E3 — Figures 3-1, 3-2, 3-3: the worked example of the
// replicated log algorithm. Drives the reference implementation through
// the exact history implied by the figures (epoch-1 writes on servers
// 1+2, an epoch-3 recovery using servers 1+3, server switches for LSNs
// 6-7 and 8-9, a partial write of record 10, and a final recovery using
// servers 1+2) and prints each server's records in the paper's
// LSN/Epoch/Present table format after each stage.

#include <cstdio>
#include <memory>
#include <vector>

#include "client/log_server_stub.h"
#include "client/replicated_log.h"
#include "epoch/id_generator.h"

namespace {

using namespace dlog;
using client::InMemoryLogServerStub;
using client::ReplicatedLog;

constexpr ClientId kClient = 1;

void PrintServers(std::vector<std::unique_ptr<InMemoryLogServerStub>>& s) {
  // Column-per-server table of <LSN, Epoch, Present> rows.
  std::vector<std::vector<LogRecord>> rows;
  size_t max_rows = 0;
  for (auto& srv : s) {
    rows.push_back(srv->store(kClient).Records());
    max_rows = std::max(max_rows, rows.back().size());
  }
  for (size_t i = 0; i < s.size(); ++i) {
    std::printf("     Server %zu          ", i + 1);
  }
  std::printf("\n");
  for (size_t i = 0; i < s.size(); ++i) {
    std::printf("LSN  Epoch  Present    ");
  }
  std::printf("\n");
  for (size_t r = 0; r < max_rows; ++r) {
    for (size_t i = 0; i < s.size(); ++i) {
      if (r < rows[i].size()) {
        const LogRecord& rec = rows[i][r];
        std::printf("%-4llu %-6llu %-10s ",
                    static_cast<unsigned long long>(rec.lsn),
                    static_cast<unsigned long long>(rec.epoch),
                    rec.present ? "yes" : "no");
      } else {
        std::printf("%-22s ", "");
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::vector<std::unique_ptr<InMemoryLogServerStub>> servers;
  std::vector<client::LogServerStub*> raw;
  for (int i = 1; i <= 3; ++i) {
    servers.push_back(std::make_unique<InMemoryLogServerStub>(i));
    raw.push_back(servers.back().get());
  }
  std::vector<std::unique_ptr<epoch::GeneratorStateRep>> reps;
  std::vector<epoch::GeneratorStateRep*> raw_reps;
  for (int i = 0; i < 3; ++i) {
    reps.push_back(std::make_unique<epoch::GeneratorStateRep>());
    raw_reps.push_back(reps.back().get());
  }
  epoch::ReplicatedIdGenerator generator(raw_reps);
  ReplicatedLog::Options opts;
  opts.copies = 2;

  // Epoch 1: records 1-3 on servers 1 and 2.
  {
    ReplicatedLog log(kClient, raw, &generator, opts);
    if (!log.Init().ok()) return 1;
    for (int i = 1; i <= 3; ++i) (void)log.WriteLog(ToBytes("epoch1"));
  }
  (void)generator.NewId();  // the figures' history includes a burnt epoch

  {
    // Epoch 3: recovery using servers 1 and 3 (server 2 down), then
    // writes 5 (S1+S3), 6-7 (S1+S2), 8-9 (S1+S3).
    servers[1]->SetAvailable(false);
    ReplicatedLog log(kClient, raw, &generator, opts);
    if (!log.Init().ok()) return 1;
    (void)log.WriteLog(ToBytes("r5"));
    servers[1]->SetAvailable(true);
    servers[2]->SetAvailable(false);
    (void)log.WriteLog(ToBytes("r6"));
    (void)log.WriteLog(ToBytes("r7"));
    servers[2]->SetAvailable(true);
    servers[1]->SetAvailable(false);
    (void)log.WriteLog(ToBytes("r8"));
    (void)log.WriteLog(ToBytes("r9"));
    servers[1]->SetAvailable(true);

    std::printf("=== Figure 3-1: three log server nodes ===\n");
    PrintServers(servers);

    // Record 10 partially written (reaches server 3 only).
    servers[0]->SetAvailable(false);
    (void)log.WriteLogCrashAfter(ToBytes("r10"), 1);
    servers[0]->SetAvailable(true);
    std::printf(
        "=== Figure 3-2: record 10 partially written (server 3 only) "
        "===\n");
    PrintServers(servers);
  }

  // Figure 3-3: crash recovery using servers 1 and 2, server 3 down.
  servers[2]->SetAvailable(false);
  ReplicatedLog log(kClient, raw, &generator, opts);
  if (!log.Init().ok()) return 1;
  servers[2]->SetAvailable(true);
  std::printf(
      "=== Figure 3-3: after crash recovery with server 3 unavailable "
      "===\n");
  PrintServers(servers);

  std::printf("record 10 reported as: %s (consistently not present)\n",
              log.ReadLog(10).status().ToString().c_str());
  std::printf("record 9 reads back:  \"%s\"\n",
              ToString(*log.ReadLog(9)).c_str());
  return 0;
}
