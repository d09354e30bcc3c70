// Optical archive: Section 4.3 designs the on-disk structures so that
// "write once (optical) storage" can hold the log. This example runs a
// log server fleet whose disks are write-once, exercises writes, crash
// recovery, and the append-forest index, and shows that nothing ever
// needs to overwrite a track.
//
// Build & run:  cmake --build build && ./build/examples/optical_archive

#include <cstdio>
#include <optional>

#include "harness/cluster.h"

int main() {
  using namespace dlog;

  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 3;
  cluster_cfg.server.disk.write_once = true;   // optical media
  cluster_cfg.server.disk.track_bytes = 2048;  // small tracks: more appends
  cluster_cfg.server.flush_interval = 20 * sim::kMillisecond;
  harness::Cluster cluster(cluster_cfg);

  client::LogClientConfig client_cfg;
  client_cfg.client_id = 1;
  auto log = cluster.AddClient(client_cfg);
  bool ready = false;
  log->Init([&](Status st) { ready = st.ok(); });
  cluster.RunUntil([&]() { return ready; });
  std::printf("log client initialized (epoch %llu), disks are WRITE-ONCE\n",
              static_cast<unsigned long long>(log->current_epoch()));

  // Stream a few hundred records with periodic forces.
  for (int batch = 0; batch < 20; ++batch) {
    Lsn last = kNoLsn;
    for (int i = 0; i < 10; ++i) {
      auto lsn = log->WriteLog(Bytes(120, static_cast<uint8_t>('A' + i)));
      if (lsn.ok()) last = *lsn;
    }
    bool done = false;
    log->ForceLog(last, [&](Status) { done = true; });
    cluster.RunUntil([&]() { return done; });
  }
  cluster.sim().RunFor(sim::kSecond);

  for (int s = 1; s <= 3; ++s) {
    auto& server = cluster.server(s);
    const std::optional<forest::AppendForest> forest = server.ForestOf(1);
    std::printf(
        "server %d: %3llu tracks appended, %3zu records online, "
        "append-forest %s (%llu nodes)\n",
        s,
        static_cast<unsigned long long>(server.tracks_written().value()),
        server.LiveRecordsOf(1),
        forest.has_value() && forest->CheckInvariants().ok() ? "consistent"
                                                             : "(empty)",
        forest.has_value() ? static_cast<unsigned long long>(forest->size())
                           : 0ULL);
  }

  // Crash and restart every server: recovery replays the write-once
  // stream (no track is ever rewritten).
  for (int s = 1; s <= 3; ++s) cluster.server(s).Crash();
  cluster.sim().RunFor(100 * sim::kMillisecond);
  for (int s = 1; s <= 3; ++s) cluster.server(s).Restart();

  cluster.CrashClient(log);
  cluster.RestartClient(log);
  auto log2 = log;
  ready = false;
  log2->Init([&](Status st) { ready = st.ok(); });
  cluster.RunUntil([&]() { return ready; });

  bool done = false;
  Result<Bytes> r = Status::Internal("never");
  log2->ReadLog(42, [&](Result<Bytes> got) {
    r = std::move(got);
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  std::printf(
      "after full-fleet crash+restart: ReadLog(42) -> %s, EndOfLog=%llu\n",
      r.ok() ? "OK" : r.status().ToString().c_str(),
      static_cast<unsigned long long>(log2->EndOfLog()));
  return r.ok() ? 0 : 1;
}
