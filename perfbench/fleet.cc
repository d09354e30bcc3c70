// One repetition of one fleet workload of the dlog benchmark.
//
// Builds a seeded ET1 fleet on the serial engine, waits for every
// client's Init, warms up, and measures one window of simulated time.
// Host cost is process CPU time; everything else is simulated and is a
// pure function of (workload, seed). Prints one JSON object: the rep's
// host measurements, its simulated end-to-end and per-layer figures, its
// correctness checks and an end-state hash, and (with --trace 1) the
// per-module attribution of the SIGPROF sampler.
//
// Usage: perfbench_fleet --workload steady|overload|recovery --seed N
//                        [--trace 0|1] [--trace-out FILE]
//        perfbench_fleet --reference   (times ReferenceCpuSeconds only)
//
// run.py runs a fixed number of repetitions per seed, checks that they
// agree, and reports the fastest one's host time; see README.md for the
// workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <regex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "sampler.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"

namespace perfbench {
namespace {

using namespace dlog;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double SimSeconds(sim::Time t) { return sim::DurationToSeconds(t); }

/// Linear-interpolated quantile of sorted values (sim::Histogram's rule).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// --- Workload shapes -------------------------------------------------

struct Shape {
  int clients = 0;
  int servers = 0;
  /// Servers per client: client i uses `slice` consecutive servers of its
  /// group, generator representatives on the first three.
  int slice = 5;
  /// Clients per server group (0: one group, slices wrap round the
  /// fleet as in E17).
  int group_clients = 0;
  double tps = 2.0;
  size_t max_log_backlog = 64;
  bool flow = false;
  bool slow_disk = false;
  int bank_accounts = 100;
  sim::Duration init_spread = 2 * sim::kSecond;
  sim::Duration warmup = 1 * sim::kSecond;
  sim::Duration window = 10 * sim::kSecond;
  // recovery only
  int victims = 0;
  /// Arrival rate of the victims, which build up longer logs than the
  /// rest of the fleet.
  double victim_tps = 0;
  /// Victims crash one by one, evenly spaced over this much of the
  /// window, in the (seeded) order they were picked.
  sim::Duration crash_span = 0;
  sim::Duration downtime = 500 * sim::kMillisecond;
};

bool ShapeOf(const std::string& workload, Shape* s) {
  if (workload == "steady") {
    // E17's geometry: 2000 clients x 20 servers, 5-server slices, 2 TPS
    // each on a 1 Gbit LAN, far below the knee.
    s->clients = 2000;
    s->servers = 20;
    s->window = 10 * sim::kSecond;
    return true;
  }
  if (workload == "overload") {
    // E16's slow-disk, 48 KB-NVRAM server triple with ten clients,
    // replicated into independent groups sharing one LAN, each driven at
    // twice its knee with the flow stack on.
    s->clients = 160;
    s->servers = 48;
    s->slice = 3;
    s->group_clients = 10;
    s->tps = 2 * 19.0;
    s->max_log_backlog = 32;
    s->flow = true;
    s->slow_disk = true;
    s->warmup = 2 * sim::kSecond;
    s->window = 20 * sim::kSecond;
    return true;
  }
  if (workload == "recovery") {
    // A lightly writing fleet in which 40 seeded victims build up longer
    // logs during the warm-up, then crash one every 250 ms, restart, and
    // replay their whole logs through tp recovery. The window is long
    // enough for every recovery to finish inside it.
    s->clients = 400;
    s->servers = 40;
    s->tps = 0.25;
    s->victims = 40;
    s->victim_tps = 4.0;
    s->warmup = 30 * sim::kSecond;
    s->window = 50 * sim::kSecond;
    s->crash_span = 10 * sim::kSecond;
    return true;
  }
  return false;
}

// --- The fleet and its counters --------------------------------------

/// Cumulative fleet counters; per-window figures are end - start.
struct Counts {
  uint64_t committed = 0, failed = 0, refused = 0, log_records = 0;
  uint64_t events = 0, bits_sent = 0, bytes_copied = 0;
  uint64_t records_sent = 0, batches_sent = 0, resends = 0, backoffs = 0;
  uint64_t records_written = 0, tracks_written = 0, bytes_logged = 0;
  uint64_t writes_shed = 0, overload_replies = 0, read_rpcs = 0;
  uint64_t disk_writes = 0, server_busy_ns = 0, disk_busy_ns = 0;
};

struct Fleet {
  Shape shape;
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  /// Client-node counters of crashed incarnations (a restarted client
  /// counts from zero again), so fleet sums stay monotone.
  Counts retired;
  sim::StreamingHistogram retired_force_us;
  std::vector<bool> replaced;
  /// The clients the recovery script crashes, chosen from the seed.
  std::vector<int> victims;

  /// Adds a client's counters to `retired` before its node dies.
  void Retire(int i) {
    client::LogClient& c = cluster->client(i);
    retired.records_sent += c.records_sent().value();
    retired.batches_sent += c.batches_sent().value();
    retired.resends += c.resends().value();
    retired.backoffs += c.backoffs().value();
    retired_force_us.Merge(c.force_latency_us());
    replaced[static_cast<size_t>(i)] = true;
  }

  Counts Snapshot() {
    Counts c = retired;
    for (auto& d : drivers) {
      c.committed += d->committed();
      c.failed += d->failed();
      c.refused += d->txns_shed();
      c.log_records += d->engine().log_records();
    }
    for (int i = 0; i < cluster->num_clients(); ++i) {
      client::LogClient& lc = cluster->client(i);
      c.records_sent += lc.records_sent().value();
      c.batches_sent += lc.batches_sent().value();
      c.resends += lc.resends().value();
      c.backoffs += lc.backoffs().value();
    }
    for (int s = 1; s <= cluster->num_servers(); ++s) {
      server::LogServer& srv = cluster->server(s);
      c.records_written += srv.records_written().value();
      c.tracks_written += srv.tracks_written().value();
      c.bytes_logged += srv.bytes_logged();
      c.writes_shed += srv.writes_shed().value();
      c.overload_replies += srv.admission().overload_replies().value();
      c.read_rpcs += srv.read_rpcs().value();
      c.disk_writes += srv.disk().writes().value();
      c.server_busy_ns += srv.cpu().busy_ns().value();
      c.disk_busy_ns += static_cast<uint64_t>(srv.disk().busy_time());
    }
    c.events = cluster->sim().events_executed();
    for (int n = 0; n < cluster->num_networks(); ++n) {
      c.bits_sent += cluster->network(n).bits_sent();
    }
    c.bytes_copied = BytesCopied();
    return c;
  }

  /// Force-latency bucket counts over every client incarnation so far.
  std::vector<uint64_t> ForceBuckets() {
    std::vector<uint64_t> b(sim::StreamingHistogram::kNumBuckets, 0);
    auto add = [&b](const sim::StreamingHistogram& h) {
      const auto& counts = h.buckets();
      for (size_t i = 0; i < counts.size(); ++i) b[i] += counts[i];
    };
    add(retired_force_us);
    for (int i = 0; i < cluster->num_clients(); ++i) {
      add(cluster->client(i).force_latency_us());
    }
    return b;
  }
};

void BuildFleet(const Shape& shape, uint64_t seed, Fleet* f) {
  f->shape = shape;
  harness::ClusterConfig cfg;
  cfg.num_servers = shape.servers;
  cfg.seed = Mix(seed, 1);
  cfg.network.bandwidth_bits_per_sec = 1e9;
  if (shape.slow_disk) {
    cfg.server.disk.rpm = 600;
    cfg.server.nvram_bytes = 48 * 1024;
  }
  cfg.server.admission.enabled = shape.flow;
  if (shape.flow) {
    cfg.server.admission.min_retry_after = 10 * sim::kMillisecond;
    cfg.server.admission.max_retry_after = 150 * sim::kMillisecond;
  }
  f->cluster = std::make_unique<harness::Cluster>(cfg);
  f->replaced.assign(static_cast<size_t>(shape.clients), false);
  std::vector<bool> is_victim(static_cast<size_t>(shape.clients), false);
  Rng pick(Mix(seed, 7));
  while (static_cast<int>(f->victims.size()) < shape.victims) {
    const int i = static_cast<int>(pick.NextBelow(shape.clients));
    if (is_victim[static_cast<size_t>(i)]) continue;
    is_victim[static_cast<size_t>(i)] = true;
    f->victims.push_back(i);
  }

  f->drivers.reserve(static_cast<size_t>(shape.clients));
  for (int i = 0; i < shape.clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    const int base = shape.group_clients > 0
                         ? (i / shape.group_clients) * shape.slice
                         : i;
    for (int j = 0; j < shape.slice; ++j) {
      log_cfg.servers.push_back(
          static_cast<net::NodeId>((base + j) % shape.servers + 1));
    }
    log_cfg.generator_reps.assign(log_cfg.servers.begin(),
                                  log_cfg.servers.begin() + 3);
    log_cfg.seed = Mix(seed, 1000 + static_cast<uint64_t>(i));
    if (shape.flow) {
      log_cfg.retry.enabled = true;
      log_cfg.retry.initial_backoff = 10 * sim::kMillisecond;
      log_cfg.retry.max_backoff = 100 * sim::kMillisecond;
      log_cfg.wire.adaptive_window.enabled = true;
    }
    harness::Et1DriverConfig d;
    d.tps = is_victim[static_cast<size_t>(i)] ? shape.victim_tps : shape.tps;
    d.seed = Mix(seed, 1000000 + static_cast<uint64_t>(i));
    d.max_log_backlog = shape.max_log_backlog;
    d.bank.accounts = shape.bank_accounts;
    d.bank.tellers = 10;
    d.bank.branches = 2;
    f->drivers.push_back(std::make_unique<harness::Et1Driver>(
        f->cluster.get(), log_cfg, d));
  }
  // Stagger Init so the generator representatives see a ramp.
  for (int i = 0; i < shape.clients; ++i) {
    harness::Et1Driver* d = f->drivers[static_cast<size_t>(i)].get();
    f->cluster->client_scheduler(i).At(
        static_cast<sim::Time>(i) * shape.init_spread / shape.clients,
        [d]() { d->Start(); });
  }
}

/// Runs 100 ms slices until every driver has finished Init.
bool WaitForInit(Fleet* f, sim::Duration timeout) {
  const sim::Time deadline = f->cluster->Now() + timeout;
  size_t next = 0;  // drivers[0, next) have started
  while (f->cluster->Now() < deadline) {
    while (next < f->drivers.size() && f->drivers[next]->started()) ++next;
    if (next == f->drivers.size()) return true;
    f->cluster->RunFor(100 * sim::kMillisecond);
  }
  return false;
}

// --- The recovery script ---------------------------------------------

/// TxnLogger over the replicated log that counts the records read, i.e.
/// the records TransactionEngine::Recover replays.
class CountingLogger : public tp::TxnLogger {
 public:
  CountingLogger(client::LogClient* log, uint64_t* total_reads)
      : inner_(log), total_reads_(total_reads) {}

  Result<Lsn> Append(Bytes payload) override {
    return inner_.Append(std::move(payload));
  }
  void Force(Lsn upto, std::function<void(Status)> done) override {
    inner_.Force(upto, std::move(done));
  }
  void Read(Lsn lsn, std::function<void(Result<Bytes>)> done) override {
    ++reads_;
    ++*total_reads_;
    inner_.Read(lsn, std::move(done));
  }
  Lsn End() const override { return inner_.End(); }

  uint64_t reads() const { return reads_; }

 private:
  tp::ReplicatedTxnLogger inner_;
  uint64_t* total_reads_;
  uint64_t reads_ = 0;
};

/// Crashes victims on a seeded schedule, restarts them, re-Inits each
/// (retrying like Et1Driver does), replays its log through a fresh
/// TransactionEngine on the same page disk, and checks the recovered bank
/// against the totals committed before the crash.
class RecoveryScript {
 public:
  RecoveryScript(Fleet* fleet, SpanLog* spans) : f_(fleet), spans_(spans) {}

  RecoveryScript(const RecoveryScript&) = delete;
  RecoveryScript& operator=(const RecoveryScript&) = delete;

  void Schedule() {
    const sim::Time now = f_->cluster->Now();
    victims_.resize(f_->victims.size());
    for (int v = 0; v < static_cast<int>(victims_.size()); ++v) {
      Victim& vic = victims_[static_cast<size_t>(v)];
      vic.index = f_->victims[static_cast<size_t>(v)];
      vic.crash_at = now + v * f_->shape.crash_span /
                               static_cast<sim::Duration>(victims_.size());
      f_->cluster->client_scheduler(vic.index).At(
          vic.crash_at, [this, v]() { Quiesce(v); });
    }
  }

  bool Done() const { return finished_ == victims_.size(); }

  /// Where a victim is; kFinished covers both recovered and gave up.
  enum class Stage { kUp, kQuiescing, kDown, kInit, kReplay, kFinished };
  struct Victim {
    int index = 0;
    Stage stage = Stage::kUp;
    sim::Time crash_at = 0;
    sim::Time restarted_at = 0;
    sim::Time recovered_at = 0;
    int init_attempts = 0;
    int init_failures = 0;
    bool recovered = false;
    int recover_errors = 0;
    bool invariant_ok = false;
    int64_t expected_total = 0;
    uint64_t records_replayed = 0;
    int span = -1;
    std::unique_ptr<CountingLogger> logger;
    std::unique_ptr<tp::TransactionEngine> engine;
  };
  const std::vector<Victim>& victims() const { return victims_; }
  uint64_t records_replayed() const { return records_replayed_; }

 private:
  static constexpr int kMaxInitAttempts = 200;
  static constexpr int kMaxRecoverAttempts = 20;

  harness::Et1Driver& Driver(const Victim& v) {
    return *f_->drivers[static_cast<size_t>(v.index)];
  }
  sim::Scheduler& Sched(const Victim& v) {
    return f_->cluster->client_scheduler(v.index);
  }
  double Now() const { return SimSeconds(f_->cluster->Now()); }

  /// Stops the victim's arrivals and waits until every transaction has
  /// run its commit callback (a committing transaction leaves the
  /// engine's active set before its force is acknowledged, so the log
  /// backlog must drain too): its committed totals are then exact.
  void Quiesce(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    harness::Et1Driver& d = Driver(vic);
    d.Stop();
    vic.stage = Stage::kQuiescing;
    if (d.engine().active_transactions() > 0 ||
        d.log().pending_records() > 0) {
      Sched(vic).After(10 * sim::kMillisecond, [this, v]() { Quiesce(v); });
      return;
    }
    Crash(v);
  }

  void Crash(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    harness::Et1Driver& d = Driver(vic);
    const int span = spans_->Begin("crash", Now());
    tp::BankDb& bank = d.bank();
    vic.expected_total = bank.TotalAccounts();
    if (bank.TotalTellers() != vic.expected_total ||
        bank.TotalBranches() != vic.expected_total) {
      vic.expected_total = INT64_MIN;  // already inconsistent
    }
    // A transaction torn by the crash: logged but never committed, so
    // recovery must undo it wherever its update reached the log.
    Result<tp::TxnId> torn = d.engine().Begin();
    if (torn.ok()) {
      (void)d.engine().Update(*torn, 0, 0, Bytes(8, 0x5a));
    }
    f_->Retire(vic.index);
    d.engine().Crash();
    f_->cluster->CrashClient(vic.index);
    spans_->End(span, Now());
    vic.stage = Stage::kDown;
    Sched(vic).After(f_->shape.downtime, [this, v]() { Restart(v); });
  }

  void Restart(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    const int span = spans_->Begin("restart", Now());
    f_->cluster->RestartClient(vic.index);
    vic.restarted_at = f_->cluster->Now();
    vic.span = spans_->BeginAsync("recover", Now());
    spans_->End(span, Now());
    TryInit(v);
  }

  void TryInit(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    ++vic.init_attempts;
    vic.stage = Stage::kInit;
    f_->cluster->client(vic.index).Init([this, v](Status st) {
      Victim& vic = victims_[static_cast<size_t>(v)];
      if (st.ok()) {
        Replay(v);
        return;
      }
      ++vic.init_failures;
      if (vic.init_attempts >= kMaxInitAttempts) {
        Finish(v);
        return;
      }
      Sched(vic).After(500 * sim::kMillisecond, [this, v]() { TryInit(v); });
    });
  }

  void Replay(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    vic.engine.reset();  // a failed attempt's engine reads through logger
    vic.logger = std::make_unique<CountingLogger>(
        &f_->cluster->client(vic.index), &records_replayed_);
    vic.engine = std::make_unique<tp::TransactionEngine>(
        &Sched(vic), vic.logger.get(), &Driver(vic).engine().disk(),
        tp::EngineConfig{});
    vic.stage = Stage::kReplay;
    vic.engine->Recover([this, v](Status st) {
      Victim& vic = victims_[static_cast<size_t>(v)];
      vic.records_replayed += vic.logger->reads();
      if (!st.ok()) {
        // A read found no holder that answered: count it, then recover
        // again from scratch on a fresh engine.
        ++vic.recover_errors;
        if (vic.recover_errors < kMaxRecoverAttempts) {
          Sched(vic).After(500 * sim::kMillisecond,
                           [this, v]() { Replay(v); });
          return;
        }
      } else {
        vic.recovered = true;
        tp::BankDb bank(vic.engine.get(), Driver(vic).bank().config());
        vic.invariant_ok = bank.TotalAccounts() == vic.expected_total &&
                           bank.TotalTellers() == vic.expected_total &&
                           bank.TotalBranches() == vic.expected_total;
      }
      Finish(v);
    });
  }

  void Finish(int v) {
    Victim& vic = victims_[static_cast<size_t>(v)];
    vic.recovered_at = f_->cluster->Now();
    vic.stage = Stage::kFinished;
    spans_->EndAsync(vic.span, Now());
    ++finished_;
  }

  Fleet* f_;
  SpanLog* spans_;
  std::vector<Victim> victims_;
  size_t finished_ = 0;
  uint64_t records_replayed_ = 0;
};

// --- Output ----------------------------------------------------------

class Json {
 public:
  void Num(const std::string& key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    Quote(v);
  }
  void StrArray(const std::string& key, const std::vector<std::string>& v) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ << ',';
      Quote(v[i]);
    }
    out_ << ']';
  }
  void Bool(const std::string& key, bool v) {
    Key(key);
    out_ << (v ? "true" : "false");
  }
  void Open(const std::string& key) {
    Key(key);
    out_ << '{';
    first_ = true;
  }
  void OpenArray(const std::string& key) {
    Key(key);
    out_ << '[';
    first_ = true;
  }
  void Close() {
    out_ << '}';
    first_ = false;
  }
  void CloseArray() {
    out_ << ']';
    first_ = false;
  }
  /// An array element that is an object.
  void Element() {
    if (!first_) out_ << ',';
    out_ << '{';
    first_ = true;
  }
  std::string Take() { return "{" + out_.str() + "}"; }

 private:
  void Key(const std::string& key) {
    if (!first_) out_ << ',';
    first_ = false;
    Quote(key);
    out_ << ':';
  }
  void Quote(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ << c;
    }
    out_ << '"';
  }
  std::ostringstream out_;
  bool first_ = true;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(std::vector<double>::const_iterator begin,
            std::vector<double>::const_iterator end) {
  double sum = 0;
  for (auto it = begin; it != end; ++it) sum += *it;
  return Ratio(sum, static_cast<double>(end - begin));
}

/// A fixed CPU load that uses no dlog code, timed to tell how fast the
/// host runs right now: heap and hash-map churn with small allocations,
/// then branchy library code (regex matching, an ordered map of strings,
/// a string sort, std::function calls). Through the minutes-long slow
/// phases of the shared VM this was built on, its time tracked the
/// fleet's within a few percent, where a cache-sized pointer chase and an
/// ALU loop did not.
double ReferenceCpuSeconds() {
  const double start = ProcessCpuSeconds();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t acc = 0;
  {
    std::priority_queue<std::pair<uint64_t, uint64_t>,
                        std::vector<std::pair<uint64_t, uint64_t>>,
                        std::greater<>>
        heap;
    std::unordered_map<uint64_t, std::vector<uint8_t>> table;
    for (uint64_t i = 0; i < 300000; ++i) {
      heap.push({next() % 1000000, i});
      const uint64_t k = next() % 200000;
      auto it = table.find(k);
      if (it == table.end()) {
        table.emplace(k, std::vector<uint8_t>(64 + (k & 127),
                                              static_cast<uint8_t>(k)));
      } else {
        acc += it->second[0];
        if (i & 1) table.erase(it);
      }
      if (heap.size() > 50000) {
        acc += heap.top().first;
        heap.pop();
      }
    }
  }
  const std::regex pattern("([a-z]+)-([0-9]+)\\.(log|dat)");
  for (int round = 0; round < 8; ++round) {
    std::map<std::string, int> names;
    std::vector<std::string> all;
    std::vector<std::function<void()>> calls;
    for (int i = 0; i < 20000; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%c%c%c-%llu.%s",
                    static_cast<char>('a' + next() % 26),
                    static_cast<char>('a' + next() % 26),
                    static_cast<char>('a' + next() % 26),
                    static_cast<unsigned long long>(next() % 100000),
                    (next() & 1) ? "log" : "txt");
      std::string name(buf);
      std::smatch m;
      if (std::regex_match(name, m, pattern)) ++names[m[1].str()];
      all.push_back(std::move(name));
      calls.push_back([&acc, i]() { acc += static_cast<uint64_t>(i); });
    }
    std::sort(all.begin(), all.end());
    for (auto& call : calls) call();
    acc += names.size() + all.front().size();
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return ProcessCpuSeconds() - start;
}

int Run(const std::string& workload, uint64_t seed, bool trace,
        const std::string& trace_out) {
  Shape shape;
  if (!ShapeOf(workload, &shape)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  SpanLog spans;
  std::unique_ptr<Sampler> sampler;
  if (trace) {
    sampler = std::make_unique<Sampler>(&spans);
    sampler->Start(1000);
  }
  std::vector<std::string> errors;

  Fleet fleet;
  int span = spans.Begin("build", 0.0);
  BuildFleet(shape, seed, &fleet);
  harness::Cluster& cluster = *fleet.cluster;
  spans.End(span, SimSeconds(cluster.Now()));

  span = spans.Begin("init_wait", SimSeconds(cluster.Now()));
  if (!WaitForInit(&fleet, 120 * sim::kSecond)) {
    std::fprintf(stderr, "%s: fleet failed to initialize\n",
                 workload.c_str());
    return 1;
  }
  spans.End(span, SimSeconds(cluster.Now()));

  span = spans.Begin("warmup", SimSeconds(cluster.Now()));
  cluster.RunFor(shape.warmup);
  spans.End(span, SimSeconds(cluster.Now()));

  // --- the measured window ---
  std::unique_ptr<RecoveryScript> recovery;
  if (shape.victims > 0) {
    recovery = std::make_unique<RecoveryScript>(&fleet, &spans);
  }
  for (auto& d : fleet.drivers) d->txn_latency_ms().Clear();
  const Counts c0 = fleet.Snapshot();
  const std::vector<uint64_t> force0 = fleet.ForceBuckets();
  const double rss0 = CurrentRssBytes();
  const double setup_cpu = ProcessCpuSeconds();
  const int window_span = spans.Begin("window", SimSeconds(cluster.Now()));
  if (recovery) recovery->Schedule();
  cluster.RunFor(shape.window);
  const double window_cpu = ProcessCpuSeconds() - setup_cpu;
  spans.End(window_span, SimSeconds(cluster.Now()));
  const double rss1 = CurrentRssBytes();
  const Counts c1 = fleet.Snapshot();
  const std::vector<uint64_t> force1 = fleet.ForceBuckets();
  const uint64_t replayed_in_window =
      recovery ? recovery->records_replayed() : 0;

  // Latency of the transactions committed in the window, merged over the
  // fleet (Percentile at every rank reproduces each driver's samples).
  std::vector<double> lat;
  for (auto& d : fleet.drivers) {
    auto& h = d->txn_latency_ms();
    const size_t n = h.count();
    for (size_t k = 0; k < n; ++k) {
      lat.push_back(h.Percentile(
          n == 1 ? 0.0 : static_cast<double>(k) / static_cast<double>(n - 1)));
    }
  }
  std::sort(lat.begin(), lat.end());

  if (recovery) {
    const int drain = spans.Begin("drain", SimSeconds(cluster.Now()));
    const sim::Time deadline = cluster.Now() + 120 * sim::kSecond;
    while (!recovery->Done() && cluster.Now() < deadline) {
      cluster.RunFor(100 * sim::kMillisecond);
    }
    spans.End(drain, SimSeconds(cluster.Now()));
  }
  if (sampler) sampler->Stop();

  // --- correctness ---
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < fleet.drivers.size(); ++i) {
    harness::Et1Driver& d = *fleet.drivers[i];
    hash = Fnv1a(hash, d.committed());
    hash = Fnv1a(hash, d.failed());
    hash = Fnv1a(hash, d.txns_shed());
    if (fleet.replaced[i]) continue;  // checked against its recovery below
    tp::BankDb& bank = d.bank();
    const int64_t a = bank.TotalAccounts();
    if (bank.TotalTellers() != a || bank.TotalBranches() != a) {
      errors.push_back("bank totals disagree on client " +
                       std::to_string(i + 1));
    }
  }
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    hash = Fnv1a(hash, cluster.server(s).records_written().value());
  }

  const double window_s = SimSeconds(shape.window);
  const double committed = static_cast<double>(c1.committed - c0.committed);
  const double failed = static_cast<double>(c1.failed - c0.failed);
  const double refused = static_cast<double>(c1.refused - c0.refused);
  if (committed <= 0) errors.push_back("no transaction committed");

  std::vector<double> recover_s;
  uint64_t init_attempts = 0, init_failures = 0, recover_errors = 0;
  uint64_t invariant_misses = 0, recovered = 0;
  if (recovery) {
    for (const auto& v : recovery->victims()) {
      hash = Fnv1a(hash, static_cast<uint64_t>(v.recovered_at));
      hash = Fnv1a(hash, v.records_replayed);
      hash = Fnv1a(hash, static_cast<uint64_t>(v.init_attempts));
      init_attempts += static_cast<uint64_t>(v.init_attempts);
      init_failures += static_cast<uint64_t>(v.init_failures);
      recover_errors += static_cast<uint64_t>(v.recover_errors);
      if (v.recovered && !v.invariant_ok) ++invariant_misses;
      if (v.recovered) {
        ++recovered;
        recover_s.push_back(SimSeconds(v.recovered_at - v.restarted_at));
      }
    }
    std::sort(recover_s.begin(), recover_s.end());
    if (recovered != recovery->victims().size()) {
      // Where the unrecovered victims are stuck, by RecoveryScript stage.
      std::map<int, int> stuck;
      for (const auto& v : recovery->victims()) {
        if (!v.recovered) ++stuck[static_cast<int>(v.stage)];
      }
      std::string where;
      for (const auto& [stage, n] : stuck) {
        static const char* kNames[] = {"up",   "quiescing", "down",
                                       "init", "replay",    "gave up"};
        where += std::string(where.empty() ? "" : ", ") +
                 std::to_string(n) + " " + kNames[stage];
      }
      errors.push_back(std::to_string(recovery->victims().size() - recovered) +
                       " crashed clients never recovered (" + where + ")");
    }
    if (invariant_misses > 0) {
      errors.push_back(std::to_string(invariant_misses) +
                       " recovered banks differ from their committed totals");
    }
  }

  // Force latency of the window, from bucket-count deltas.
  std::vector<uint32_t> force_delta(force1.size());
  uint64_t force_n = 0;
  for (size_t i = 0; i < force1.size(); ++i) {
    force_delta[i] = static_cast<uint32_t>(force1[i] - force0[i]);
    force_n += force_delta[i];
  }
  const double force_p99_ms =
      force_n == 0 ? 0.0
                   : sim::StreamingHistogram::PercentileFromCounts(
                         force_delta.data(), force_delta.size(), force_n,
                         0.99) / 1e3;

  const auto d = [&](uint64_t Counts::*field) {
    return static_cast<double>(c1.*field - c0.*field);
  };
  const double servers = shape.servers;
  const double window_ns = static_cast<double>(shape.window);

  Json out;
  out.Str("workload", workload);
  out.Num("seed", static_cast<double>(seed));
  out.Bool("traced", trace);
  out.Bool("correct", errors.empty());
  out.StrArray("errors", errors);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
  out.Str("hash", hex);
  out.Num("setup_cpu_s", setup_cpu);
  out.Num("peak_rss_mb", PeakRssMb());
  out.Num("rss_growth_bytes", rss1 - rss0);
  out.Num("window_cpu_s", window_cpu);
  out.Num("committed", committed);
  out.Num("failed", failed);
  out.Num("refused", refused);
  out.Num("records_replayed_in_window",
          static_cast<double>(replayed_in_window));
  out.Num("recoveries", recovery ? static_cast<double>(
                                       recovery->victims().size())
                                 : 0.0);
  out.Num("recoveries_failed",
          recovery ? static_cast<double>(recovery->victims().size() -
                                         recovered + invariant_misses)
                   : 0.0);

  // Simulated figures: exact for a (workload, seed).
  out.Open("sim");
  out.Num("committed_tps", committed / window_s);
  out.Num("txn_mean_ms", Mean(lat.begin(), lat.end()));
  // The mean of the slowest 1%: a tail figure that, unlike a quantile,
  // does not stick to one of the few discrete latencies a lightly loaded
  // fleet produces.
  out.Num("txn_tail_ms", Mean(lat.end() - static_cast<std::ptrdiff_t>(
                                                (lat.size() + 99) / 100),
                              lat.end()));
  out.Num("txn_p50_ms", Quantile(lat, 0.50));
  out.Num("txn_p99_ms", Quantile(lat, 0.99));
  out.Num("txn_samples", static_cast<double>(lat.size()));
  out.Num("goodput_frac", Ratio(committed, committed + failed + refused));
  out.Num("sim.events_per_txn", d(&Counts::events) / committed);
  out.Num("net.bytes_per_txn", d(&Counts::bits_sent) / 8.0 / committed);
  out.Num("net.lan_util",
          d(&Counts::bits_sent) /
              (cluster.network(0).config().bandwidth_bits_per_sec * window_s *
               cluster.num_networks()));
  out.Num("wire.bytes_copied_per_record",
          Ratio(d(&Counts::bytes_copied), d(&Counts::records_written)));
  out.Num("client.records_per_batch",
          Ratio(d(&Counts::records_sent), d(&Counts::batches_sent)));
  out.Num("client.resends_per_txn", d(&Counts::resends) / committed);
  out.Num("client.force_p99_ms", force_p99_ms);
  out.Num("client.init_attempts_per_recovery",
          Ratio(static_cast<double>(init_attempts),
                recovery ? static_cast<double>(recovery->victims().size())
                         : 0.0));
  out.Num("server.copies_per_record",
          Ratio(d(&Counts::records_written), d(&Counts::log_records)));
  out.Num("server.records_per_track",
          Ratio(d(&Counts::records_written), d(&Counts::tracks_written)));
  out.Num("server.bytes_logged_per_txn", d(&Counts::bytes_logged) / committed);
  out.Num("server.cpu_util",
          d(&Counts::server_busy_ns) / (servers * window_ns));
  out.Num("server.read_rpcs_per_record",
          Ratio(d(&Counts::read_rpcs),
                static_cast<double>(replayed_in_window)));
  out.Num("storage.disk_util",
          d(&Counts::disk_busy_ns) / (servers * window_ns));
  out.Num("storage.tracks_per_txn", d(&Counts::disk_writes) / committed);
  out.Num("flow.shed_per_txn", d(&Counts::writes_shed) / committed);
  out.Num("flow.overload_replies_per_txn",
          d(&Counts::overload_replies) / committed);
  out.Num("flow.backoffs_per_txn", d(&Counts::backoffs) / committed);
  out.Num("flow.useful_write_ratio",
          Ratio(d(&Counts::records_written),
                d(&Counts::records_written) + d(&Counts::writes_shed)));
  out.Num("recovery.recover_p50_s", Quantile(recover_s, 0.50));
  out.Num("recovery.recover_p95_s", Quantile(recover_s, 0.95));
  out.Num("recovery.recover_fail_frac",
          Ratio(static_cast<double>(init_failures + recover_errors +
                                    invariant_misses),
                static_cast<double>(init_attempts)));
  out.Close();

  if (sampler) {
    const auto& names = ModuleNames();
    const ModuleProfile window = sampler->Profile(window_span, 40);
    const ModuleProfile all = sampler->Profile(-1, 0);
    out.Open("profile");
    out.Num("samples", static_cast<double>(window.samples));
    out.Num("samples_all", static_cast<double>(all.samples));
    out.Num("dropped", static_cast<double>(sampler->dropped()));
    out.Open("self");
    for (size_t m = 0; m < names.size(); ++m) {
      out.Num(names[m], static_cast<double>(window.self[m]));
    }
    out.Close();
    out.Open("inclusive");
    for (size_t m = 0; m < names.size(); ++m) {
      out.Num(names[m], static_cast<double>(window.inclusive[m]));
    }
    out.Close();
    out.Close();
    if (!trace_out.empty()) {
      // The full attribution: per phase, plus the hottest symbols.
      Json t;
      t.Str("workload", workload);
      t.Num("seed", static_cast<double>(seed));
      t.OpenArray("phases");
      for (size_t i = 0; i < spans.spans().size(); ++i) {
        const Span& s = spans.spans()[i];
        t.Element();
        t.Num("id", static_cast<double>(i));
        t.Str("name", s.name);
        t.Num("parent", s.parent);
        t.Bool("async", s.async);
        t.Num("cpu_s", s.cpu_end - s.cpu_start);
        t.Num("wall_s", s.wall_end - s.wall_start);
        t.Num("sim_start_s", s.sim_start);
        t.Num("sim_end_s", s.sim_end);
        t.Close();
      }
      t.CloseArray();
      t.OpenArray("phase_modules");
      for (size_t i = 0; i < spans.spans().size(); ++i) {
        const Span& s = spans.spans()[i];
        if (s.async || s.parent >= 0) continue;  // top-level phases only
        const ModuleProfile p = sampler->Profile(static_cast<int>(i), 0);
        t.Element();
        t.Str("phase", s.name);
        t.Num("samples", static_cast<double>(p.samples));
        t.Open("self");
        for (size_t m = 0; m < names.size(); ++m) {
          t.Num(names[m], static_cast<double>(p.self[m]));
        }
        t.Close();
        t.Close();
      }
      t.CloseArray();
      t.OpenArray("window_top_symbols");
      for (const auto& [name, count] : window.top_symbols) {
        t.Element();
        t.Str("symbol", name);
        t.Num("self_samples", static_cast<double>(count));
        t.Close();
      }
      t.CloseArray();
      std::ofstream f(trace_out);
      f << t.Take() << "\n";
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }
  }

  std::printf("%s\n", out.Take().c_str());
  // Skip the fleet's teardown: it is not measured, and destroying a
  // LogClient whose ReadLog RPC is still in flight fails that call into
  // the half-destroyed client.
  std::fflush(stdout);
  std::_Exit(errors.empty() ? 0 : 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--reference") {
    std::printf("{\"reference_cpu_s\":%.17g}\n",
                perfbench::ReferenceCpuSeconds());
    return 0;
  }
  std::string workload;
  std::string trace_out;
  uint64_t seed = 1;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: perfbench_fleet --workload steady|overload|recovery "
                 "--seed N [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(workload, seed, trace, trace_out);
}
