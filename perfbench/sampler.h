#ifndef DLOG_PERFBENCH_SAMPLER_H_
#define DLOG_PERFBENCH_SAMPLER_H_

// Host-CPU attribution for the fleet benchmark, kept entirely outside
// src/: phase spans timed around the benchmark's own calls into the
// library, and a SIGPROF stack sampler that charges each sample to the
// innermost frame belonging to a dlog module (the dlog::<module>
// namespaces map 1:1 to src/<module>).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU time (all threads) and monotonic wall time, in seconds.
double ProcessCpuSeconds();
double WallSeconds();

/// The src/ modules host time is charged to; samples with no dlog frame
/// go to "other", the last entry.
const std::vector<std::string>& ModuleNames();

/// One timed phase of a run. Synchronous spans nest (Begin/End pairs);
/// async spans (a Recover from call to completion) only record their
/// interval, since other simulated work interleaves with them.
struct Span {
  std::string name;
  int parent = -1;
  bool async = false;
  double cpu_start = 0, cpu_end = 0;
  double wall_start = 0, wall_end = 0;
  double sim_start = 0, sim_end = 0;
};

/// In-memory span log; written out when the run ends.
class SpanLog {
 public:
  /// Opens a synchronous span under the innermost open one and makes it
  /// the phase new samples are tagged with.
  int Begin(const std::string& name, double sim_now);
  void End(int id, double sim_now);
  /// Records an async span under the innermost open synchronous span.
  int BeginAsync(const std::string& name, double sim_now);
  void EndAsync(int id, double sim_now);

  const std::vector<Span>& spans() const { return spans_; }
  /// True if `id` is `ancestor` or nested under it.
  bool Within(int id, int ancestor) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-module sample counts over a set of samples.
struct ModuleProfile {
  std::vector<uint64_t> self;       // indexed like ModuleNames()
  std::vector<uint64_t> inclusive;  // module anywhere on the stack
  uint64_t samples = 0;
  /// Innermost dlog symbol -> self samples (the hottest ones).
  std::vector<std::pair<std::string, uint64_t>> top_symbols;
};

/// SIGPROF sampler over the process's CPU time. One per process.
class Sampler {
 public:
  explicit Sampler(const SpanLog* spans);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Start(int interval_us);
  void Stop();

  uint64_t samples() const;
  uint64_t dropped() const;

  /// Attributes the samples tagged with `phase` or any span nested in it
  /// (every sample when phase < 0).
  ModuleProfile Profile(int phase, size_t top_n) const;

 private:
  const SpanLog* spans_;
  bool running_ = false;
};

}  // namespace perfbench

#endif  // DLOG_PERFBENCH_SAMPLER_H_
