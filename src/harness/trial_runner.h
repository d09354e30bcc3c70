#ifndef DLOG_HARNESS_TRIAL_RUNNER_H_
#define DLOG_HARNESS_TRIAL_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlog::harness {

/// Fans independent simulation trials across a thread pool.
///
/// Each trial is a self-contained deterministic simulation (its own
/// Simulator, Cluster, RNG seeds, and sim::Counter instances, which are
/// plain integers); the only mutable state trials share is the results
/// vector, written at disjoint indices. Results come back in trial-index
/// order regardless of completion order or thread count, so any report
/// aggregated from them is byte-identical to a serial run — parallelism
/// changes wall-clock time and nothing else.
///
/// A trial runs start to finish on the worker that claimed it. So the
/// thread_local state it touches is its own while it runs: the
/// event-callback slab pool (sim/callback.cc) keeps its allocations on
/// one list, and the dlog::BytesCopied() copy tally moves only with its
/// own copies.
class TrialRunner {
 public:
  /// `threads` <= 1 means run trials inline on the calling thread.
  explicit TrialRunner(size_t threads) : threads_(threads) {}

  size_t threads() const { return threads_; }

  /// Runs `fn(trial)` for every trial in [0, n) and returns the results
  /// indexed by trial. `fn` must not touch shared mutable state other
  /// than atomics; the result type must be default-constructible and
  /// movable.
  template <typename Fn>
  auto Run(size_t n, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, size_t>> {
    using R = std::invoke_result_t<Fn&, size_t>;
    std::vector<R> results(n);
    if (threads_ <= 1 || n <= 1) {
      for (size_t i = 0; i < n; ++i) results[i] = fn(i);
      return results;
    }
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        results[i] = fn(i);
      }
    };
    std::vector<std::thread> pool;
    const size_t spawn = threads_ < n ? threads_ : n;
    pool.reserve(spawn);
    for (size_t t = 0; t < spawn; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    return results;
  }

 private:
  size_t threads_;
};

}  // namespace dlog::harness

#endif  // DLOG_HARNESS_TRIAL_RUNNER_H_
