#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "harness/trial_runner.h"
#include "obs/bench_report.h"
#include "sim/simulator.h"

namespace dlog::harness {
namespace {

// One self-contained deterministic trial: a small simulation whose result
// depends only on the seed. Mirrors how E10 decomposes its probe budget.
uint64_t RunTrial(size_t trial) {
  sim::Simulator sim;
  Rng rng(1000 + 7 * static_cast<uint64_t>(trial + 1));
  uint64_t sum = 0;
  for (int i = 0; i < 200; ++i) {
    sim.After(1 + rng.NextBelow(50), [&sum, &rng]() {
      sum += rng.NextBelow(1000);
    });
  }
  sim.Run();
  return sum;
}

TEST(TrialRunnerTest, SerialAndParallelResultsAreIdentical) {
  constexpr size_t kTrials = 16;
  TrialRunner serial(1);
  std::vector<uint64_t> base = serial.Run(kTrials, RunTrial);
  ASSERT_EQ(base.size(), kTrials);
  for (size_t threads : {2u, 4u, 8u}) {
    TrialRunner runner(threads);
    EXPECT_EQ(runner.Run(kTrials, RunTrial), base)
        << "results diverged at " << threads << " threads";
  }
}

TEST(TrialRunnerTest, ResultsIndexedByTrialNotCompletionOrder) {
  TrialRunner runner(4);
  std::vector<size_t> out = runner.Run(32, [](size_t trial) {
    // Uneven per-trial work so completion order differs from trial order.
    volatile size_t spin = 0;
    for (size_t i = 0; i < (trial % 5) * 10000; ++i) spin = spin + i;
    return trial;
  });
  ASSERT_EQ(out.size(), 32u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(TrialRunnerTest, MoreThreadsThanTrialsIsFine) {
  TrialRunner runner(8);
  std::vector<size_t> out = runner.Run(3, [](size_t t) { return t * t; });
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 4}));
}

TEST(TrialRunnerTest, ZeroTrialsReturnsEmpty) {
  TrialRunner runner(4);
  EXPECT_TRUE(runner.Run(0, [](size_t t) { return t; }).empty());
}

TEST(TrialRunnerTest, AggregatedReportIsByteIdenticalAcrossThreadCounts) {
  // The E10 contract: a BenchReport built by merging per-trial results in
  // trial order serialises to the same bytes no matter the thread count.
  auto build_report = [](size_t threads) {
    TrialRunner runner(threads);
    std::vector<uint64_t> sums = runner.Run(8, RunTrial);
    uint64_t total = 0;
    for (uint64_t s : sums) total += s;
    obs::BenchReport report("trial_runner_identity");
    report.BeginRow();
    report.SetConfig("trials", 8.0);
    report.SetMetric("total", static_cast<double>(total));
    report.SetMetric("first", static_cast<double>(sums.front()));
    report.SetMetric("last", static_cast<double>(sums.back()));
    return report.ToJson();
  };
  const std::string serial = build_report(1);
  EXPECT_EQ(build_report(2), serial);
  EXPECT_EQ(build_report(8), serial);
}

TEST(TrialRunnerTest, EachTrialReadsOnlyItsOwnCopyTally) {
  // Two trials copy at the same time, on two workers: each reads exactly
  // its own copies, however the two threads interleave.
  constexpr int kCopies = 100000;
  std::latch both_started(2);
  const std::vector<uint64_t> tallies =
      TrialRunner(2).Run(2, [&both_started](size_t trial) {
        const uint64_t base = BytesCopied();
        both_started.arrive_and_wait();
        const SharedBytes payload(Bytes(trial + 1, 0xab));
        for (int i = 0; i < kCopies; ++i) {
          const Bytes copy = payload.ToBytes();
          EXPECT_EQ(copy.size(), trial + 1);
        }
        return BytesCopied() - base;
      });
  EXPECT_EQ(tallies, (std::vector<uint64_t>{kCopies, 2 * kCopies}));
}

}  // namespace
}  // namespace dlog::harness
