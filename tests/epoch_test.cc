#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "epoch/id_generator.h"

namespace dlog::epoch {
namespace {

struct Fixture {
  explicit Fixture(int n) {
    for (int i = 0; i < n; ++i) {
      reps.push_back(std::make_unique<GeneratorStateRep>());
      raw.push_back(reps.back().get());
    }
    gen = std::make_unique<ReplicatedIdGenerator>(raw);
  }
  std::vector<std::unique_ptr<GeneratorStateRep>> reps;
  std::vector<GeneratorStateRep*> raw;
  std::unique_ptr<ReplicatedIdGenerator> gen;
};

TEST(IdGeneratorTest, QuorumSizes) {
  // ceil((N+1)/2) reads, ceil(N/2) writes.
  EXPECT_EQ(ReadQuorum(3), 2u);
  EXPECT_EQ(WriteQuorum(3), 2u);
  EXPECT_EQ(ReadQuorum(4), 3u);   // ceil(5/2)
  EXPECT_EQ(WriteQuorum(4), 2u);  // ceil(4/2)
  EXPECT_EQ(ReadQuorum(5), 3u);
  EXPECT_EQ(WriteQuorum(5), 3u);
}

TEST(IdGeneratorTest, IdsStrictlyIncrease) {
  Fixture f(3);
  uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    Result<uint64_t> id = f.gen->NewId();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(*id, prev);
    prev = *id;
  }
}

TEST(IdGeneratorTest, SingleRepresentativeWorks) {
  Fixture f(1);
  EXPECT_EQ(*f.gen->NewId(), 1u);
  EXPECT_EQ(*f.gen->NewId(), 2u);
}

TEST(IdGeneratorTest, ToleratesMinorityFailures) {
  Fixture f(5);
  ASSERT_EQ(*f.gen->NewId(), 1u);
  f.reps[0]->SetAvailable(false);
  f.reps[1]->SetAvailable(false);
  Result<uint64_t> id = f.gen->NewId();
  ASSERT_TRUE(id.ok());
  EXPECT_GT(*id, 1u);
}

TEST(IdGeneratorTest, MajorityFailureIsUnavailable) {
  Fixture f(5);
  for (int i = 0; i < 3; ++i) f.reps[i]->SetAvailable(false);
  EXPECT_TRUE(f.gen->NewId().status().IsUnavailable());
}

// A crash that interrupts NewId may skip values but must never allow a
// later NewId to repeat or go below an issued value.
TEST(IdGeneratorTest, CrashedNewIdSkipsButNeverRepeats) {
  Fixture f(5);
  uint64_t issued = *f.gen->NewId();
  for (int crash_writes = 0; crash_writes <= 3; ++crash_writes) {
    EXPECT_TRUE(
        f.gen->NewIdCrashAfterWrites(crash_writes).IsAborted());
    Result<uint64_t> next = f.gen->NewId();
    ASSERT_TRUE(next.ok());
    EXPECT_GT(*next, issued);
    issued = *next;
  }
}

// Even when a crashed NewId wrote to representatives that then fail, the
// read-write quorum intersection keeps identifiers increasing.
TEST(IdGeneratorTest, MonotoneAcrossFailuresAndCrashes) {
  Fixture f(5);
  uint64_t issued = 0;
  // Interleave: id, crash mid-id, representative churn, id ...
  for (int round = 0; round < 20; ++round) {
    Result<uint64_t> id = f.gen->NewId();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(*id, issued);
    issued = *id;
    // A full write quorum (3 of 5) then crash: value consumed.
    ASSERT_TRUE(f.gen->NewIdCrashAfterWrites(3).IsAborted());
    // One representative flaps.
    f.reps[round % 5]->SetAvailable(false);
    id = f.gen->NewId();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(*id, issued);
    issued = *id;
    f.reps[round % 5]->SetAvailable(true);
  }
}

TEST(IdGeneratorTest, ValuePropagatesToWriteQuorum) {
  Fixture f(3);
  ASSERT_TRUE(f.gen->NewId().ok());
  int holding = 0;
  for (auto& rep : f.reps) {
    if (rep->PeekValue() >= 1) ++holding;
  }
  EXPECT_GE(holding, 2);  // ceil(3/2) = 2
}

}  // namespace
}  // namespace dlog::epoch
