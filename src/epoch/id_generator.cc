#include "epoch/id_generator.h"

#include <algorithm>
#include <cassert>

namespace dlog::epoch {

ReplicatedIdGenerator::ReplicatedIdGenerator(
    std::vector<GeneratorStateRep*> reps)
    : reps_(std::move(reps)) {
  assert(!reps_.empty());
}

Result<uint64_t> ReplicatedIdGenerator::ReadMax(size_t quorum) const {
  uint64_t max_value = 0;
  size_t responded = 0;
  for (const GeneratorStateRep* rep : reps_) {
    Result<uint64_t> r = rep->Read();
    if (!r.ok()) continue;
    max_value = std::max(max_value, *r);
    if (++responded >= quorum) return max_value;
  }
  return Status::Unavailable("cannot assemble read quorum");
}

Result<uint64_t> ReplicatedIdGenerator::NewId() {
  DLOG_ASSIGN_OR_RETURN(uint64_t max_read,
                        ReadMax(ReadQuorum(reps_.size())));
  const uint64_t value = max_read + 1;
  // "Any overlapping assignment of reads and writes can be used": we
  // simply try representatives in order until a write quorum acks.
  size_t written = 0;
  for (GeneratorStateRep* rep : reps_) {
    if (rep->Write(value).ok()) {
      if (++written >= WriteQuorum(reps_.size())) return value;
    }
  }
  return Status::Unavailable("cannot assemble write quorum");
}

Status ReplicatedIdGenerator::NewIdCrashAfterWrites(int writes_before_crash) {
  DLOG_ASSIGN_OR_RETURN(uint64_t max_read,
                        ReadMax(ReadQuorum(reps_.size())));
  const uint64_t value = max_read + 1;
  int written = 0;
  for (GeneratorStateRep* rep : reps_) {
    if (written >= writes_before_crash) break;
    if (rep->Write(value).ok()) ++written;
  }
  return Status::Aborted("crash injected during NewId");
}

}  // namespace dlog::epoch
