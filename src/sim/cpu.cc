#include "sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dlog::sim {

Cpu::Cpu(Scheduler* sim, double mips) : sim_(sim), mips_(mips) {
  assert(mips > 0);
}

Duration Cpu::InstructionsToTime(uint64_t instructions) const {
  // instructions / (mips * 1e6 instr/s) seconds.
  return SecondsToDuration(static_cast<double>(instructions) /
                           (mips_ * 1e6));
}

void Cpu::Execute(uint64_t instructions, Callback done) {
  const Duration service = InstructionsToTime(instructions);
  const Time start = std::max(sim_->Now(), free_at_);
  free_at_ = start + service;
  busy_ns_.Increment(service);
  if (done) {
    sim_->At(free_at_, std::move(done));
  }
}

}  // namespace dlog::sim
