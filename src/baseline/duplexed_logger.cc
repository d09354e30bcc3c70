#include "baseline/duplexed_logger.h"

#include <algorithm>
#include <cassert>

namespace dlog::baseline {

DuplexedDiskLogger::DuplexedDiskLogger(sim::Scheduler* sim,
                                       const DuplexedLogConfig& config)
    : sim_(sim), config_(config) {
  assert(config.num_disks >= 1);
  for (int i = 0; i < config.num_disks; ++i) {
    disks_.push_back(std::make_unique<storage::SimDisk>(sim, config.disk));
  }
}

Result<Lsn> DuplexedDiskLogger::Append(Bytes payload) {
  records_.push_back(std::move(payload));
  return static_cast<Lsn>(records_.size());
}

void DuplexedDiskLogger::Force(Lsn upto, std::function<void(Status)> done) {
  upto = std::min<Lsn>(upto, records_.size());
  if (upto <= stable_high_) {
    sim_->After(0, [done = std::move(done)]() { done(Status::OK()); });
    return;
  }
  waiters_.push_back(Waiter{upto, std::move(done), sim_->Now()});
  MaybeFlush();
}

void DuplexedDiskLogger::MaybeFlush() {
  if (flush_in_progress_ || waiters_.empty()) return;

  // Group commit: one track write covers every record any current waiter
  // needs (and anything else already buffered behind them).
  Lsn flush_upto = stable_high_;
  for (const Waiter& w : waiters_) flush_upto = std::max(flush_upto, w.upto);
  if (flush_upto <= stable_high_) {
    CompleteWaiters();
    return;
  }

  // Pack records into as many tracks as needed.
  std::vector<Bytes> tracks;
  Bytes current;
  for (Lsn lsn = stable_high_ + 1; lsn <= flush_upto; ++lsn) {
    const Bytes& rec = records_[lsn - 1];
    if (!current.empty() &&
        current.size() + rec.size() + 8 > config_.disk.track_bytes) {
      tracks.push_back(std::move(current));
      current.clear();
    }
    // Record boundary: 4-byte length prefix (a simple on-disk framing).
    Encoder enc(&current, 4 + rec.size());
    enc.PutBlob(rec);
  }
  if (!current.empty()) tracks.push_back(std::move(current));

  flush_in_progress_ = true;
  const uint64_t generation = generation_;
  auto remaining =
      std::make_shared<size_t>(tracks.size() * disks_.size());
  for (Bytes& bytes : tracks) {
    const uint64_t track_no = next_track_++;
    // Both disks keep the one image.
    const SharedBytes track(std::move(bytes));
    for (auto& disk : disks_) {
      tracks_written_.Increment();
      disk->WriteTrack(track_no, track,
                       [this, generation, remaining, flush_upto](Status st) {
                         if (generation != generation_) return;
                         (void)st;
                         if (--*remaining > 0) return;
                         // All tracks on all disks are down.
                         flush_in_progress_ = false;
                         stable_high_ = std::max(stable_high_, flush_upto);
                         CompleteWaiters();
                         MaybeFlush();  // forces queued meanwhile
                       });
    }
  }
}

void DuplexedDiskLogger::CompleteWaiters() {
  // Forces usually arrive in LSN order, but complete any satisfied
  // waiter wherever it sits in the queue.
  std::deque<Waiter> still_waiting;
  std::vector<Waiter> ready;
  for (Waiter& w : waiters_) {
    if (w.upto <= stable_high_) {
      ready.push_back(std::move(w));
    } else {
      still_waiting.push_back(std::move(w));
    }
  }
  waiters_ = std::move(still_waiting);
  for (Waiter& w : ready) {
    force_latency_ms_.Add(sim::DurationToSeconds(sim_->Now() - w.started) *
                          1e3);
    w.done(Status::OK());
  }
}

void DuplexedDiskLogger::Read(Lsn lsn,
                              std::function<void(Result<Bytes>)> done) {
  if (lsn == kNoLsn || lsn > records_.size()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::OutOfRange("beyond end of log"));
    });
    return;
  }
  Bytes payload = records_[lsn - 1];
  if (lsn > stable_high_) {
    // Still buffered: memory-speed read.
    sim_->After(0, [done = std::move(done), payload = std::move(payload)]() {
      done(payload);
    });
    return;
  }
  // Stable records pay one disk read (conservatively the first disk).
  const uint64_t generation = generation_;
  disks_[0]->ReadTrack(0, [this, generation, done = std::move(done),
                           payload = std::move(payload)](
                              const Result<SharedBytes>& r) {
    (void)r;
    if (generation != generation_) return;
    done(payload);
  });
}

void DuplexedDiskLogger::Crash() {
  ++generation_;
  records_.resize(stable_high_);
  waiters_.clear();
  flush_in_progress_ = false;
  for (auto& disk : disks_) disk->Crash();
}

}  // namespace dlog::baseline
