#include "storage/disk.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dlog::storage {

Status DiskConfig::Validate() const {
  if (rpm <= 0) return Status::InvalidArgument("rpm must be > 0");
  if (track_bytes == 0) {
    return Status::InvalidArgument("track_bytes must be > 0");
  }
  if (num_tracks == 0) {
    return Status::InvalidArgument("num_tracks must be > 0");
  }
  return Status::OK();
}

SimDisk::SimDisk(sim::Scheduler* sim, const DiskConfig& config)
    : sim_(sim), config_(config) {
  DLOG_CHECK_OK(config.Validate());
}

sim::Duration SimDisk::RotationTime() const {
  return sim::SecondsToDuration(60.0 / config_.rpm);
}

SimDisk::Service SimDisk::ServiceTime(uint64_t track) {
  Service s;
  // Seek: free if the head is on this track or the immediately following
  // one (sequential streaming, the common case for the log stream).
  const uint64_t head = head_track_;
  const bool sequential = (track == head) || (track == head + 1);
  if (!sequential) s.seek = config_.avg_seek;
  // Rotational latency: half a rotation on average.
  s.rotation = RotationTime() / 2;
  // Transfer: a whole track takes one rotation.
  s.transfer = RotationTime();
  head_track_ = track;
  return s;
}

void SimDisk::WriteTrack(uint64_t track, SharedBytes data,
                         std::function<void(Status)> done) {
  Status status = Status::OK();
  if (track >= config_.num_tracks) {
    status = Status::InvalidArgument("track address out of range");
  } else if (data.size() > config_.track_bytes) {
    status = Status::InvalidArgument("data larger than a track");
  } else if (config_.write_once && tracks_.count(track) > 0) {
    status = Status::FailedPrecondition(
        "write-once medium: track already written");
  }
  if (!status.ok()) {
    // Parameter errors are detected before any mechanical motion.
    if (done) sim_->After(0, [done, status]() { done(status); });
    return;
  }

  const sim::Time submitted = sim_->Now();
  const sim::Time start = std::max(submitted, free_at_);
  const Service service = ServiceTime(track);
  free_at_ = start + service.Total();
  busy_time_ += service.Total();
  writes_.Increment();
  if (request_probe_) {
    request_probe_({track, true, submitted, start, service.seek,
                    service.rotation, service.transfer, free_at_});
  }

  const uint64_t generation = crash_generation_;
  sim_->At(free_at_, [this, track, data = std::move(data),
                      done = std::move(done), generation]() mutable {
    if (generation != crash_generation_) return;  // lost in a crash
    tracks_[track] = std::move(data);
    if (done) done(Status::OK());
  });
}

void SimDisk::ReadTrack(uint64_t track,
                        std::function<void(Result<SharedBytes>)> done) {
  assert(done);
  if (track >= config_.num_tracks) {
    sim_->After(0, [done]() {
      done(Status::InvalidArgument("track address out of range"));
    });
    return;
  }

  const sim::Time submitted = sim_->Now();
  const sim::Time start = std::max(submitted, free_at_);
  const Service service = ServiceTime(track);
  free_at_ = start + service.Total();
  busy_time_ += service.Total();
  reads_.Increment();
  if (request_probe_) {
    request_probe_({track, false, submitted, start, service.seek,
                    service.rotation, service.transfer, free_at_});
  }

  const uint64_t generation = crash_generation_;
  sim_->At(free_at_, [this, track, done = std::move(done), generation]() {
    if (generation != crash_generation_) return;
    auto it = tracks_.find(track);
    if (it == tracks_.end()) {
      done(Status::NotFound("track never written"));
    } else {
      done(it->second);
    }
  });
}

Result<SharedBytes> SimDisk::Peek(uint64_t track) const {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) return Status::NotFound("track never written");
  return it->second;
}

void SimDisk::Crash() {
  ++crash_generation_;
  const sim::Time now = sim_->Now();
  if (free_at_ > now) busy_time_ -= free_at_ - now;
  free_at_ = now;
}

void SimDisk::WipeMedia() {
  Crash();
  tracks_.clear();
  head_track_ = 0;
}

}  // namespace dlog::storage
