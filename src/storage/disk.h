#ifndef DLOG_STORAGE_DISK_H_
#define DLOG_STORAGE_DISK_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::storage {

/// Geometry and timing of a simulated track-addressed disk. Defaults are
/// mid-1980s commodity numbers ("slow disks with small tracks",
/// Section 4.1).
struct DiskConfig {
  double rpm = 3600;                           // 16.7 ms per rotation
  sim::Duration avg_seek = 25 * sim::kMillisecond;
  size_t track_bytes = 16 * 1024;              // small tracks
  uint64_t num_tracks = 1'000'000;
  /// Write-once (optical) mode: a track may be written exactly once
  /// (Section 4.3 requires data structures usable on optical storage).
  bool write_once = false;

  /// OK iff the geometry is usable (positive rpm, nonzero tracks, ...).
  Status Validate() const;
};

/// A simulated disk serving one request at a time in FIFO order. Writes
/// and reads are whole tracks: the log-server design (Section 4.1) buffers
/// records in NVRAM "so that an entire track of log data may be written to
/// disk at once".
///
/// Timing model per request:
///   seek (0 if the head is already positioned on an adjacent track)
///   + rotational latency (half a rotation on a random landing)
///   + transfer (one full rotation for a whole track; proportional for
///     partial reads).
///
/// Contents are non-volatile: they survive Crash(). A request in flight at
/// crash time is lost without effect (the old track contents remain).
class SimDisk {
 public:
  SimDisk(sim::Scheduler* sim, const DiskConfig& config);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Queues a whole-track write; `done` runs at simulated completion.
  /// Fails with InvalidArgument (oversized data / bad address) or
  /// FailedPrecondition (write-once violation) — reported through `done`.
  /// The track keeps `data` by reference: the writer shares the buffer
  /// and must not change it afterwards.
  void WriteTrack(uint64_t track, SharedBytes data,
                  std::function<void(Status)> done);

  /// Queues a track read; the result shares the stored buffer.
  void ReadTrack(uint64_t track,
                 std::function<void(Result<SharedBytes>)> done);

  /// Synchronous inspection of current contents (test/recovery helper;
  /// charges no simulated time). Returns NotFound for never-written
  /// tracks.
  Result<SharedBytes> Peek(uint64_t track) const;

  /// Returns true if the track has been written.
  bool IsWritten(uint64_t track) const {
    return tracks_.find(track) != tracks_.end();
  }

  /// Drops all queued/in-flight requests; contents are preserved.
  /// Callbacks of dropped requests are never invoked.
  void Crash();

  /// Media failure: all contents are destroyed (and in-flight requests
  /// dropped). The device itself remains usable, as after a platter
  /// replacement.
  void WipeMedia();

  const DiskConfig& config() const { return config_; }
  sim::Duration RotationTime() const;
  /// The arm's busy account: cumulative service time of the requests
  /// submitted to it, less the unserved tail a Crash() drops. With
  /// busy_until(), sim::BusyElapsed gives the busy time elapsed by any
  /// instant.
  sim::Duration busy_time() const { return busy_time_; }
  /// When the requests queued so far complete.
  sim::Time busy_until() const { return free_at_; }

  sim::Counter& writes() { return writes_; }
  sim::Counter& reads() { return reads_; }

  /// Per-request timing record for the profiler: when the request was
  /// submitted, when the arm started serving it, and the mechanical
  /// breakdown (seek / rotational latency / transfer). Requests serialize
  /// FIFO, so [start, end) intervals never overlap — an exact busy
  /// timeline for the arm. The probe fires at submission time (the full
  /// schedule is decided then), including for requests later lost to a
  /// Crash().
  struct RequestTiming {
    uint64_t track = 0;
    bool is_write = false;
    sim::Time submitted = 0;
    sim::Time start = 0;
    sim::Duration seek = 0;
    sim::Duration rotation = 0;
    sim::Duration transfer = 0;
    sim::Time end = 0;
  };
  using RequestProbe = std::function<void(const RequestTiming&)>;
  void SetRequestProbe(RequestProbe probe) {
    request_probe_ = std::move(probe);
  }

 private:
  /// Mechanical components of one whole-track access.
  struct Service {
    sim::Duration seek = 0;
    sim::Duration rotation = 0;
    sim::Duration transfer = 0;
    sim::Duration Total() const { return seek + rotation + transfer; }
  };
  /// Computes service components and advances head position.
  Service ServiceTime(uint64_t track);

  sim::Scheduler* sim_;
  DiskConfig config_;
  std::map<uint64_t, SharedBytes> tracks_;
  sim::Time free_at_ = 0;
  uint64_t head_track_ = 0;
  sim::Duration busy_time_ = 0;
  uint64_t crash_generation_ = 0;
  sim::Counter writes_;
  sim::Counter reads_;
  RequestProbe request_probe_;
};

}  // namespace dlog::storage

#endif  // DLOG_STORAGE_DISK_H_
