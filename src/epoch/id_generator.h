#ifndef DLOG_EPOCH_ID_GENERATOR_H_
#define DLOG_EPOCH_ID_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/nvram.h"

namespace dlog::epoch {

/// ceil((R+1)/2): representatives out of R that a NewID read quorum needs.
inline size_t ReadQuorum(size_t reps) { return (reps + 2) / 2; }
/// ceil(R/2): representatives out of R that a NewID write quorum needs.
/// Every read quorum intersects every write quorum.
inline size_t WriteQuorum(size_t reps) { return (reps + 1) / 2; }

/// A generator state representative (Appendix I): a node holding one
/// integer in non-volatile storage with Read and Write operations that
/// are "atomic at individual representatives". Availability can be
/// toggled to model node failures.
class GeneratorStateRep {
 public:
  explicit GeneratorStateRep(uint64_t initial = 0) : cell_(initial) {}

  /// Marks the representative up or down; a down representative fails
  /// Read and Write with Unavailable.
  void SetAvailable(bool available) { available_ = available; }
  bool IsAvailable() const { return available_; }

  Result<uint64_t> Read() const {
    if (!available_) return Status::Unavailable("representative down");
    return cell_.Read();
  }

  Status Write(uint64_t value) {
    if (!available_) return Status::Unavailable("representative down");
    cell_.Write(value);
    return Status::OK();
  }

  /// Direct inspection for tests (bypasses availability).
  uint64_t PeekValue() const { return cell_.Read(); }

 private:
  storage::StableCell cell_;
  bool available_ = true;
};

/// The replicated increasing unique identifier generator of Appendix I,
/// used by replicated-log clients to obtain epoch numbers at restart.
///
/// NewID "first reads the generator state from ceil((N+1)/2)
/// representatives. Then, NewID writes a value higher than any read to
/// ceil(N/2) representatives. ... Finally, the value written is returned
/// as a new identifier." Because every read quorum intersects every
/// preceding write quorum, identifiers strictly increase; a crash between
/// the read and enough writes merely skips values.
class ReplicatedIdGenerator {
 public:
  /// The generator does not own the representatives (in a deployment they
  /// live on log server nodes).
  explicit ReplicatedIdGenerator(std::vector<GeneratorStateRep*> reps);

  /// Returns a new identifier strictly greater than any identifier
  /// returned by a completed earlier call, or Unavailable when a read or
  /// write quorum cannot be assembled.
  Result<uint64_t> NewId();

  /// Fault-injection variant: performs the read quorum and then crashes
  /// after `writes_before_crash` successful representative writes,
  /// returning Aborted. Used to verify that interrupted NewId calls only
  /// skip values, never repeat them.
  Status NewIdCrashAfterWrites(int writes_before_crash);

 private:
  /// Reads from up to all representatives, stopping once `quorum`
  /// responded; returns the max value read.
  Result<uint64_t> ReadMax(size_t quorum) const;

  std::vector<GeneratorStateRep*> reps_;
};

}  // namespace dlog::epoch

#endif  // DLOG_EPOCH_ID_GENERATOR_H_
