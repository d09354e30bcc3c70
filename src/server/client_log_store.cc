#include "server/client_log_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dlog::server {
namespace {

using IndexEntry = ClientLogStore::IndexEntry;

/// <LSN, Epoch> key order.
bool KeyBefore(const IndexEntry& a, const IndexEntry& b) {
  return a.lsn != b.lsn ? a.lsn < b.lsn : a.epoch < b.epoch;
}

}  // namespace

void ClientLogStore::AppendToStream(LogRecord record, uint64_t track) {
  const IndexEntry entry{record.lsn, record.epoch, stream_.size(), track};
  // Callers only append keys not yet indexed. Stream writes extend the
  // key order, so the common case is a push at the tail; a recovery copy
  // landing below the tail takes a sorted insert.
  if (index_.empty() || KeyBefore(index_.back(), entry)) {
    index_.push_back(entry);
  } else {
    index_.insert(
        std::upper_bound(index_.begin(), index_.end(), entry, KeyBefore),
        entry);
  }
  const Lsn lsn = record.lsn;
  const Epoch epoch = record.epoch;
  stream_.push_back(std::move(record));
  if (!sequences_.empty()) {
    Interval& tail = sequences_.back();
    if (tail.epoch == epoch && lsn == tail.high + 1) {
      tail.high = lsn;
      return;
    }
  }
  sequences_.push_back(Interval{epoch, lsn, lsn});
}

size_t ClientLogStore::IndexOf(Lsn lsn, Epoch epoch) const {
  const IndexEntry key{lsn, epoch};
  // Stream writes probe keys past the tail, and payload rebinds the
  // newest keys: answer those without a search.
  if (index_.empty() || KeyBefore(index_.back(), key)) return index_.size();
  if (!KeyBefore(key, index_.back())) return index_.size() - 1;
  auto it = std::lower_bound(index_.begin(), index_.end(), key, KeyBefore);
  if (it == index_.end() || it->lsn != lsn || it->epoch != epoch) {
    return index_.size();
  }
  return static_cast<size_t>(it - index_.begin());
}

size_t ClientLogStore::HighestEpochOf(Lsn lsn) const {
  // One before the first entry with a larger LSN.
  auto it = std::partition_point(
      index_.begin(), index_.end(),
      [lsn](const IndexEntry& e) { return e.lsn <= lsn; });
  if (it == index_.begin() || (it - 1)->lsn != lsn) return index_.size();
  return static_cast<size_t>(it - 1 - index_.begin());
}

ClientLogStore::Placement ClientLogStore::Place(const LogRecord& record) {
  const Lsn high = HighestLsn();
  if (record.lsn < high) return Placement::kStale;
  if (record.lsn == high) return Placement::kTail;
  const bool announced =
      announced_ == std::make_pair(record.epoch, record.lsn);
  if (announced) announced_.reset();
  // Nothing else may start a sequence: the server's force acknowledgment
  // credits the client with every LSN up to its tail.
  if (announced || record.lsn == high + 1) return Placement::kExtend;
  if (held_.size() < kMaxHeld) held_[record.lsn] = record;
  return Placement::kHold;
}

std::optional<LogRecord> ClientLogStore::TakeNextHeld() {
  while (!held_.empty()) {
    auto it = held_.begin();
    if (it->first <= HighestLsn()) {
      held_.erase(it);  // arrived via another path meanwhile
      continue;
    }
    if (it->first != ExpectedNextLsn()) break;
    LogRecord record = std::move(it->second);
    held_.erase(it);
    return record;
  }
  return std::nullopt;
}

std::optional<std::pair<Lsn, Lsn>> ClientLogStore::Gap() const {
  if (held_.empty() || held_.begin()->first <= ExpectedNextLsn()) {
    return std::nullopt;
  }
  return std::make_pair(ExpectedNextLsn(), held_.begin()->first - 1);
}

std::optional<LogRecord> ClientLogStore::Announce(Epoch epoch, Lsn start) {
  held_.erase(held_.begin(), held_.lower_bound(start));
  announced_ = {epoch, start};
  auto it = held_.find(start);
  if (it == held_.end() || it->second.epoch != epoch) return std::nullopt;
  LogRecord record = std::move(it->second);
  held_.erase(it);
  announced_.reset();
  return record;
}

Status ClientLogStore::Write(LogRecord record) {
  DLOG_RETURN_IF_ERROR(CheckWrite(record));
  if (!Contains(record.lsn, record.epoch)) AppendToStream(std::move(record));
  return Status::OK();
}

Status ClientLogStore::CheckWrite(const LogRecord& record) const {
  if (record.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  const size_t existing = IndexOf(record.lsn, record.epoch);
  if (existing < index_.size()) {
    if (stream_[index_[existing].pos] == record) {
      return Status::OK();  // redelivery
    }
    return Status::Corruption(
        "different contents for an existing <LSN, Epoch>");
  }
  if (!sequences_.empty()) {
    const Interval& tail = sequences_.back();
    // Keep both LSN and epoch non-decreasing along the stream. A repeat
    // of the tail LSN is legal only with a higher epoch (the recovery
    // re-copy of the highest record, e.g. <9,4> after <9,3> in Fig 3-3).
    if (record.epoch < tail.epoch) {
      return Status::FailedPrecondition("epoch lower than tail sequence");
    }
    if (record.lsn <= tail.high &&
        !(record.lsn == tail.high && record.epoch > tail.epoch)) {
      return Status::FailedPrecondition("LSN not beyond the stream tail");
    }
  }
  return Status::OK();
}

void ClientLogStore::Restore(LogRecord record) {
  if (!Contains(record.lsn, record.epoch)) AppendToStream(std::move(record));
}

void ClientLogStore::RebindPayload(Lsn lsn, Epoch epoch, SharedBytes data) {
  const size_t i = IndexOf(lsn, epoch);
  if (i == index_.size()) return;
  SharedBytes& stored = stream_[index_[i].pos].data;
  if (stored == data) stored = std::move(data);
}

Result<LogRecord> ClientLogStore::Read(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == index_.size()) return Status::NotFound("LSN not stored");
  return stream_[index_[i].pos];
}

void ClientLogStore::SetTrack(Lsn lsn, Epoch epoch, uint64_t track) {
  const size_t i = IndexOf(lsn, epoch);
  if (i < index_.size()) index_[i].track = track;
}

void ClientLogStore::AddToForest(uint64_t track, Lsn low, Lsn high) {
  if (!forest_.empty()) {
    const Lsn prev_high = forest_.node(forest_.size() - 1).key_high;
    if (high <= prev_high) return;
    low = prev_high + 1;
  }
  (void)forest_.Append(low, high, track);
}

std::optional<uint64_t> ClientLogStore::ReadTrack(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == index_.size() || index_[i].track == kNoTrack) return std::nullopt;
  return index_[i].track;
}

IntervalList ClientLogStore::Intervals() const { return sequences_; }

Status ClientLogStore::StageCopy(const LogRecord& record) {
  if (record.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  staged_[record.epoch].push_back(record);
  return Status::OK();
}

Result<std::vector<LogRecord>> ClientLogStore::InstallCopies(Epoch epoch) {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return std::vector<LogRecord>{};
  std::vector<LogRecord> copies = std::move(it->second);
  staged_.erase(it);
  std::stable_sort(copies.begin(), copies.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.lsn < b.lsn;
                   });
  std::vector<LogRecord> installed;
  for (const LogRecord& r : copies) {
    const size_t existing = IndexOf(r.lsn, r.epoch);
    if (existing < index_.size()) {
      // A retried recovery may re-install the same copy.
      if (stream_[index_[existing].pos] == r) continue;
      return Status::Corruption("conflicting copy for <LSN, Epoch>");
    }
    AppendToStream(r);
    installed.push_back(r);
  }
  return installed;
}

size_t ClientLogStore::StagedBytes(Epoch epoch) const {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return 0;
  size_t n = 0;
  for (const LogRecord& r : it->second) n += r.data.size() + 32;
  return n;
}

size_t ClientLogStore::staged_count() const {
  size_t n = 0;
  for (const auto& [epoch, records] : staged_) n += records.size();
  return n;
}

size_t ClientLogStore::TruncateBelow(Lsn below) {
  const size_t removed = static_cast<size_t>(
      std::count_if(stream_.begin(), stream_.end(),
                    [below](const LogRecord& r) { return r.lsn < below; }));
  if (removed == 0) return 0;
  // Replay the retained records in stream order, each with its track.
  std::vector<uint64_t> track_at(stream_.size(), kNoTrack);
  for (const IndexEntry& e : index_) track_at[e.pos] = e.track;
  std::vector<LogRecord> old_stream = std::move(stream_);
  stream_.clear();
  index_.clear();
  sequences_.clear();
  for (size_t pos = 0; pos < old_stream.size(); ++pos) {
    if (old_stream[pos].lsn >= below) {
      AppendToStream(std::move(old_stream[pos]), track_at[pos]);
    }
  }
  return removed;
}

Epoch ClientLogStore::TailEpoch() const {
  if (sequences_.empty()) return 0;
  return sequences_.back().epoch;
}

}  // namespace dlog::server
