#include "server/client_log_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "server/track_format.h"

namespace dlog::server {
namespace {

using IndexEntry = ClientLogStore::IndexEntry;

/// <LSN, Epoch> key order.
bool KeyBefore(const IndexEntry& a, const IndexEntry& b) {
  return a.lsn != b.lsn ? a.lsn < b.lsn : a.epoch < b.epoch;
}

}  // namespace

void ClientLogStore::Index(Lsn lsn, Epoch epoch, RecordLocation at) {
  const IndexEntry entry{lsn, epoch, at.track, at.offset, next_pos_++};
  // Stream writes extend the key order, so the common case is a push at
  // the tail; a recovery copy landing below the tail takes a sorted
  // insert.
  if (index_.empty() || KeyBefore(index_.back(), entry)) {
    index_.push_back(entry);
  } else {
    index_.insert(
        std::upper_bound(index_.begin(), index_.end(), entry, KeyBefore),
        entry);
  }
  ExtendSequences(lsn, epoch);
}

void ClientLogStore::ExtendSequences(Lsn lsn, Epoch epoch) {
  if (!sequences_.empty()) {
    Interval& tail = sequences_.back();
    if (tail.epoch == epoch && lsn == tail.high + 1) {
      tail.high = lsn;
      return;
    }
  }
  sequences_.push_back(Interval{epoch, lsn, lsn});
}

SharedBytes ClientLogStore::EncodingOf(size_t i) const {
  const IndexEntry& e = index_[i];
  const SharedBytes image = images_->Image(e.track);
  const StreamEntryRef entry =
      StreamEntryAt({image.data(), image.size()}, e.offset);
  return image.Slice(e.offset + kStreamEntryClientBytes,
                     entry.record.bytes.size());
}

size_t ClientLogStore::IndexOf(Lsn lsn, Epoch epoch) const {
  const IndexEntry key{lsn, epoch};
  // Stream writes probe keys past the tail: answer those without a
  // search.
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

ClientLogStore::Placement ClientLogStore::Place(Lsn lsn, Epoch epoch) {
  const Lsn high = HighestLsn();
  if (lsn < high) return Placement::kStale;
  if (lsn == high) return Placement::kTail;
  const bool announced = announced_ == std::make_pair(epoch, lsn);
  if (announced) announced_.reset();
  // Nothing else may start a sequence: the server's force acknowledgment
  // credits the client with every LSN up to its tail.
  if (announced || lsn == high + 1) return Placement::kExtend;
  return Placement::kHold;
}

void ClientLogStore::Hold(SharedBytes record) {
  if (held_.size() < kMaxHeld) {
    held_[wire::RecordAt(record.data()).lsn] = std::move(record);
  }
}

std::optional<SharedBytes> ClientLogStore::TakeNextHeld() {
  while (!held_.empty()) {
    auto it = held_.begin();
    if (it->first <= HighestLsn()) {
      held_.erase(it);  // arrived via another path meanwhile
      continue;
    }
    if (it->first != ExpectedNextLsn()) break;
    SharedBytes record = std::move(it->second);
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

std::optional<SharedBytes> ClientLogStore::Announce(Epoch epoch, Lsn start) {
  held_.erase(held_.begin(), held_.lower_bound(start));
  announced_ = {epoch, start};
  auto it = held_.find(start);
  if (it == held_.end() || wire::RecordAt(it->second.data()).epoch != epoch) {
    return std::nullopt;
  }
  SharedBytes record = std::move(it->second);
  held_.erase(it);
  announced_.reset();
  return record;
}

Status ClientLogStore::Write(const LogRecord& record) {
  if (record.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  const SharedBytes encoded = wire::EncodeRecord(record);
  const size_t existing = IndexOf(record.lsn, record.epoch);
  if (existing < index_.size()) {
    if (EncodingOf(existing) == encoded) return Status::OK();  // redelivery
    return Status::Corruption(
        "different contents for an existing <LSN, Epoch>");
  }
  DLOG_RETURN_IF_ERROR(CheckAppend(record.lsn, record.epoch));
  if (!Append(wire::RecordAt(encoded.data()))) {
    return Status::ResourceExhausted("no room for the record");
  }
  return Status::OK();
}

Status ClientLogStore::CheckAppend(Lsn lsn, Epoch epoch) const {
  if (lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  if (!sequences_.empty()) {
    const Interval& tail = sequences_.back();
    // Keep both LSN and epoch non-decreasing along the stream. A repeat
    // of the tail LSN is legal only with a higher epoch (the recovery
    // re-copy of the highest record, e.g. <9,4> after <9,3> in Fig 3-3).
    if (epoch < tail.epoch) {
      return Status::FailedPrecondition("epoch lower than tail sequence");
    }
    if (lsn <= tail.high && !(lsn == tail.high && epoch > tail.epoch)) {
      return Status::FailedPrecondition("LSN not beyond the stream tail");
    }
  }
  return Status::OK();
}

bool ClientLogStore::Append(const wire::RecordView& record) {
  const std::optional<RecordLocation> at =
      images_->Append(client_, record.bytes);
  if (!at.has_value()) return false;
  Index(record.lsn, record.epoch, *at);
  return true;
}

bool ClientLogStore::Recover(Lsn lsn, Epoch epoch, RecordLocation at) {
  if (Contains(lsn, epoch)) return false;
  Index(lsn, epoch, at);
  return true;
}

std::optional<RecordLocation> ClientLogStore::LocationOf(Lsn lsn,
                                                         Epoch epoch) const {
  const size_t i = IndexOf(lsn, epoch);
  if (i == index_.size()) return std::nullopt;
  return index_[i].location();
}

void ClientLogStore::Relocate(Lsn lsn, Epoch epoch, RecordLocation to) {
  const size_t i = IndexOf(lsn, epoch);
  if (i == index_.size()) return;
  index_[i].track = to.track;
  index_[i].offset = to.offset;
}

Result<LogRecord> ClientLogStore::Read(Lsn lsn) const {
  DLOG_ASSIGN_OR_RETURN(SharedBytes encoding, ReadEncoded(lsn));
  return wire::ToLogRecord(encoding);
}

Result<SharedBytes> ClientLogStore::ReadEncoded(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == index_.size()) return Status::NotFound("LSN not stored");
  return EncodingOf(i);
}

std::optional<RecordLocation> ClientLogStore::ReadLocation(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == index_.size()) return std::nullopt;
  return index_[i].location();
}

void ClientLogStore::AddToForest(uint64_t track, Lsn low, Lsn high) {
  if (!forest_.empty()) {
    const Lsn prev_high = forest_.node(forest_.size() - 1).key_high;
    if (high <= prev_high) return;
    low = prev_high + 1;
  }
  (void)forest_.Append(low, high, track);
}

IntervalList ClientLogStore::Intervals() const { return sequences_; }

Status ClientLogStore::StageCopy(SharedBytes record) {
  const wire::RecordView copy = wire::RecordAt(record.data());
  if (copy.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  staged_[copy.epoch].push_back(std::move(record));
  return Status::OK();
}

Result<std::vector<SharedBytes>> ClientLogStore::InstallCopies(Epoch epoch) {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return std::vector<SharedBytes>{};
  std::vector<SharedBytes> copies = std::move(it->second);
  staged_.erase(it);
  const auto lsn_of = [](const SharedBytes& r) {
    return wire::RecordAt(r.data()).lsn;
  };
  std::stable_sort(copies.begin(), copies.end(),
                   [&lsn_of](const SharedBytes& a, const SharedBytes& b) {
                     return lsn_of(a) < lsn_of(b);
                   });
  // Check every copy's bytes before installing any. A retried recovery
  // may re-stage or re-install the same copy; those are skipped. (All
  // copies carry `epoch`, so equal LSNs are equal keys, adjacent after
  // the sort.)
  std::vector<SharedBytes> installed;
  for (SharedBytes& copy : copies) {
    const Lsn lsn = lsn_of(copy);
    const size_t i = IndexOf(lsn, epoch);
    const bool repeat = !installed.empty() && lsn_of(installed.back()) == lsn;
    if (repeat || i < index_.size()) {
      if ((repeat ? installed.back() : EncodingOf(i)) == copy) continue;
      return Status::Corruption("conflicting copy for <LSN, Epoch>");
    }
    installed.push_back(std::move(copy));
  }
  for (const SharedBytes& r : installed) {
    [[maybe_unused]] const bool stored = Append(wire::RecordAt(r.data()));
    assert(stored);
  }
  return installed;
}

size_t ClientLogStore::StagedBytes(Epoch epoch) const {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return 0;
  size_t n = 0;
  for (const SharedBytes& r : it->second) {
    n += kStreamEntryClientBytes + r.size();
  }
  return n;
}

size_t ClientLogStore::staged_count() const {
  size_t n = 0;
  for (const auto& [epoch, records] : staged_) n += records.size();
  return n;
}

std::vector<LogRecord> ClientLogStore::Records() const {
  std::vector<size_t> order(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) order[index_[i].pos] = i;
  std::vector<LogRecord> records;
  records.reserve(order.size());
  for (size_t i : order) records.push_back(wire::ToLogRecord(EncodingOf(i)));
  return records;
}

size_t ClientLogStore::TruncateBelow(Lsn below) {
  // The index is in key order, so the discarded entries are its prefix.
  const auto kept = std::partition_point(
      index_.begin(), index_.end(),
      [below](const IndexEntry& e) { return e.lsn < below; });
  const size_t removed = static_cast<size_t>(kept - index_.begin());
  if (removed == 0) return 0;
  index_.erase(index_.begin(), kept);
  // Replay the retained records in write order to rebuild the sequence
  // list, renumbering their positions densely.
  std::vector<std::pair<uint32_t, IndexEntry*>> order;
  order.reserve(index_.size());
  for (IndexEntry& e : index_) order.emplace_back(e.pos, &e);
  std::sort(order.begin(), order.end());
  sequences_.clear();
  next_pos_ = 0;
  for (const auto& [pos, e] : order) {
    e->pos = next_pos_++;
    ExtendSequences(e->lsn, e->epoch);
  }
  return removed;
}

Epoch ClientLogStore::TailEpoch() const {
  if (sequences_.empty()) return 0;
  return sequences_.back().epoch;
}

}  // namespace dlog::server
