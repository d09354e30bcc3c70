#include "server/client_log_store.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <utility>

#include "server/track_format.h"

namespace dlog::server {
namespace {

using Run = ClientLogStore::Run;

/// <LSN, Epoch> order of the runs' first records.
bool KeyBefore(const Run& a, const Run& b) {
  return a.lsn != b.lsn ? a.lsn < b.lsn : a.epoch < b.epoch;
}

/// Offset in `image` of the entry `k` entries past the one at `offset`:
/// a run's entries lie back to back.
uint32_t EntryAfter(std::span<const uint8_t> image, uint32_t offset, Lsn k) {
  for (; k > 0; --k) {
    offset += static_cast<uint32_t>(
        kStreamEntryClientBytes +
        StreamEntryAt(image, offset).record.bytes.size());
  }
  return offset;
}

}  // namespace

void ClientLogStore::Index(Lsn lsn, Epoch epoch, RecordLocation at,
                           uint32_t entry_bytes) {
  const uint32_t pos = next_pos_++;
  // A stream batch or a batch of installed copies lands back to back in
  // one image: each record extends the run holding the one before it,
  // whose last record is the one before it in write order too.
  Run* tail = tail_ == kNoRun ? nullptr : &runs_[tail_];
  assert(tail == nullptr || tail->pos + tail->count == pos);
  if (tail != nullptr && tail->epoch == epoch &&
      tail->lsn + tail->count == lsn && at == tail_end_ &&
      tail->count < kMaxRunRecords) {
    ++tail->count;
  } else {
    tail_ = InsertRun(Run{lsn, epoch, at.track, at.offset, pos, 1});
  }
  tail_end_ = {at.track, at.offset + entry_bytes};
  ++record_count_;
  max_key_ = std::max(max_key_, std::make_pair(lsn, epoch));
  ExtendSequences(lsn, epoch);
}

size_t ClientLogStore::InsertRun(const Run& run) {
  // Stream writes extend the key order, so the common case is a push at
  // the back; a recovery copy landing below the tail takes a sorted
  // insert.
  size_t i = runs_.size();
  if (!runs_.empty() && !KeyBefore(runs_.back(), run)) {
    i = static_cast<size_t>(
        std::upper_bound(runs_.begin(), runs_.end(), run, KeyBefore) -
        runs_.begin());
  }
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i), run);
  if (tail_ != kNoRun && tail_ >= i) ++tail_;
  return i;
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

RecordLocation ClientLogStore::LocationIn(const Run& run, Lsn lsn) const {
  if (lsn == run.lsn) return {run.track, run.offset};
  const SharedBytes image = images_->Image(run.track);
  return {run.track,
          EntryAfter({image.data(), image.size()}, run.offset, lsn - run.lsn)};
}

SharedBytes ClientLogStore::EncodingOf(const Run& run, Lsn lsn) const {
  const SharedBytes image = images_->Image(run.track);
  const std::span<const uint8_t> bytes(image.data(), image.size());
  const uint32_t offset = EntryAfter(bytes, run.offset, lsn - run.lsn);
  return image.Slice(offset + kStreamEntryClientBytes,
                     StreamEntryAt(bytes, offset).record.bytes.size());
}

size_t ClientLogStore::FirstRunNear(Lsn lsn) const {
  // Runs are sorted by first LSN, and none spans kMaxRunRecords LSNs.
  return static_cast<size_t>(
      std::partition_point(runs_.begin(), runs_.end(),
                           [lsn](const Run& r) {
                             return r.lsn + kMaxRunRecords <= lsn;
                           }) -
      runs_.begin());
}

size_t ClientLogStore::IndexOf(Lsn lsn, Epoch epoch) const {
  // Stream writes probe keys past the highest, or the records just
  // written: answer those without a search.
  if (max_key_ < std::make_pair(lsn, epoch)) return runs_.size();
  if (tail_ != kNoRun && runs_[tail_].epoch == epoch &&
      runs_[tail_].Holds(lsn)) {
    return tail_;
  }
  for (size_t i = FirstRunNear(lsn); i < runs_.size() && runs_[i].lsn <= lsn;
       ++i) {
    if (runs_[i].epoch == epoch && runs_[i].Holds(lsn)) return i;
  }
  return runs_.size();
}

size_t ClientLogStore::HighestEpochOf(Lsn lsn) const {
  // Runs of several epochs may hold the LSN (a copy installed below the
  // tail): the highest epoch wins.
  size_t best = runs_.size();
  for (size_t i = FirstRunNear(lsn); i < runs_.size() && runs_[i].lsn <= lsn;
       ++i) {
    if (runs_[i].Holds(lsn) &&
        (best == runs_.size() || runs_[i].epoch > runs_[best].epoch)) {
      best = i;
    }
  }
  return best;
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
  if (existing < runs_.size()) {
    if (EncodingOf(runs_[existing], record.lsn) == encoded) {
      return Status::OK();  // redelivery
    }
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
  Index(record.lsn, record.epoch, *at,
        static_cast<uint32_t>(kStreamEntryClientBytes + record.bytes.size()));
  return true;
}

bool ClientLogStore::Recover(const wire::RecordView& record,
                             RecordLocation at) {
  if (Contains(record.lsn, record.epoch)) return false;
  Index(record.lsn, record.epoch, at,
        static_cast<uint32_t>(kStreamEntryClientBytes + record.bytes.size()));
  return true;
}

std::optional<RecordLocation> ClientLogStore::LocationOf(Lsn lsn,
                                                         Epoch epoch) const {
  const size_t i = IndexOf(lsn, epoch);
  if (i == runs_.size()) return std::nullopt;
  return LocationIn(runs_[i], lsn);
}

void ClientLogStore::Relocate(Lsn lsn, Epoch epoch, RecordLocation to) {
  const size_t i = IndexOf(lsn, epoch);
  if (i == runs_.size()) return;
  // The run splits into the records before this one, this one (now at
  // `to`) and the records after it.
  const Run run = runs_[i];
  const uint32_t k = static_cast<uint32_t>(lsn - run.lsn);
  const bool tail = i == tail_;
  const Run moved{lsn, epoch, to.track, to.offset, run.pos + k, 1};
  Run after = run;
  after.lsn = lsn + 1;
  after.pos = run.pos + k + 1;
  after.count = run.count - k - 1;
  if (after.count > 0) after.offset = LocationIn(run, after.lsn).offset;
  // The piece that starts the run keeps its place in key order.
  if (k > 0) {
    runs_[i].count = k;
    InsertRun(moved);
  } else {
    runs_[i] = moved;
  }
  if (tail) tail_ = kNoRun;
  if (after.count > 0) {
    const size_t j = InsertRun(after);
    // The last record indexed did not move: the next may extend its run.
    if (tail) tail_ = j;
  }
}

Result<LogRecord> ClientLogStore::Read(Lsn lsn) const {
  DLOG_ASSIGN_OR_RETURN(SharedBytes encoding, ReadEncoded(lsn));
  return wire::ToLogRecord(encoding);
}

Result<SharedBytes> ClientLogStore::ReadEncoded(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == runs_.size()) return Status::NotFound("LSN not stored");
  return EncodingOf(runs_[i], lsn);
}

std::optional<RecordLocation> ClientLogStore::ReadLocation(Lsn lsn) const {
  const size_t i = HighestEpochOf(lsn);
  if (i == runs_.size()) return std::nullopt;
  return LocationIn(runs_[i], lsn);
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
    if (repeat || i < runs_.size()) {
      if ((repeat ? installed.back() : EncodingOf(runs_[i], lsn)) == copy) {
        continue;
      }
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
  // Each run holds consecutive positions, so the runs in position order
  // give the records in write order.
  std::vector<const Run*> order;
  order.reserve(runs_.size());
  for (const Run& run : runs_) order.push_back(&run);
  std::sort(order.begin(), order.end(),
            [](const Run* a, const Run* b) { return a->pos < b->pos; });
  std::vector<LogRecord> records;
  records.reserve(record_count_);
  for (const Run* run : order) {
    for (Lsn lsn = run->lsn; lsn < run->lsn + run->count; ++lsn) {
      records.push_back(wire::ToLogRecord(EncodingOf(*run, lsn)));
    }
  }
  return records;
}

size_t ClientLogStore::TruncateBelow(Lsn below) {
  // The runs that start below `below` are a prefix of the key order.
  const size_t below_end = static_cast<size_t>(
      std::partition_point(runs_.begin(), runs_.end(),
                           [below](const Run& r) { return r.lsn < below; }) -
      runs_.begin());
  if (below_end == 0) return 0;
  // Drop the prefix, except for the runs that straddle `below`: trim each
  // of those to start there, and pack them, in order, at its end.
  size_t removed = 0;
  size_t kept_from = below_end;
  for (size_t i = below_end; i-- > 0;) {
    Run run = runs_[i];
    if (!run.Holds(below)) {
      removed += run.count;
      continue;
    }
    const uint32_t k = static_cast<uint32_t>(below - run.lsn);
    removed += k;
    run.offset = LocationIn(run, below).offset;
    run.lsn = below;
    run.pos += k;
    run.count -= k;
    runs_[--kept_from] = run;
  }
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(kept_from));
  // The trimmed runs now start at `below`: sort them in among the kept
  // runs that start there too (at most one run per epoch).
  const auto at_below = std::partition_point(
      runs_.begin() + static_cast<std::ptrdiff_t>(below_end - kept_from),
      runs_.end(), [below](const Run& r) { return r.lsn == below; });
  std::sort(runs_.begin(), at_below, KeyBefore);
  record_count_ -= removed;
  if (runs_.empty()) max_key_ = {kNoLsn, 0};
  if (tail_ != kNoRun) {
    // The run holding the last record indexed, if it was kept.
    tail_ = kNoRun;
    for (size_t i = runs_.size(); i-- > 0;) {
      if (runs_[i].pos + runs_[i].count == next_pos_) {
        tail_ = i;
        break;
      }
    }
  }
  // Clip the interval list in place: intervals wholly below `below` go,
  // the one straddling it starts at `below`, and neighbours the removal
  // left adjacent (same epoch, consecutive LSNs) merge, as replaying the
  // kept records in write order would.
  size_t n = 0;
  for (size_t i = 0; i < sequences_.size(); ++i) {
    Interval interval = sequences_[i];
    if (interval.high < below) continue;
    interval.low = std::max(interval.low, below);
    if (n > 0 && sequences_[n - 1].epoch == interval.epoch &&
        sequences_[n - 1].high + 1 == interval.low) {
      sequences_[n - 1].high = interval.high;
    } else {
      sequences_[n++] = interval;
    }
  }
  sequences_.resize(n);
  return removed;
}

Epoch ClientLogStore::TailEpoch() const {
  if (sequences_.empty()) return 0;
  return sequences_.back().epoch;
}

}  // namespace dlog::server
