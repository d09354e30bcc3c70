#include "common/log_types.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <set>

namespace dlog {

std::string IntervalListToString(const IntervalList& list) {
  std::string out = "[";
  for (size_t i = 0; i < list.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "(<%llu,%llu> <%llu,%llu>)",
                  static_cast<unsigned long long>(list[i].low),
                  static_cast<unsigned long long>(list[i].epoch),
                  static_cast<unsigned long long>(list[i].high),
                  static_cast<unsigned long long>(list[i].epoch));
    if (i > 0) out += " ";
    out += buf;
  }
  out += "]";
  return out;
}

MergedLogView MergedLogView::Build(
    const std::vector<ServerInterval>& intervals) {
  MergedLogView view;
  if (intervals.empty()) return view;

  // Boundary sweep: between two consecutive boundaries the covering set of
  // intervals is constant, so the winning epoch and its holders are too.
  std::set<Lsn> boundaries;
  for (const ServerInterval& si : intervals) {
    assert(si.interval.low != kNoLsn && si.interval.low <= si.interval.high);
    boundaries.insert(si.interval.low);
    boundaries.insert(si.interval.high + 1);
  }

  std::vector<Lsn> bounds(boundaries.begin(), boundaries.end());
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const Lsn low = bounds[i];
    const Lsn high = bounds[i + 1] - 1;
    // Winning epoch over this elementary range.
    Epoch best = 0;
    bool covered = false;
    for (const ServerInterval& si : intervals) {
      if (si.interval.Contains(low)) {
        covered = true;
        best = std::max(best, si.interval.epoch);
      }
    }
    if (!covered) continue;
    Segment seg{low, high, best, {}};
    for (const ServerInterval& si : intervals) {
      if (si.interval.Contains(low) && si.interval.epoch == best) {
        seg.servers.push_back(si.server);
      }
    }
    std::sort(seg.servers.begin(), seg.servers.end());
    seg.servers.erase(std::unique(seg.servers.begin(), seg.servers.end()),
                      seg.servers.end());
    // Coalesce with the previous segment when nothing distinguishes them.
    if (!view.segments_.empty()) {
      Segment& prev = view.segments_.back();
      if (prev.high + 1 == seg.low && prev.epoch == seg.epoch &&
          prev.servers == seg.servers) {
        prev.high = seg.high;
        continue;
      }
    }
    view.segments_.push_back(std::move(seg));
  }
  return view;
}

std::optional<Lsn> MergedLogView::HighLsn() const {
  if (segments_.empty()) return std::nullopt;
  return segments_.back().high;
}

std::optional<Epoch> MergedLogView::HighEpoch() const {
  if (segments_.empty()) return std::nullopt;
  return segments_.back().epoch;
}

std::optional<Epoch> MergedLogView::MaxEpoch() const {
  if (segments_.empty()) return std::nullopt;
  Epoch best = 0;
  for (const Segment& s : segments_) best = std::max(best, s.epoch);
  return best;
}

const MergedLogView::Segment* MergedLogView::Find(Lsn lsn) const {
  // Binary search on segment lows.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), lsn,
      [](Lsn value, const Segment& s) { return value < s.low; });
  if (it == segments_.begin()) return nullptr;
  --it;
  if (lsn >= it->low && lsn <= it->high) return &*it;
  return nullptr;
}

void MergedLogView::NoteWrite(Lsn lsn, Epoch epoch,
                              std::span<const ServerId> servers) {
  // Holder lists are kept sorted and duplicate-free; normalize a copy
  // only when the caller's list is not already in that form.
  std::vector<ServerId> normalized;
  if (std::adjacent_find(servers.begin(), servers.end(),
                         std::greater_equal<ServerId>()) != servers.end()) {
    normalized.assign(servers.begin(), servers.end());
    std::sort(normalized.begin(), normalized.end());
    normalized.erase(std::unique(normalized.begin(), normalized.end()),
                     normalized.end());
    servers = normalized;
  }

  // Fast path: extending the tail of the log, the normal WriteLog case.
  if (segments_.empty() || lsn > segments_.back().high) {
    if (!segments_.empty()) {
      Segment& last = segments_.back();
      if (last.high + 1 == lsn && last.epoch == epoch &&
          std::equal(last.servers.begin(), last.servers.end(),
                     servers.begin(), servers.end())) {
        last.high = lsn;
        return;
      }
    }
    segments_.push_back(
        Segment{lsn, lsn, epoch, {servers.begin(), servers.end()}});
    return;
  }

  // General path (used by recovery's CopyLog): the LSN may fall inside
  // existing coverage, which must be split around it.
  const std::vector<ServerId> holders(servers.begin(), servers.end());
  std::vector<Segment> rebuilt;
  rebuilt.reserve(segments_.size() + 2);
  bool placed = false;
  for (const Segment& s : segments_) {
    if (lsn < s.low || lsn > s.high) {
      if (!placed && lsn < s.low) {
        rebuilt.push_back(Segment{lsn, lsn, epoch, holders});
        placed = true;
      }
      rebuilt.push_back(s);
      continue;
    }
    // Split s around lsn.
    if (s.low < lsn) {
      rebuilt.push_back(Segment{s.low, lsn - 1, s.epoch, s.servers});
    }
    if (s.epoch > epoch) {
      // Existing coverage wins; keep it and drop the note.
      rebuilt.push_back(Segment{lsn, lsn, s.epoch, s.servers});
    } else if (s.epoch == epoch) {
      Segment merged{lsn, lsn, epoch, s.servers};
      for (ServerId sv : holders) merged.servers.push_back(sv);
      std::sort(merged.servers.begin(), merged.servers.end());
      merged.servers.erase(
          std::unique(merged.servers.begin(), merged.servers.end()),
          merged.servers.end());
      rebuilt.push_back(std::move(merged));
    } else {
      rebuilt.push_back(Segment{lsn, lsn, epoch, holders});
    }
    placed = true;
    if (s.high > lsn) {
      rebuilt.push_back(Segment{lsn + 1, s.high, s.epoch, s.servers});
    }
  }
  if (!placed) {
    rebuilt.push_back(Segment{lsn, lsn, epoch, holders});
  }
  // Re-coalesce.
  segments_.clear();
  for (Segment& s : rebuilt) {
    if (!segments_.empty()) {
      Segment& prev = segments_.back();
      if (prev.high + 1 == s.low && prev.epoch == s.epoch &&
          prev.servers == s.servers) {
        prev.high = s.high;
        continue;
      }
    }
    segments_.push_back(std::move(s));
  }
}

void MergedLogView::TruncateBelow(Lsn below) {
  std::vector<Segment> retained;
  for (Segment& s : segments_) {
    if (s.high < below) continue;
    if (s.low < below) s.low = below;
    retained.push_back(std::move(s));
  }
  segments_ = std::move(retained);
}

}  // namespace dlog
