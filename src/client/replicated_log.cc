#include "client/replicated_log.h"

#include <algorithm>
#include <cassert>

namespace dlog::client {

ReplicatedLog::ReplicatedLog(ClientId client,
                             std::vector<LogServerStub*> servers,
                             epoch::ReplicatedIdGenerator* generator,
                             Options options)
    : client_(client),
      servers_(std::move(servers)),
      generator_(generator),
      options_(options) {
  assert(options_.copies >= 1);
  assert(static_cast<size_t>(options_.copies) <= servers_.size());
}

LogServerStub* ReplicatedLog::FindServer(ServerId id) const {
  for (LogServerStub* s : servers_) {
    if (s->id() == id) return s;
  }
  return nullptr;
}

Result<std::vector<LogServerStub*>> ReplicatedLog::ChooseWriteSet() {
  std::vector<LogServerStub*> chosen;
  // Sticky preference: "clients should attempt to perform consecutive
  // writes to the same servers" to keep interval lists short.
  for (ServerId id : write_set_) {
    LogServerStub* s = FindServer(id);
    if (s != nullptr && s->IsAvailable()) chosen.push_back(s);
    if (chosen.size() == static_cast<size_t>(options_.copies)) return chosen;
  }
  for (LogServerStub* s : servers_) {
    if (!s->IsAvailable()) continue;
    if (std::find(chosen.begin(), chosen.end(), s) != chosen.end()) continue;
    chosen.push_back(s);
    if (chosen.size() == static_cast<size_t>(options_.copies)) return chosen;
  }
  return Status::Unavailable("fewer than N servers available for WriteLog");
}

Status ReplicatedLog::WriteRecord(const LogRecord& record,
                                  const std::vector<LogServerStub*>& targets) {
  std::vector<ServerId> succeeded;
  for (LogServerStub* s : targets) {
    if (s->ServerWriteLog(client_, record).ok()) {
      succeeded.push_back(s->id());
    }
  }
  // Substitute for servers that failed mid-operation ("a client can
  // switch servers when necessary").
  if (succeeded.size() < static_cast<size_t>(options_.copies)) {
    for (LogServerStub* s : servers_) {
      if (succeeded.size() >= static_cast<size_t>(options_.copies)) break;
      if (std::find(succeeded.begin(), succeeded.end(), s->id()) !=
          succeeded.end()) {
        continue;
      }
      if (s->ServerWriteLog(client_, record).ok()) {
        succeeded.push_back(s->id());
      }
    }
  }
  if (!succeeded.empty()) {
    view_.NoteWrite(record.lsn, record.epoch, succeeded);
  }
  if (succeeded.size() < static_cast<size_t>(options_.copies)) {
    // The record is now partially written; the client cannot claim the
    // operation happened and must re-initialize before continuing, which
    // will make the partial write atomic.
    initialized_ = false;
    return Status::Unavailable("record written to fewer than N servers");
  }
  write_set_ = succeeded;
  return Status::OK();
}

Status ReplicatedLog::Init() {
  initialized_ = false;
  const int m = static_cast<int>(servers_.size());
  const int n = options_.copies;

  // Gather interval lists from at least M-N+1 servers: "This number
  // guarantees that a merged set of interval lists will contain at least
  // one server storing each log record."
  std::vector<ServerInterval> intervals;
  int responded = 0;
  for (LogServerStub* s : servers_) {
    Result<IntervalList> r = s->ServerIntervalList(client_);
    if (!r.ok()) continue;
    ++responded;
    for (const Interval& iv : *r) {
      intervals.push_back(ServerInterval{s->id(), iv});
    }
  }
  if (responded < m - n + 1) {
    return Status::Unavailable(
        "fewer than M-N+1 servers responded to IntervalList");
  }
  view_ = MergedLogView::Build(intervals);

  // "It must also obtain a new epoch number ... higher than any other
  // epoch number used during the previous operation of this client."
  DLOG_ASSIGN_OR_RETURN(epoch_, generator_->NewId());
  if (view_.MaxEpoch().has_value() && epoch_ <= *view_.MaxEpoch()) {
    return Status::Internal(
        "generator issued an epoch not above the log's epochs");
  }

  const std::optional<Lsn> high = view_.HighLsn();
  if (!high.has_value()) {
    // Empty log: nothing can be partially written.
    next_lsn_ = 1;
    initialized_ = true;
    return Status::OK();
  }

  // "Since there is doubt concerning only the log record with the highest
  // LSN, it is copied from a log server storing it ... to N log servers
  // ... with the client node's new epoch number."
  const MergedLogView::Segment* seg = view_.Find(*high);
  assert(seg != nullptr);
  Result<LogRecord> tail = Status::Unavailable("no holder reachable");
  for (ServerId id : seg->servers) {
    LogServerStub* s = FindServer(id);
    if (s == nullptr) continue;
    tail = s->ServerReadLog(client_, *high);
    if (tail.ok()) break;
  }
  if (!tail.ok()) return tail.status();

  DLOG_ASSIGN_OR_RETURN(std::vector<LogServerStub*> targets,
                        ChooseWriteSet());

  LogRecord copy = *tail;
  copy.epoch = epoch_;
  DLOG_RETURN_IF_ERROR(WriteRecord(copy, targets));

  // "Finally, a log record marked as not present is written to N log
  // servers with an LSN one higher than that of the copied record."
  LogRecord not_present;
  not_present.lsn = *high + 1;
  not_present.epoch = epoch_;
  not_present.present = false;
  DLOG_RETURN_IF_ERROR(WriteRecord(not_present, targets));

  next_lsn_ = *high + 2;
  initialized_ = true;
  return Status::OK();
}

Result<Lsn> ReplicatedLog::WriteLog(const Bytes& data) {
  if (!initialized_) {
    return Status::FailedPrecondition("replicated log not initialized");
  }
  DLOG_ASSIGN_OR_RETURN(std::vector<LogServerStub*> targets,
                        ChooseWriteSet());
  LogRecord record;
  record.lsn = next_lsn_;
  record.epoch = epoch_;
  record.present = true;
  record.data = data;
  DLOG_RETURN_IF_ERROR(WriteRecord(record, targets));
  return next_lsn_++;
}

Status ReplicatedLog::WriteLogCrashAfter(const Bytes& data,
                                         int server_writes) {
  if (!initialized_) {
    return Status::FailedPrecondition("replicated log not initialized");
  }
  Result<std::vector<LogServerStub*>> targets = ChooseWriteSet();
  if (targets.ok()) {
    LogRecord record;
    record.lsn = next_lsn_;
    record.epoch = epoch_;
    record.present = true;
    record.data = data;
    int written = 0;
    for (LogServerStub* s : *targets) {
      if (written >= server_writes) break;
      if (s->ServerWriteLog(client_, record).ok()) ++written;
    }
  }
  initialized_ = false;  // the client is gone
  return Status::Aborted("crash injected during WriteLog");
}

Result<Bytes> ReplicatedLog::ReadLog(Lsn lsn) {
  if (!initialized_) {
    return Status::FailedPrecondition("replicated log not initialized");
  }
  if (lsn == kNoLsn) return Status::InvalidArgument("LSN 0 is reserved");
  const std::optional<Lsn> high = view_.HighLsn();
  if (!high.has_value() || lsn > *high) {
    // "If the requested record is beyond the end of the log ... an
    // exception is signaled."
    return Status::OutOfRange("beyond end of log");
  }
  const MergedLogView::Segment* seg = view_.Find(lsn);
  if (seg == nullptr) {
    return Status::Internal("merged view has an interior hole");
  }
  for (ServerId id : seg->servers) {
    LogServerStub* s = FindServer(id);
    if (s == nullptr) continue;
    Result<LogRecord> r = s->ServerReadLog(client_, lsn);
    if (!r.ok()) continue;
    if (!r->present) {
      // "If the log record returned ... is marked not present, an
      // exception is signaled."
      return Status::NotFound("record marked not present");
    }
    return r->data.ToBytes();
  }
  return Status::Unavailable("no server holding the record is reachable");
}

Result<Lsn> ReplicatedLog::EndOfLog() const {
  if (!initialized_) {
    return Status::FailedPrecondition("replicated log not initialized");
  }
  return view_.HighLsn().value_or(kNoLsn);
}

}  // namespace dlog::client
