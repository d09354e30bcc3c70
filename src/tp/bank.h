#ifndef DLOG_TP_BANK_H_
#define DLOG_TP_BANK_H_

#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/status.h"
#include "tp/engine.h"

namespace dlog::tp {

/// Layout and workload parameters of the ET1 bank (the DebitCredit
/// precursor of [Anonymous et al 85] that the paper's capacity analysis
/// is built on: "Each ET1 transaction ... writes 700 bytes of log data in
/// seven log records").
struct BankConfig {
  int accounts = 10000;
  int tellers = 100;
  int branches = 10;
};

/// The ET1 bank database: fixed arrays of account/teller/branch balances
/// mapped onto pages, plus an append-style history region. Each ET1
/// transaction logs seven records: begin, four balance/history updates,
/// one padded audit update, and the (forced) commit.
class BankDb {
 public:
  BankDb(TransactionEngine* engine, const BankConfig& config);

  /// Runs one ET1 transaction asynchronously:
  ///   account += delta; teller += delta; branch += delta;
  ///   history row appended; audit record written; commit forced.
  void RunEt1(int account, int teller, int branch, int64_t delta,
              std::function<void(Status)> done);

  /// Like RunEt1 but aborts instead of committing (undo-path testing).
  Status RunEt1Abort(int account, int teller, int branch, int64_t delta);

  // Balance accessors (through the buffer pool, i.e., post-recovery these
  // reflect exactly the committed state).
  int64_t AccountBalance(int account);
  int64_t TellerBalance(int teller);
  int64_t BranchBalance(int branch);
  int64_t TotalAccounts();
  int64_t TotalTellers();
  int64_t TotalBranches();

  const BankConfig& config() const { return config_; }

 private:
  /// Executes the five updates of an ET1 transaction.
  Result<TxnId> Prepare(int account, int teller, int branch, int64_t delta);

  int64_t ReadSlot(PageId page, uint32_t offset);
  Status UpdateSlot(TxnId txn, PageId page, uint32_t offset, int64_t value);

  // Page layout.
  uint32_t SlotsPerPage() const;
  PageId AccountPage(int i) const;
  uint32_t AccountOffset(int i) const;
  PageId TellerPage(int i) const;
  uint32_t TellerOffset(int i) const;
  PageId BranchPage(int i) const;
  uint32_t BranchOffset(int i) const;

  TransactionEngine* engine_;
  BankConfig config_;
  PageId teller_base_ = 0;
  PageId branch_base_ = 0;
  PageId history_base_ = 0;
  uint64_t history_seq_ = 0;
  /// The audit record's padding bytes, logged by every transaction.
  Bytes audit_;
};

}  // namespace dlog::tp

#endif  // DLOG_TP_BANK_H_
