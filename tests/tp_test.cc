#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"
#include "tp/storage.h"
#include "tp/wal.h"

namespace dlog::tp {
namespace {

TEST(WalTest, RecordRoundTrip) {
  WalRecord rec;
  rec.type = WalType::kUpdate;
  rec.txn = 42;
  rec.page = 7;
  rec.offset = 128;
  rec.update_lsn = 9;
  rec.redo = ToBytes("new");
  rec.undo = ToBytes("old");
  const Bytes encoded = EncodeWalRecord(rec);
  Result<WalView> decoded = DecodeWalRecord(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, rec.type);
  EXPECT_EQ(decoded->txn, rec.txn);
  EXPECT_EQ(decoded->page, rec.page);
  EXPECT_EQ(decoded->offset, rec.offset);
  EXPECT_EQ(decoded->update_lsn, rec.update_lsn);
  EXPECT_EQ(Bytes(decoded->redo.begin(), decoded->redo.end()), rec.redo);
  EXPECT_EQ(Bytes(decoded->undo.begin(), decoded->undo.end()), rec.undo);
  // The images are read in place.
  EXPECT_GE(decoded->redo.data(), encoded.data());
  EXPECT_LE(decoded->undo.data() + decoded->undo.size(),
            encoded.data() + encoded.size());
}

TEST(WalTest, GarbageRejected) {
  EXPECT_FALSE(DecodeWalRecord(ToBytes("")).ok());
  EXPECT_FALSE(DecodeWalRecord(ToBytes("\x63junk")).ok());
}

/// One encoded record of each WalType, each with images, so that every
/// field and both blob lengths are there to mutate.
std::vector<Bytes> EveryWalType() {
  std::vector<Bytes> records;
  for (uint8_t t = static_cast<uint8_t>(WalType::kBegin);
       t <= static_cast<uint8_t>(WalType::kCheckpoint); ++t) {
    WalRecord rec;
    rec.type = static_cast<WalType>(t);
    rec.txn = 0x0102030405060708 + t;
    rec.page = 3;
    rec.offset = 16;
    rec.update_lsn = 9;
    rec.redo = Bytes(t % 3 == 0 ? 0 : 5u * t, static_cast<uint8_t>(t));
    rec.undo = Bytes(t % 2 == 0 ? 0 : 3u * t, 0xA0);
    records.push_back(EncodeWalRecord(rec));
  }
  return records;
}

/// Decodes `bytes` from a heap buffer of exactly their size, so a read
/// past the end is a heap overflow that ASan reports: the decode must be
/// Corruption, or hold spans inside the buffer that re-encode to it.
void ExpectCorruptionOrSpansInside(const Bytes& bytes) {
  const Bytes input(bytes.begin(), bytes.end());
  const Result<WalView> decoded = DecodeWalRecord(input);
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
    return;
  }
  const uint8_t* begin = input.data();
  const uint8_t* end = input.data() + input.size();
  for (const std::span<const uint8_t> image : {decoded->redo, decoded->undo}) {
    ASSERT_TRUE(image.empty() ||
                (image.data() >= begin && image.data() + image.size() <= end));
  }
  EXPECT_EQ(EncodeWalRecord(decoded->type, decoded->txn, decoded->page,
                            decoded->offset, decoded->update_lsn,
                            decoded->redo, decoded->undo),
            input);
}

TEST(WalTest, HostileBytesGiveCorruptionOrSpansInsideTheInput) {
  // The blob lengths follow type(1), txn(8), page(4), offset(4) and
  // update_lsn(8).
  constexpr size_t kRedoLengthAt = 25;
  for (const Bytes& record : EveryWalType()) {
    ASSERT_TRUE(DecodeWalRecord(record).ok());
    const size_t redo = LoadLE(record.data() + kRedoLengthAt, 4);
    const size_t undo_length_at = kRedoLengthAt + 4 + redo;
    // Every single-bit flip.
    for (size_t i = 0; i < record.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = record;
        flipped[i] ^= static_cast<uint8_t>(1u << bit);
        ExpectCorruptionOrSpansInside(flipped);
      }
    }
    // Truncation at every length.
    for (size_t n = 0; n < record.size(); ++n) {
      const Bytes truncated(record.begin(), record.begin() + n);
      EXPECT_TRUE(DecodeWalRecord(truncated).status().IsCorruption()) << n;
      ExpectCorruptionOrSpansInside(truncated);
    }
    // Each blob length inflated past what follows it, or deflated.
    for (const size_t at : {kRedoLengthAt, undo_length_at}) {
      const uint64_t length = LoadLE(record.data() + at, 4);
      for (const uint64_t lie :
           {length + 1, length + 2, uint64_t{record.size() - at},
            uint64_t{record.size()}, uint64_t{0x7FFFFFFF},
            uint64_t{0x80000000}, uint64_t{0xFFFFFFFF}}) {
        Bytes lying = record;
        StoreLE(lying.data() + at, lie, 4);
        EXPECT_TRUE(DecodeWalRecord(lying).status().IsCorruption())
            << "length at " << at << " = " << lie;
        ExpectCorruptionOrSpansInside(lying);
      }
      if (length > 0) {
        Bytes short_length = record;
        StoreLE(short_length.data() + at, length - 1, 4);
        ExpectCorruptionOrSpansInside(short_length);
      }
    }
    // Trailing bytes.
    for (size_t extra = 1; extra <= 8; ++extra) {
      Bytes trailing = record;
      trailing.insert(trailing.end(), extra, 0);
      EXPECT_TRUE(DecodeWalRecord(trailing).status().IsCorruption()) << extra;
      ExpectCorruptionOrSpansInside(trailing);
    }
  }
}

TEST(PageDiskTest, UnwrittenPagesReadZero) {
  PageDisk disk(256);
  Page page = disk.Read(5);
  EXPECT_EQ(page.lsn, kNoLsn);
  EXPECT_EQ(page.data.size(), 256u);
  for (uint8_t b : page.data) EXPECT_EQ(b, 0);
}

TEST(BufferPoolTest, UpdateCleanCycle) {
  PageDisk disk(64);
  BufferPool pool(&disk);
  pool.ApplyUpdate(3, 8, ToBytes("abc"), 11);
  EXPECT_TRUE(pool.IsDirty(3));
  EXPECT_FALSE(disk.Exists(3));
  pool.Clean(3);
  EXPECT_FALSE(pool.IsDirty(3));
  EXPECT_EQ(disk.Read(3).lsn, 11u);
  EXPECT_EQ(disk.Read(3).data[8], 'a');
}

TEST(BufferPoolTest, LoseAllDropsDirtyData) {
  PageDisk disk(64);
  BufferPool pool(&disk);
  pool.ApplyUpdate(1, 0, ToBytes("xyz"), 5);
  pool.LoseAll();
  EXPECT_EQ(pool.Get(1).data[0], 0);  // re-read from (empty) disk
}

TEST(BufferPoolTest, UpdateBeyondPageIsRefusedAndTouchesNothing) {
  PageDisk disk(64);
  BufferPool pool(&disk);
  EXPECT_TRUE(pool.ApplyUpdate(2, 60, Bytes(200, 0xEE), 7).IsOutOfRange());
  EXPECT_TRUE(pool.ApplyUpdate(2, 65, Bytes(), 7).IsOutOfRange());
  EXPECT_FALSE(pool.IsDirty(2));
  EXPECT_EQ(pool.Get(2).lsn, kNoLsn);
  EXPECT_TRUE(pool.ApplyUpdate(2, 60, Bytes(4, 0xEE), 7).ok());  // fits
  EXPECT_EQ(pool.Get(2).data[63], 0xEE);
}

TEST(BufferPoolTest, DirtyPagesAreListedByAscendingId) {
  PageDisk disk(64);
  BufferPool pool(&disk);
  pool.ApplyUpdate(9, 0, ToBytes("a"), 1);
  pool.ApplyUpdate(2, 0, ToBytes("b"), 2);
  pool.Get(5);  // cached, clean
  pool.ApplyUpdate(7, 0, ToBytes("c"), 3);
  pool.Clean(7);
  pool.ApplyUpdate(9, 1, ToBytes("d"), 4);  // already dirty
  EXPECT_EQ(pool.dirty_pages(), (std::vector<PageId>{2, 9}));
  EXPECT_EQ(pool.Get(9).data[1], 'd');
  EXPECT_EQ(pool.Get(9).lsn, 4u);
}

struct EngineFixture {
  EngineFixture(bool split = false, size_t page_bytes = 1024)
      : logger(&sim), disk(page_bytes) {
    EngineConfig cfg;
    cfg.page_bytes = page_bytes;
    cfg.split_records = split;
    engine = std::make_unique<TransactionEngine>(&sim, &logger, &disk, cfg);
  }

  /// Runs one committed single-update transaction.
  Status CommitUpdate(PageId page, uint32_t offset, std::string_view data) {
    Result<TxnId> txn = engine->Begin();
    if (!txn.ok()) return txn.status();
    Status st = engine->Update(*txn, page, offset, ToBytes(data));
    if (!st.ok()) return st;
    Status result = Status::Internal("pending");
    engine->Commit(*txn, [&](Status s) { result = s; });
    sim.Run();
    return result;
  }

  sim::Simulator sim;
  InMemoryTxnLogger logger;
  PageDisk disk;
  std::unique_ptr<TransactionEngine> engine;
};

TEST(EngineTest, CommitAppliesAndForces) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "hello").ok());
  EXPECT_EQ(f.engine->buffer_pool().Get(0).data[0], 'h');
  EXPECT_EQ(f.logger.forced_high(), f.logger.End());
  EXPECT_EQ(f.engine->commits().value(), 1u);
  EXPECT_EQ(f.engine->active_transactions(), 0u);
}

TEST(EngineTest, AbortRestoresOldImage) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "aaaa").ok());
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("bbbb")).ok());
  EXPECT_EQ(f.engine->buffer_pool().Get(0).data[0], 'b');
  ASSERT_TRUE(f.engine->Abort(*txn).ok());
  EXPECT_EQ(f.engine->buffer_pool().Get(0).data[0], 'a');
  EXPECT_EQ(f.engine->aborts().value(), 1u);
}

TEST(EngineTest, RecoveryRedoesCommittedWork) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(2, 16, "durable!").ok());
  // Crash before any page was cleaned.
  f.engine->Crash();
  f.logger.Crash();

  EngineConfig cfg;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(recovered.buffer_pool().Get(2).data[16], 'd');
}

TEST(EngineTest, RecoveryUndoesUnfinishedWork) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "base").ok());
  // An unfinished transaction whose page got cleaned (so the disk image
  // contains uncommitted data).
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("evil")).ok());
  bool cleaned = false;
  f.engine->CleanPages([&](Status s) {
    ASSERT_TRUE(s.ok());
    cleaned = true;
  });
  f.sim.Run();
  ASSERT_TRUE(cleaned);
  ASSERT_EQ(f.disk.Read(0).data[0], 'e');  // uncommitted data on disk

  f.engine->Crash();
  f.logger.Crash();
  EngineConfig cfg;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(recovered.buffer_pool().Get(0).data[0], 'b');  // undone
}

TEST(EngineTest, RecoveryReplaysAbortCompensation) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "good").ok());
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("bad!")).ok());
  ASSERT_TRUE(f.engine->Abort(*txn).ok());
  // Force everything so the abort trail is durable.
  bool cleaned = false;
  f.engine->CleanPages([&](Status) { cleaned = true; });
  f.sim.Run();
  ASSERT_TRUE(cleaned);

  f.engine->Crash();
  f.logger.Crash();
  EngineConfig cfg;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(recovered.buffer_pool().Get(0).data[0], 'g');
}

TEST(EngineTest, SplitRecordsLogLessVolume) {
  EngineFixture plain(/*split=*/false);
  EngineFixture split(/*split=*/true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(plain.CommitUpdate(0, 0, std::string(200, 'p')).ok());
    ASSERT_TRUE(split.CommitUpdate(0, 0, std::string(200, 's')).ok());
  }
  // Splitting avoids logging the undo images of committed transactions.
  EXPECT_LT(split.engine->log_bytes(), plain.engine->log_bytes());
  EXPECT_GT(split.engine->undo_bytes_cached(), 0u);
  EXPECT_EQ(split.engine->undo_bytes_logged(), 0u);  // nothing cleaned
}

TEST(EngineTest, SplitUndoFlushedWhenPageCleanedMidTransaction) {
  EngineFixture f(/*split=*/true);
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("uncommitted")).ok());
  bool cleaned = false;
  f.engine->CleanPages([&](Status s) {
    ASSERT_TRUE(s.ok());
    cleaned = true;
  });
  f.sim.Run();
  ASSERT_TRUE(cleaned);
  EXPECT_GT(f.engine->undo_bytes_logged(), 0u);

  // Crash: recovery must undo using the logged undo component.
  f.engine->Crash();
  f.logger.Crash();
  EngineConfig cfg;
  cfg.split_records = true;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(recovered.buffer_pool().Get(0).data[0], 0);  // back to zero
}

TEST(EngineTest, UnforcedCommittedSuffixVanishesAtomically) {
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "kept").ok());
  // A transaction whose commit record was appended but never forced (we
  // bypass Commit to simulate the crash racing the force).
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("gone")).ok());
  f.engine->Crash();
  f.logger.Crash();  // drops everything after the last force

  EngineConfig cfg;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(recovered.buffer_pool().Get(0).data[0], 'k');
}

/// Appends `records` to `logger` as one forced log.
void LogRecords(InMemoryTxnLogger* logger,
                const std::vector<WalRecord>& records) {
  for (const WalRecord& rec : records) {
    ASSERT_TRUE(logger->Append(EncodeWalRecord(rec)).ok());
  }
  logger->Force(logger->End(), [](Status) {});
}

WalRecord Outcome(WalType type, TxnId txn) {
  WalRecord rec;
  rec.type = type;
  rec.txn = txn;
  return rec;
}

TEST(EngineTest, RecoveryRejectsAnUpdateThatOverrunsItsPage) {
  // A committed update whose 200-byte redo starts 4 bytes before the end
  // of a 64-byte page: replaying it would write past the page.
  sim::Simulator sim;
  InMemoryTxnLogger logger(&sim);
  PageDisk disk(64);
  WalRecord update = Outcome(WalType::kUpdate, 1);
  update.offset = 60;
  update.redo = Bytes(200, 0xEE);
  LogRecords(&logger, {update, Outcome(WalType::kCommit, 1)});

  EngineConfig cfg;
  cfg.page_bytes = 64;
  TransactionEngine engine(&sim, &logger, &disk, cfg);
  Status st = Status::Internal("pending");
  engine.Recover([&](Status s) { st = s; });
  sim.Run();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_TRUE(engine.buffer_pool().dirty_pages().empty());
  EXPECT_EQ(disk.page_count(), 0u);
}

TEST(EngineTest, RecoveryRejectsARecordThatDoesNotDecode) {
  // A junk payload between a committed update and its commit. Skipping
  // it would replay a log with a record missing, and had the missing
  // record been the commit, would undo committed work and report OK.
  sim::Simulator sim;
  InMemoryTxnLogger logger(&sim);
  PageDisk disk(64);
  WalRecord update = Outcome(WalType::kUpdate, 1);
  update.redo = ToBytes("redo");
  update.undo = Bytes(4, 0);
  LogRecords(&logger, {Outcome(WalType::kBegin, 1), update});
  ASSERT_TRUE(logger.Append(ToBytes("\x63junk")).ok());
  LogRecords(&logger, {Outcome(WalType::kCommit, 1)});

  EngineConfig cfg;
  cfg.page_bytes = 64;
  TransactionEngine engine(&sim, &logger, &disk, cfg);
  Status st = Status::Internal("pending");
  engine.Recover([&](Status s) { st = s; });
  sim.Run();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_TRUE(engine.buffer_pool().dirty_pages().empty());
  EXPECT_EQ(disk.page_count(), 0u);
}

TEST(EngineTest, RecoveryRejectsALoggedUndoThatOverrunsItsUpdatesPage) {
  // An unfinished split update at offset 60 whose page reached the disk,
  // and a logged undo component that fits at its own offset 0 but not at
  // its update's.
  sim::Simulator sim;
  InMemoryTxnLogger logger(&sim);
  PageDisk disk(64);
  Page cleaned;
  cleaned.lsn = 2;
  cleaned.data.assign(64, 0xEE);
  disk.Write(0, cleaned);
  WalRecord update = Outcome(WalType::kUpdate, 1);
  update.offset = 60;
  update.redo = Bytes(4, 0xEE);
  WalRecord undo = Outcome(WalType::kUndo, 1);
  undo.update_lsn = 2;
  undo.undo = Bytes(60, 0);
  LogRecords(&logger, {Outcome(WalType::kBegin, 1), update, undo});

  EngineConfig cfg;
  cfg.page_bytes = 64;
  cfg.split_records = true;
  TransactionEngine engine(&sim, &logger, &disk, cfg);
  Status st = Status::Internal("pending");
  engine.Recover([&](Status s) { st = s; });
  sim.Run();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(EngineTest, ConcurrentTransactionsKeepTheirOwnUndoImages) {
  // Two open transactions interleave updates; aborting one restores only
  // its own old images, from its own slice of the reused undo buffer.
  EngineFixture f;
  ASSERT_TRUE(f.CommitUpdate(0, 0, "base").ok());
  Result<TxnId> a = f.engine->Begin();
  Result<TxnId> b = f.engine->Begin();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(f.engine->Update(*a, 0, 0, ToBytes("AA")).ok());
  ASSERT_TRUE(f.engine->Update(*b, 0, 2, ToBytes("BB")).ok());
  ASSERT_TRUE(f.engine->Update(*a, 1, 0, ToBytes("aaa")).ok());
  EXPECT_EQ(f.engine->active_transactions(), 2u);
  ASSERT_TRUE(f.engine->Abort(*a).ok());
  EXPECT_EQ(f.engine->active_transactions(), 1u);
  const Bytes& page0 = f.engine->buffer_pool().Get(0).data;
  EXPECT_EQ(std::string(page0.begin(), page0.begin() + 4), "baBB");
  EXPECT_EQ(f.engine->buffer_pool().Get(1).data[0], 0);
  Status committed = Status::Internal("pending");
  f.engine->Commit(*b, [&](Status s) { committed = s; });
  f.sim.Run();
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(f.engine->active_transactions(), 0u);
  // A later transaction reuses the finished ones' buffers.
  ASSERT_TRUE(f.CommitUpdate(0, 0, "next").ok());
  EXPECT_EQ(f.engine->buffer_pool().Get(0).data[0], 'n');
}

// --- BankDb ---

struct BankFixture {
  explicit BankFixture(BankConfig bank_cfg = {}) : logger(&sim), disk(1024) {
    EngineConfig cfg;
    engine = std::make_unique<TransactionEngine>(&sim, &logger, &disk, cfg);
    bank = std::make_unique<BankDb>(engine.get(), bank_cfg);
  }

  Status Run(int account, int teller, int branch, int64_t delta) {
    Status result = Status::Internal("pending");
    bank->RunEt1(account, teller, branch, delta,
                 [&](Status s) { result = s; });
    sim.Run();
    return result;
  }

  sim::Simulator sim;
  InMemoryTxnLogger logger;
  PageDisk disk;
  std::unique_ptr<TransactionEngine> engine;
  std::unique_ptr<BankDb> bank;
};

TEST(BankTest, Et1UpdatesAllThreeBalances) {
  BankFixture f;
  ASSERT_TRUE(f.Run(5, 2, 1, 100).ok());
  EXPECT_EQ(f.bank->AccountBalance(5), 100);
  EXPECT_EQ(f.bank->TellerBalance(2), 100);
  EXPECT_EQ(f.bank->BranchBalance(1), 100);
  ASSERT_TRUE(f.Run(5, 2, 1, -30).ok());
  EXPECT_EQ(f.bank->AccountBalance(5), 70);
}

TEST(BankTest, Et1LogsSevenRecordsAbout700Bytes) {
  BankFixture f;
  const uint64_t records_before = f.engine->log_records();
  const uint64_t bytes_before = f.engine->log_bytes();
  ASSERT_TRUE(f.Run(1, 1, 1, 10).ok());
  EXPECT_EQ(f.engine->log_records() - records_before, 7u);
  const uint64_t bytes = f.engine->log_bytes() - bytes_before;
  EXPECT_GE(bytes, 600u);
  EXPECT_LE(bytes, 800u);
}

TEST(BankTest, AbortLeavesBalancesUntouched) {
  BankFixture f;
  ASSERT_TRUE(f.Run(3, 1, 0, 50).ok());
  ASSERT_TRUE(f.bank->RunEt1Abort(3, 1, 0, 999).ok());
  EXPECT_EQ(f.bank->AccountBalance(3), 50);
  EXPECT_EQ(f.bank->TellerBalance(1), 50);
  EXPECT_EQ(f.bank->BranchBalance(0), 50);
}

TEST(BankTest, InvariantHoldsAcrossCrashRecovery) {
  BankFixture f;
  BankConfig bank_cfg = f.bank->config();
  int64_t committed_total = 0;
  for (int i = 0; i < 30; ++i) {
    const int64_t delta = (i % 7) - 3;
    Status st = f.Run(i % bank_cfg.accounts, i % bank_cfg.tellers,
                      i % bank_cfg.branches, delta);
    ASSERT_TRUE(st.ok());
    committed_total += delta;
  }
  // Mid-flight transaction at crash time.
  Result<TxnId> txn = f.engine->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(f.engine->Update(*txn, 0, 0, ToBytes("torn")).ok());

  f.engine->Crash();
  f.logger.Crash();

  EngineConfig cfg;
  TransactionEngine recovered(&f.sim, &f.logger, &f.disk, cfg);
  Status st = Status::Internal("pending");
  recovered.Recover([&](Status s) { st = s; });
  f.sim.Run();
  ASSERT_TRUE(st.ok());

  BankDb bank_after(&recovered, bank_cfg);
  EXPECT_EQ(bank_after.TotalAccounts(), committed_total);
  EXPECT_EQ(bank_after.TotalTellers(), committed_total);
  EXPECT_EQ(bank_after.TotalBranches(), committed_total);
}

}  // namespace
}  // namespace dlog::tp
