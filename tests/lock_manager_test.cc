#include "cc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "storage/table.h"

namespace next700 {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() {
    Schema s;
    s.AddUint64("v");
    table_ = std::make_unique<Table>(0, "t", std::move(s), 1);
    row_a_ = table_->AllocateRow(0);
    row_b_ = table_->AllocateRow(0);
  }

  std::unique_ptr<TxnContext> MakeTxn(int thread_id, uint64_t id,
                                      Timestamp ts) {
    auto txn = std::make_unique<TxnContext>(thread_id);
    txn->set_txn_id(id);
    txn->set_ts(ts);
    return txn;
  }

  /// Snapshot of a row's lock list, head first.
  static std::vector<LockEntry*> Entries(Row* row) {
    std::vector<LockEntry*> out;
    RowLatchGuard guard(row);
    for (LockEntry* e = row->lock_list; e != nullptr; e = e->next) {
      out.push_back(e);
    }
    return out;
  }

  static void WaitForEntries(Row* row, size_t n) {
    while (Entries(row).size() != n) std::this_thread::yield();
  }

  std::unique_ptr<Table> table_;
  Row* row_a_;
  Row* row_b_;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kShared).ok());
  lm.ReleaseAll(t1.get());
  lm.ReleaseAll(t2.get());
}

TEST_F(LockManagerTest, ExclusiveConflictAbortsUnderNoWait) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kShared).IsAborted());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kExclusive).IsAborted());
  lm.ReleaseAll(t1.get());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kExclusive).ok());
  lm.ReleaseAll(t2.get());
}

TEST_F(LockManagerTest, ReacquireIsIdempotent) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).ok());  // Upgrade.
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_EQ(t1->held_locks().size(), 1u);
  lm.ReleaseAll(t1.get());
}

TEST_F(LockManagerTest, UpgradeConflictAbortsUnderNoWait) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).IsAborted());
  lm.ReleaseAll(t1.get());
  lm.ReleaseAll(t2.get());
}

TEST_F(LockManagerTest, WaitDieYoungerRequesterDies) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  auto older = MakeTxn(0, 1, /*ts=*/10);
  auto younger = MakeTxn(1, 2, /*ts=*/20);
  EXPECT_TRUE(lm.Acquire(older.get(), row_a_, LockMode::kExclusive).ok());
  // Younger requester conflicts with an older holder: dies immediately.
  EXPECT_TRUE(lm.Acquire(younger.get(), row_a_, LockMode::kExclusive).IsAborted());
  lm.ReleaseAll(older.get());
}

TEST_F(LockManagerTest, WaitDieOlderRequesterWaits) {
  LockManager lm(DeadlockPolicy::kWaitDie);
  auto older = MakeTxn(0, 1, /*ts=*/10);
  auto younger = MakeTxn(1, 2, /*ts=*/20);
  EXPECT_TRUE(lm.Acquire(younger.get(), row_a_, LockMode::kExclusive).ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(older.get(), row_a_, LockMode::kExclusive).ok());
    acquired.store(true);
  });
  // Give the waiter time to block; it must not finish while younger holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(younger.get());
  waiter.join();
  EXPECT_TRUE(acquired.load());
  lm.ReleaseAll(older.get());
}

TEST_F(LockManagerTest, DlDetectResolvesTwoTxnDeadlock) {
  LockManager lm(DeadlockPolicy::kDlDetect);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  ASSERT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(t2.get(), row_b_, LockMode::kExclusive).ok());

  std::atomic<int> aborted{0};
  std::atomic<int> succeeded{0};
  auto cross = [&](TxnContext* txn, Row* row) {
    const Status s = lm.Acquire(txn, row, LockMode::kExclusive);
    if (s.IsAborted()) {
      ++aborted;
      lm.ReleaseAll(txn);  // Break the cycle.
    } else {
      ++succeeded;
    }
  };
  std::thread a(cross, t1.get(), row_b_);
  std::thread b(cross, t2.get(), row_a_);
  a.join();
  b.join();
  // Exactly one side of the cycle must have been killed.
  EXPECT_EQ(aborted.load(), 1);
  EXPECT_EQ(succeeded.load(), 1);
  lm.ReleaseAll(t1.get());
  lm.ReleaseAll(t2.get());
}

TEST_F(LockManagerTest, ReleaseWakesSharedGroup) {
  LockManager lm(DeadlockPolicy::kDlDetect);
  auto writer = MakeTxn(0, 1, 1);
  ASSERT_TRUE(lm.Acquire(writer.get(), row_a_, LockMode::kExclusive).ok());

  constexpr int kReaders = 3;
  std::atomic<int> read_ok{0};
  std::vector<std::thread> readers;
  std::vector<std::unique_ptr<TxnContext>> txns;
  for (int i = 0; i < kReaders; ++i) {
    txns.push_back(std::make_unique<TxnContext>(i + 1));
    txns.back()->set_txn_id(static_cast<uint64_t>(i) + 10);
    txns.back()->set_ts(static_cast<Timestamp>(i) + 10);
  }
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      if (lm.Acquire(txns[i].get(), row_a_, LockMode::kShared).ok()) {
        ++read_ok;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lm.ReleaseAll(writer.get());
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_ok.load(), kReaders);
  for (auto& txn : txns) lm.ReleaseAll(txn.get());
}

TEST_F(LockManagerTest, HeldLocksListMatchesAcquisitions) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(t1.get(), row_b_, LockMode::kExclusive).ok());
  EXPECT_EQ(t1->held_locks().size(), 2u);
  lm.ReleaseAll(t1.get());
  EXPECT_TRUE(t1->held_locks().empty());
  // Everything is free again.
  auto t2 = MakeTxn(1, 2, 2);
  EXPECT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(t2.get(), row_b_, LockMode::kExclusive).ok());
  lm.ReleaseAll(t2.get());
}

TEST_F(LockManagerTest, UpgradeWaiterIsGrantedBeforeEarlierExclusiveWaiter) {
  // DL_DETECT always queues; there is no cycle here, so nobody is killed.
  LockManager lm(DeadlockPolicy::kDlDetect);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  auto t3 = MakeTxn(2, 3, 3);
  ASSERT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kShared).ok());

  std::atomic<bool> t3_granted{false};
  std::thread writer([&] {
    EXPECT_TRUE(lm.Acquire(t3.get(), row_a_, LockMode::kExclusive).ok());
    t3_granted.store(true);
  });
  WaitForEntries(row_a_, 3);  // S(t1), S(t2), X waiter (t3).

  std::atomic<bool> t1_upgraded{false};
  std::thread upgrader([&] {
    EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).ok());
    t1_upgraded.store(true);
  });
  WaitForEntries(row_a_, 4);
  // The upgrade request queues ahead of the X waiter that came first.
  const std::vector<LockEntry*> queued = Entries(row_a_);
  EXPECT_EQ(queued[2]->txn_id, 1u);
  EXPECT_TRUE(queued[2]->is_upgrade);
  EXPECT_EQ(queued[3]->txn_id, 3u);

  lm.ReleaseAll(t2.get());
  upgrader.join();
  EXPECT_TRUE(t1_upgraded.load());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(t3_granted.load());
  // The upgrade folded into t1's granted entry; t3 still waits behind it.
  const std::vector<LockEntry*> after = Entries(row_a_);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0]->txn_id, 1u);
  EXPECT_EQ(after[0]->mode, LockMode::kExclusive);
  EXPECT_FALSE(after[1]->granted());

  lm.ReleaseAll(t1.get());
  writer.join();
  EXPECT_TRUE(t3_granted.load());
  lm.ReleaseAll(t3.get());
  EXPECT_TRUE(Entries(row_a_).empty());
}

TEST_F(LockManagerTest, ReleaseLeavesNoEntryBehind) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  auto t3 = MakeTxn(2, 3, 3);
  ASSERT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(t2.get(), row_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(t1.get(), row_b_, LockMode::kExclusive).ok());
  // Refused requests link nothing.
  EXPECT_TRUE(lm.Acquire(t3.get(), row_a_, LockMode::kExclusive).IsAborted());
  EXPECT_TRUE(lm.Acquire(t3.get(), row_b_, LockMode::kShared).IsAborted());
  EXPECT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).IsAborted());
  EXPECT_EQ(Entries(row_a_).size(), 2u);
  EXPECT_EQ(Entries(row_b_).size(), 1u);
  lm.ReleaseAll(t1.get());
  lm.ReleaseAll(t2.get());
  lm.ReleaseAll(t3.get());
  RowLatchGuard guard_a(row_a_);
  EXPECT_EQ(row_a_->lock_list, nullptr);
  RowLatchGuard guard_b(row_b_);
  EXPECT_EQ(row_b_->lock_list, nullptr);
}

TEST_F(LockManagerTest, AbandonedWaitLeavesNoEntryBehind) {
  // The deadlock victim unlinks its waiter; the survivor then releases.
  LockManager lm(DeadlockPolicy::kDlDetect);
  auto t1 = MakeTxn(0, 1, 1);
  auto t2 = MakeTxn(1, 2, 2);
  ASSERT_TRUE(lm.Acquire(t1.get(), row_a_, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(t2.get(), row_b_, LockMode::kExclusive).ok());
  auto cross = [&](TxnContext* txn, Row* row) {
    if (lm.Acquire(txn, row, LockMode::kExclusive).IsAborted()) {
      lm.ReleaseAll(txn);
    }
  };
  std::thread a(cross, t1.get(), row_b_);
  std::thread b(cross, t2.get(), row_a_);
  a.join();
  b.join();
  lm.ReleaseAll(t1.get());
  lm.ReleaseAll(t2.get());
  EXPECT_TRUE(Entries(row_a_).empty());
  EXPECT_TRUE(Entries(row_b_).empty());
}

TEST_F(LockManagerTest, WoundWaitWoundsYoungerQueuedWaiter) {
  LockManager lm(DeadlockPolicy::kWoundWait);
  auto oldest = MakeTxn(0, 1, /*ts=*/10);
  auto middle = MakeTxn(1, 2, /*ts=*/20);
  auto youngest = MakeTxn(2, 3, /*ts=*/30);
  ASSERT_TRUE(lm.Acquire(oldest.get(), row_a_, LockMode::kExclusive).ok());

  // The youngest waits behind the older holder without wounding it.
  Status young_status;
  std::thread young([&] {
    young_status = lm.Acquire(youngest.get(), row_a_, LockMode::kExclusive);
  });
  WaitForEntries(row_a_, 2);

  // The middle one is younger than the holder (so it waits too) but older
  // than the queued youngest: it wounds the waiter, not the holder.
  std::atomic<bool> middle_granted{false};
  std::thread mid([&] {
    EXPECT_TRUE(lm.Acquire(middle.get(), row_a_, LockMode::kExclusive).ok());
    middle_granted.store(true);
  });
  young.join();
  EXPECT_TRUE(youngest->wounded());
  EXPECT_TRUE(young_status.IsAborted());
  EXPECT_FALSE(oldest->wounded());
  EXPECT_FALSE(middle->wounded());
  EXPECT_FALSE(middle_granted.load());

  lm.ReleaseAll(youngest.get());
  lm.ReleaseAll(oldest.get());
  mid.join();
  EXPECT_TRUE(middle_granted.load());
  lm.ReleaseAll(middle.get());
  EXPECT_TRUE(Entries(row_a_).empty());
}

TEST_F(LockManagerTest, RecycledSlotStartsUnlocked) {
  LockManager lm(DeadlockPolicy::kNoWait);
  auto t1 = MakeTxn(0, 1, 1);
  Row* row = table_->AllocateRow(0);
  ASSERT_TRUE(lm.Acquire(t1.get(), row, LockMode::kExclusive).ok());
  ASSERT_EQ(Entries(row).size(), 1u);
  // Free the slot with the lock still linked: the allocator re-initializes
  // the header, so the next owner of the slot sees no stale entry.
  table_->FreeRow(row);
  Row* recycled = table_->AllocateRow(0);
  ASSERT_EQ(recycled, row);
  EXPECT_TRUE(Entries(recycled).empty());
  auto t2 = MakeTxn(1, 2, 2);
  EXPECT_TRUE(lm.Acquire(t2.get(), recycled, LockMode::kExclusive).ok());
  lm.ReleaseAll(t2.get());
  EXPECT_TRUE(Entries(recycled).empty());
  t1->held_locks().clear();  // Its entry went with the recycled header.
}

}  // namespace
}  // namespace next700
