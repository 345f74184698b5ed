#include "common/latch_rank.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/latch.h"

namespace next700 {
namespace {

class LatchRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!latch_rank::kEnabled) {
      GTEST_SKIP() << "built without NEXT700_DEBUG_LATCH_RANK";
    }
  }
};

using LatchRankDeathTest = LatchRankTest;

TEST_F(LatchRankTest, DescendingAcquisitionIsAllowed) {
  SpinLatch catalog(LatchRank::kCatalog);
  SpinLatch table(LatchRank::kTablePartition);
  SpinLatch graph(LatchRank::kWaitsForGraph);
  catalog.Lock();
  table.Lock();
  graph.Lock();
  EXPECT_EQ(latch_rank::HeldCount(), 3);
  graph.Unlock();
  table.Unlock();
  catalog.Unlock();
  EXPECT_EQ(latch_rank::HeldCount(), 0);
}

TEST_F(LatchRankTest, EqualRankCouplingIsAllowed) {
  // Lock coupling holds parent and child index-node latches together; the
  // sorted write sets of Silo/TicToc hold many row latches. Both are legal.
  RwSpinLatch parent(LatchRank::kIndexNode);
  RwSpinLatch child(LatchRank::kIndexNode);
  parent.LockExclusive();
  child.LockExclusive();
  parent.UnlockExclusive();  // Crabbing releases the ancestor first.
  child.UnlockExclusive();
  EXPECT_EQ(latch_rank::HeldCount(), 0);
}

TEST_F(LatchRankTest, UnrankedLatchesAreExempt) {
  SpinLatch logical_lock;  // e.g. an H-Store partition lock: kNone.
  SpinLatch table(LatchRank::kTablePartition);
  logical_lock.Lock();
  table.Lock();  // Would be an inversion if the first latch were ranked.
  EXPECT_EQ(latch_rank::HeldCount(), 1);
  table.Unlock();
  logical_lock.Unlock();
}

TEST_F(LatchRankTest, TryLockRecordsOnlyOnSuccess) {
  SpinLatch latch(LatchRank::kRow);
  ASSERT_TRUE(latch.TryLock());
  EXPECT_EQ(latch_rank::HeldCount(), 1);
  EXPECT_FALSE(latch.TryLock());
  EXPECT_EQ(latch_rank::HeldCount(), 1);
  latch.Unlock();
  EXPECT_EQ(latch_rank::HeldCount(), 0);
}

/// Worker for the stress tests. `seed_inversion` is the deliberate-bug test
/// hook: one iteration acquires row-then-table, inverting the hierarchy.
void WorkerLoop(SpinLatch* table, SpinLatch* row, int iters,
                bool seed_inversion) {
  for (int i = 0; i < iters; ++i) {
    if (seed_inversion && i == iters / 2) {
      row->Lock();
      table->Lock();  // Inversion: rank(table) > rank(row) while row held.
      table->Unlock();
      row->Unlock();
    } else {
      table->Lock();
      row->Lock();
      row->Unlock();
      table->Unlock();
    }
  }
}

TEST_F(LatchRankTest, MultiThreadedStressWithoutInversionPasses) {
  SpinLatch table(LatchRank::kTablePartition);
  SpinLatch row(LatchRank::kRow);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(WorkerLoop, &table, &row, 2000, false);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(latch_rank::HeldCount(), 0);
}

TEST_F(LatchRankDeathTest, SeededInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpinLatch table(LatchRank::kTablePartition);
        SpinLatch row(LatchRank::kRow);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
          threads.emplace_back(WorkerLoop, &table, &row, 1000,
                               /*seed_inversion=*/t == 3);
        }
        for (auto& t : threads) t.join();
      },
      "latch-rank violation");
}

TEST_F(LatchRankDeathTest, SingleThreadInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpinLatch graph(LatchRank::kWaitsForGraph);
        SpinLatch catalog(LatchRank::kCatalog);
        graph.Lock();
        catalog.Lock();  // Catalog ranks above the waits-for graph.
      },
      "latch-rank violation");
}

}  // namespace
}  // namespace next700
