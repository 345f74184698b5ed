#include "cc/hstore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "txn/engine.h"

namespace next700 {
namespace {

class HstoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.cc_scheme = CcScheme::kHstore;
    options.max_threads = 4;
    options.num_partitions = 4;
    engine_ = std::make_unique<Engine>(options);
    Schema schema;
    schema.AddUint64("v");
    table_ = engine_->CreateTable("t", std::move(schema));
    index_ = engine_->CreateIndex("t_pk", table_, IndexKind::kHash, 64);
    uint8_t buf[8];
    for (uint64_t key = 0; key < 16; ++key) {
      table_->schema().SetUint64(buf, 0, 0);
      Row* row = engine_->LoadRow(table_, static_cast<uint32_t>(key % 4),
                                  key, buf);
      ASSERT_TRUE(index_->Insert(key, row).ok());
    }
  }

  std::unique_ptr<Engine> engine_;
  Table* table_ = nullptr;
  Index* index_ = nullptr;
};

TEST_F(HstoreTest, SinglePartitionTxnsOnDistinctPartitionsOverlap) {
  // Two open transactions on different partitions coexist.
  TxnContext* t0 = engine_->Begin(0, {0});
  TxnContext* t1 = engine_->Begin(1, {1});
  uint8_t buf[8];
  EXPECT_TRUE(engine_->Read(t0, index_, 0, buf).ok());   // Partition 0.
  EXPECT_TRUE(engine_->Read(t1, index_, 1, buf).ok());   // Partition 1.
  EXPECT_TRUE(engine_->Commit(t0).ok());
  EXPECT_TRUE(engine_->Commit(t1).ok());
}

TEST_F(HstoreTest, SamePartitionBlocksUntilRelease) {
  TxnContext* holder = engine_->Begin(0, {2});
  std::atomic<bool> entered{false};
  std::thread blocked([&] {
    TxnContext* txn = engine_->Begin(1, {2});  // Blocks in Begin.
    entered.store(true);
    EXPECT_TRUE(engine_->Commit(txn).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(entered.load());  // Partition lock held by `holder`.
  ASSERT_TRUE(engine_->Commit(holder).ok());
  blocked.join();
  EXPECT_TRUE(entered.load());
}

TEST_F(HstoreTest, MultiPartitionTxnLocksAllItsPartitions) {
  TxnContext* txn = engine_->Begin(0, {1, 3});
  uint8_t buf[8];
  EXPECT_TRUE(engine_->Read(txn, index_, 1, buf).ok());  // Partition 1.
  EXPECT_TRUE(engine_->Read(txn, index_, 3, buf).ok());  // Partition 3.
  // Partition 0 is NOT held; a parallel single-partition txn proceeds.
  std::atomic<bool> done{false};
  std::thread other([&] {
    TxnContext* t = engine_->Begin(1, {0});
    uint8_t b[8];
    EXPECT_TRUE(engine_->Read(t, index_, 0, b).ok());
    EXPECT_TRUE(engine_->Commit(t).ok());
    done.store(true);
  });
  other.join();
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(HstoreTest, EmptyPartitionListLocksEverything) {
  TxnContext* txn = engine_->Begin(0, {});
  // Touch rows from every partition without declaring them individually.
  uint8_t buf[8];
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_TRUE(engine_->Read(txn, index_, key, buf).ok());
  }
  EXPECT_EQ(txn->partitions().size(), 4u);
  EXPECT_TRUE(engine_->Commit(txn).ok());
}

TEST_F(HstoreTest, AbortRestoresInPlaceWrites) {
  uint8_t buf[8];
  TxnContext* txn = engine_->Begin(0, {0});
  ASSERT_TRUE(engine_->Read(txn, index_, 0, buf).ok());
  table_->schema().SetUint64(buf, 0, 999);
  ASSERT_TRUE(engine_->Update(txn, index_, 0, buf).ok());
  engine_->Abort(txn);
  TxnContext* check = engine_->Begin(0, {0});
  ASSERT_TRUE(engine_->Read(check, index_, 0, buf).ok());
  EXPECT_EQ(table_->schema().GetUint64(buf, 0), 0u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(HstoreTest, SortedAcquisitionPreventsLockOrderDeadlock) {
  // Two threads repeatedly lock partition pairs given in opposite orders;
  // Begin() sorts them, so this must not deadlock.
  std::atomic<int> done{0};
  auto worker = [&](int tid, std::vector<uint32_t> parts) {
    uint8_t buf[8];
    for (int i = 0; i < 500; ++i) {
      TxnContext* txn = engine_->Begin(tid, parts);
      EXPECT_TRUE(engine_->Read(txn, index_, parts[0], buf).ok());
      EXPECT_TRUE(engine_->Commit(txn).ok());
    }
    ++done;
  };
  std::thread a(worker, 0, std::vector<uint32_t>{1, 2});
  std::thread b(worker, 1, std::vector<uint32_t>{2, 1});
  a.join();
  b.join();
  EXPECT_EQ(done.load(), 2);
}

}  // namespace
}  // namespace next700
