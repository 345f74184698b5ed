#include "cc/mvto.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "txn/engine.h"
#include "workload/workload.h"

namespace next700 {
namespace {

class MvtoTest : public ::testing::Test {
 protected:
  void Init(bool gc_enabled) {
    EngineOptions options;
    options.cc_scheme = CcScheme::kMvto;
    options.max_threads = 4;
    options.mvcc_gc = gc_enabled;
    engine_ = std::make_unique<Engine>(options);
    Schema schema;
    schema.AddUint64("val");
    table_ = engine_->CreateTable("kv", std::move(schema));
    index_ = engine_->CreateIndex("kv_pk", table_, IndexKind::kHash, 64);
    std::vector<uint8_t> buf(8);
    for (uint64_t key = 0; key < 8; ++key) {
      table_->schema().SetUint64(buf.data(), 0, 100 + key);
      Row* row = engine_->LoadRow(table_, 0, key, buf.data());
      ASSERT_TRUE(index_->Insert(key, row).ok());
    }
  }

  uint64_t Read(TxnContext* txn, uint64_t key) {
    uint8_t buf[8];
    NEXT700_CHECK(engine_->Read(txn, index_, key, buf).ok());
    return table_->schema().GetUint64(buf, 0);
  }

  Status Write(TxnContext* txn, uint64_t key, uint64_t value) {
    uint8_t buf[8];
    table_->schema().SetUint64(buf, 0, value);
    return engine_->Update(txn, index_, key, buf);
  }

  Status CommitWrite(uint64_t key, uint64_t value) {
    TxnContext* txn = engine_->Begin(0);
    Status s = Write(txn, key, value);
    if (s.ok()) s = engine_->Commit(txn);
    if (!s.ok()) engine_->Abort(txn);
    return s;
  }

  std::unique_ptr<Engine> engine_;
  Table* table_ = nullptr;
  Index* index_ = nullptr;
};

TEST_F(MvtoTest, OldReaderSeesOldVersion) {
  Init(/*gc_enabled=*/true);
  // Start a reader *before* the writer commits; its timestamp precedes the
  // writer's version, so it must keep seeing the old value afterwards.
  TxnContext* reader = engine_->Begin(1);
  TxnContext* writer = engine_->Begin(2);
  ASSERT_TRUE(Write(writer, 0, 777).ok());
  ASSERT_TRUE(engine_->Commit(writer).ok());
  EXPECT_EQ(Read(reader, 0), 100u);  // Old snapshot.
  ASSERT_TRUE(engine_->Commit(reader).ok());
  // A fresh reader sees the new version.
  TxnContext* fresh = engine_->Begin(1);
  EXPECT_EQ(Read(fresh, 0), 777u);
  ASSERT_TRUE(engine_->Commit(fresh).ok());
}

TEST_F(MvtoTest, WriteBelowReadTimestampAborts) {
  Init(true);
  TxnContext* old_writer = engine_->Begin(1);   // ts = T1.
  TxnContext* young_reader = engine_->Begin(2);  // ts = T2 > T1.
  EXPECT_EQ(Read(young_reader, 3), 103u);        // Sets rts = T2 on v0.
  ASSERT_TRUE(engine_->Commit(young_reader).ok());
  // Old writer (T1 < T2) writing key 3 would invalidate that read.
  EXPECT_TRUE(Write(old_writer, 3, 5).IsAborted());
  engine_->Abort(old_writer);
}

TEST_F(MvtoTest, UncommittedVersionBlocksConflictingWriter) {
  Init(true);
  TxnContext* first = engine_->Begin(1);
  ASSERT_TRUE(Write(first, 4, 1).ok());
  TxnContext* second = engine_->Begin(2);
  EXPECT_TRUE(Write(second, 4, 2).IsAborted());
  engine_->Abort(second);
  ASSERT_TRUE(engine_->Commit(first).ok());
  TxnContext* check = engine_->Begin(2);
  EXPECT_EQ(Read(check, 4), 1u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(MvtoTest, AbortUnlinksInstalledVersion) {
  Init(true);
  Row* row = index_->Lookup(5);
  const size_t before = Mvto::ChainLength(row);
  TxnContext* txn = engine_->Begin(1);
  ASSERT_TRUE(Write(txn, 5, 9).ok());
  EXPECT_EQ(Mvto::ChainLength(row), before + 1);
  engine_->Abort(txn);
  EXPECT_EQ(Mvto::ChainLength(row), before);
  TxnContext* check = engine_->Begin(1);
  EXPECT_EQ(Read(check, 5), 105u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(MvtoTest, GcDisabledChainsGrow) {
  Init(/*gc_enabled=*/false);
  Row* row = index_->Lookup(0);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(CommitWrite(0, static_cast<uint64_t>(i)).ok());
  }
  EXPECT_GE(Mvto::ChainLength(row), 50u);
}

TEST_F(MvtoTest, GcEnabledChainsStayShort) {
  Init(/*gc_enabled=*/true);
  Row* row = index_->Lookup(0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(CommitWrite(0, static_cast<uint64_t>(i)).ok());
  }
  // With no concurrent readers the watermark tracks the newest commit, so
  // only a handful of versions can survive.
  EXPECT_LE(Mvto::ChainLength(row), 4u);
}

TEST_F(MvtoTest, ReadersPinVersionsAgainstGc) {
  Init(true);
  TxnContext* pinner = engine_->Begin(3);  // Active txn holds the watermark.
  EXPECT_EQ(Read(pinner, 1), 101u);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(CommitWrite(1, static_cast<uint64_t>(i)).ok());
  }
  // The pinned snapshot must still be readable.
  EXPECT_EQ(Read(pinner, 1), 101u);
  ASSERT_TRUE(engine_->Commit(pinner).ok());
}

TEST_F(MvtoTest, ConcurrentReadersAndWritersKeepSnapshots) {
  Init(true);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  // Writer keeps keys 6 and 7 equal.
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 400; ++i) {
      Rng rng(i);
      (void)RunWithRetry(&rng, [&] {
        TxnContext* txn = engine_->Begin(0);
        Status s = Write(txn, 6, i);
        if (s.ok()) s = Write(txn, 7, i);
        if (s.ok()) s = engine_->Commit(txn);
        if (!s.ok()) engine_->Abort(txn);
        return s;
      });
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 1; r <= 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r));
      uint8_t buf[8];
      while (!stop.load()) {
        TxnContext* txn = engine_->Begin(r);
        Status s = engine_->Read(txn, index_, 6, buf);
        uint64_t a = 0, b = 0;
        if (s.ok()) {
          a = table_->schema().GetUint64(buf, 0);
          s = engine_->Read(txn, index_, 7, buf);
          if (s.ok()) b = table_->schema().GetUint64(buf, 0);
        }
        if (s.ok()) s = engine_->Commit(txn);
        if (!s.ok()) {
          engine_->Abort(txn);
          continue;
        }
        // The only consistent snapshots are the initial (106, 107) and the
        // writer's (i, i); anything else, including a mix of an initial and
        // a written value, is torn.
        if (a != b && !(a == 106 && b == 107)) ++torn;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace next700
