#include "index/hash_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"

namespace next700 {
namespace {

class HashIndexTest : public ::testing::Test {
 protected:
  HashIndexTest() {
    Schema s;
    s.AddUint64("v");
    table_ = std::make_unique<Table>(0, "t", std::move(s), 1);
  }

  Row* NewRow() { return table_->AllocateRow(0); }

  /// `count` distinct keys that all map to one bucket of `index`'s current
  /// bucket array (the index masks FnvHash64 by the bucket count).
  static std::vector<uint64_t> CollidingKeys(const HashIndex& index,
                                             size_t count) {
    const uint64_t mask = index.num_buckets() - 1;
    const uint64_t target = FnvHash64(0) & mask;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; keys.size() < count; ++k) {
      if ((FnvHash64(k) & mask) == target) keys.push_back(k);
    }
    return keys;
  }

  static std::multiset<Row*> AllRows(const HashIndex& index, uint64_t key) {
    std::vector<Row*> rows;
    index.LookupAll(key, &rows);
    return {rows.begin(), rows.end()};
  }

  std::unique_ptr<Table> table_;
};

TEST_F(HashIndexTest, InsertAndLookup) {
  HashIndex index(table_.get(), 16);
  Row* row = NewRow();
  ASSERT_TRUE(index.Insert(42, row).ok());
  EXPECT_EQ(index.Lookup(42), row);
  EXPECT_EQ(index.Lookup(43), nullptr);
  EXPECT_EQ(index.size(), 1u);
}

TEST_F(HashIndexTest, DuplicateKeysAllowed) {
  HashIndex index(table_.get(), 16);
  Row* a = NewRow();
  Row* b = NewRow();
  ASSERT_TRUE(index.Insert(7, a).ok());
  ASSERT_TRUE(index.Insert(7, b).ok());
  std::vector<Row*> rows;
  index.LookupAll(7, &rows);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE((rows[0] == a && rows[1] == b) ||
              (rows[0] == b && rows[1] == a));
}

TEST_F(HashIndexTest, ExactPairRejectedOnReinsert) {
  HashIndex index(table_.get(), 16);
  Row* row = NewRow();
  ASSERT_TRUE(index.Insert(7, row).ok());
  EXPECT_TRUE(index.Insert(7, row).IsAlreadyExists());
}

TEST_F(HashIndexTest, InsertUniqueRejectsSecondRow) {
  HashIndex index(table_.get(), 16);
  ASSERT_TRUE(index.InsertUnique(7, NewRow()).ok());
  EXPECT_TRUE(index.InsertUnique(7, NewRow()).IsAlreadyExists());
  EXPECT_EQ(index.size(), 1u);
}

TEST_F(HashIndexTest, RemoveExactPair) {
  HashIndex index(table_.get(), 16);
  Row* a = NewRow();
  Row* b = NewRow();
  ASSERT_TRUE(index.Insert(7, a).ok());
  ASSERT_TRUE(index.Insert(7, b).ok());
  EXPECT_TRUE(index.Remove(7, a));
  EXPECT_FALSE(index.Remove(7, a));  // Already gone.
  EXPECT_EQ(index.Lookup(7), b);
  EXPECT_EQ(index.size(), 1u);
}

TEST_F(HashIndexTest, ScanIsNotSupported) {
  HashIndex index(table_.get(), 16);
  std::vector<Row*> rows;
  EXPECT_EQ(index.Scan(0, 10, 0, &rows).code(), StatusCode::kNotSupported);
  EXPECT_EQ(index.ScanReverse(10, 0, 0, &rows).code(),
            StatusCode::kNotSupported);
}

TEST_F(HashIndexTest, ManyKeysWithCollisions) {
  HashIndex index(table_.get(), 16);  // Tiny bucket array: long chains.
  constexpr uint64_t kKeys = 5000;
  std::vector<Row*> rows;
  for (uint64_t k = 0; k < kKeys; ++k) {
    rows.push_back(NewRow());
    ASSERT_TRUE(index.Insert(k, rows.back()).ok());
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(index.Lookup(k), rows[k]) << "key " << k;
  }
  EXPECT_EQ(index.size(), kKeys);
}

TEST_F(HashIndexTest, ConcurrentInsertsAndLookups) {
  HashIndex index(table_.get(), 1 << 12);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        Row* row = table_->AllocateRow(0);
        row->primary_key = key;
        ASSERT_TRUE(index.Insert(key, row).ok());
        Row* found = index.Lookup(key);
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(found->primary_key, key);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(index.size(), kThreads * kPerThread);
}

TEST_F(HashIndexTest, IncrementalRehashGrowsBucketArray) {
  HashIndex index(table_.get(), 16);
  const uint64_t initial_buckets = index.num_buckets();
  constexpr uint64_t kKeys = 4096;
  std::vector<Row*> rows;
  for (uint64_t k = 0; k < kKeys; ++k) {
    rows.push_back(NewRow());
    ASSERT_TRUE(index.Insert(k, rows.back()).ok());
  }
  EXPECT_GT(index.num_rehashes(), 0u);
  EXPECT_GT(index.num_buckets(), initial_buckets);
  // Load factor back under control after the doublings.
  EXPECT_LE(index.size(),
            index.num_buckets() * HashIndex::kGrowLoadFactor);
  // Row pointers handed out before the rehashes are still what Lookup
  // returns — only (key, Row*) pairs moved.
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(index.Lookup(k), rows[k]) << "key " << k;
  }
}

TEST_F(HashIndexTest, DuplicatesAndRemovesSurviveRehash) {
  HashIndex index(table_.get(), 16);
  Row* dup_a = NewRow();
  Row* dup_b = NewRow();
  ASSERT_TRUE(index.Insert(7, dup_a).ok());
  ASSERT_TRUE(index.Insert(7, dup_b).ok());
  for (uint64_t k = 100; k < 2100; ++k) {
    ASSERT_TRUE(index.Insert(k, NewRow()).ok());
  }
  ASSERT_GT(index.num_rehashes(), 0u);
  std::vector<Row*> both;
  index.LookupAll(7, &both);
  EXPECT_EQ(both.size(), 2u);
  EXPECT_TRUE(index.Remove(7, dup_a));
  EXPECT_EQ(index.Lookup(7), dup_b);
  // Uniqueness is still enforced against the migrated chain.
  EXPECT_TRUE(index.InsertUnique(7, NewRow()).IsAlreadyExists());
}

TEST_F(HashIndexTest, ConcurrentInsertsAcrossManyRehashes) {
  // Small initial table + many writers: several doublings run while
  // lookups and inserts race the migration.
  HashIndex index(table_.get(), 16);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        Row* row = table_->AllocateRow(0);
        row->primary_key = key;
        ASSERT_TRUE(index.Insert(key, row).ok());
        // Read back a key inserted earlier by this thread (random-ish
        // offset) to exercise the successor chase on migrated buckets.
        const uint64_t probe =
            static_cast<uint64_t>(t) * kPerThread + (i * 7919) % (i + 1);
        Row* found = index.Lookup(probe);
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(found->primary_key, probe);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(index.size(), kThreads * kPerThread);
  EXPECT_GT(index.num_rehashes(), 0u);
  for (uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    Row* found = index.Lookup(k);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->primary_key, k);
  }
}

TEST_F(HashIndexTest, LoadingTheCapacityHintDoesNotDouble) {
  constexpr uint64_t kKeys = 4096;
  HashIndex index(table_.get(), kKeys);
  EXPECT_EQ(index.num_buckets(), kKeys / HashIndex::kGrowLoadFactor);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(index.Insert(k, NewRow()).ok());
  }
  EXPECT_EQ(index.num_rehashes(), 0u);
  EXPECT_EQ(index.size(), kKeys);
}

TEST_F(HashIndexTest, RemovingFromAnOverflowingBucket) {
  HashIndex index(table_.get(), 16);
  ASSERT_EQ(index.num_buckets(), 16u);
  // The first kSlots keys land in the inline slots, the rest overflow.
  const std::vector<uint64_t> keys =
      CollidingKeys(index, HashIndex::kSlots + 3);
  std::vector<Row*> rows;
  for (uint64_t key : keys) {
    rows.push_back(NewRow());
    ASSERT_TRUE(index.Insert(key, rows.back()).ok());
  }
  std::vector<bool> present(keys.size(), true);
  auto expect_contents = [&] {
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(index.Lookup(keys[i]), present[i] ? rows[i] : nullptr)
          << "key " << keys[i];
    }
  };
  // An inline entry: its slot is refilled from the overflow head.
  ASSERT_TRUE(index.Remove(keys[1], rows[1]));
  present[1] = false;
  expect_contents();
  // An overflow entry.
  ASSERT_TRUE(index.Remove(keys.back(), rows.back()));
  present.back() = false;
  expect_contents();
  EXPECT_FALSE(index.Remove(keys[1], rows[1]));
  EXPECT_FALSE(index.Remove(keys[0], rows[1]));  // Key right, row wrong.
  // Drain the rest, inline slots first, checking after every step.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!present[i]) continue;
    ASSERT_TRUE(index.Remove(keys[i], rows[i])) << "key " << keys[i];
    present[i] = false;
    expect_contents();
  }
  EXPECT_EQ(index.size(), 0u);
  // The emptied bucket takes entries again.
  ASSERT_TRUE(index.Insert(keys[2], rows[2]).ok());
  EXPECT_EQ(index.Lookup(keys[2]), rows[2]);
  EXPECT_EQ(index.num_rehashes(), 0u);
}

TEST_F(HashIndexTest, DuplicatesSplitAcrossSlotsAndOverflow) {
  HashIndex index(table_.get(), 16);
  constexpr uint64_t kKey = 7;
  std::vector<Row*> rows;
  for (uint32_t i = 0; i < HashIndex::kSlots + 2; ++i) {
    rows.push_back(NewRow());
    ASSERT_TRUE(index.Insert(kKey, rows.back()).ok());
  }
  EXPECT_EQ(AllRows(index, kKey),
            std::multiset<Row*>(rows.begin(), rows.end()));
  // Exact pairs are rejected wherever they live.
  EXPECT_TRUE(index.Insert(kKey, rows.front()).IsAlreadyExists());
  EXPECT_TRUE(index.Insert(kKey, rows.back()).IsAlreadyExists());
  EXPECT_TRUE(index.InsertUnique(kKey, NewRow()).IsAlreadyExists());

  // Remove takes out only the exact pair: one inline, one from overflow.
  ASSERT_TRUE(index.Remove(kKey, rows[1]));
  ASSERT_TRUE(index.Remove(kKey, rows.back()));
  EXPECT_FALSE(index.Remove(kKey, rows[1]));
  EXPECT_FALSE(index.Remove(kKey, NewRow()));
  EXPECT_EQ(AllRows(index, kKey),
            (std::multiset<Row*>{rows[0], rows[2], rows[3]}));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_NE(index.Lookup(kKey), nullptr);
}

TEST_F(HashIndexTest, FullBucketsWithOverflowSurviveDoubling) {
  HashIndex index(table_.get(), 16);
  const std::vector<uint64_t> keys =
      CollidingKeys(index, 2 * HashIndex::kSlots + 1);
  std::vector<Row*> rows;
  for (uint64_t key : keys) {
    rows.push_back(NewRow());
    ASSERT_TRUE(index.Insert(key, rows.back()).ok());
  }
  Row* dup = NewRow();
  ASSERT_TRUE(index.Insert(keys[0], dup).ok());
  // Fill other buckets until the overflowing bucket has been migrated.
  for (uint64_t k = 1u << 20; index.num_rehashes() < 2; ++k) {
    ASSERT_TRUE(index.Insert(k, NewRow()).ok());
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(index.Lookup(keys[i]), rows[i]) << "key " << keys[i];
  }
  EXPECT_EQ(AllRows(index, keys[0]), (std::multiset<Row*>{rows[0], dup}));
  ASSERT_TRUE(index.Remove(keys[0], rows[0]));
  EXPECT_EQ(index.Lookup(keys[0]), dup);
  EXPECT_TRUE(index.InsertUnique(keys[3], NewRow()).IsAlreadyExists());
}

TEST_F(HashIndexTest, ConcurrentInsertRemoveLookupAcrossRehashes) {
  // Writers insert, look up and remove their own keys while the index
  // doubles under them; a reader checks that keys loaded up front never
  // go missing while their buckets' slots are refilled and migrated.
  HashIndex index(table_.get(), 16);
  constexpr uint64_t kStable = 1000;
  for (uint64_t k = 0; k < kStable; ++k) {
    Row* row = NewRow();
    row->primary_key = k;
    ASSERT_TRUE(index.Insert(k, row).ok());
  }
  constexpr int kWriters = 3;
  constexpr uint64_t kPerWriter = 6000;
  auto write = [&](int t) {
    const uint64_t base = kStable + static_cast<uint64_t>(t) * kPerWriter;
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      const uint64_t key = base + i;
      Row* row = table_->AllocateRow(0);
      row->primary_key = key;
      ASSERT_TRUE(index.Insert(key, row).ok());
      ASSERT_EQ(index.Lookup(key), row);
      if (i % 2 == 0) {
        ASSERT_TRUE(index.Remove(key, row));
        ASSERT_EQ(index.Lookup(key), nullptr);
      }
    }
  };
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      write(t);
      writers_done.fetch_add(1);  // Also after a failed assertion.
    });
  }
  threads.emplace_back([&] {
    uint64_t k = 0;
    while (writers_done.load() < kWriters) {
      Row* found = index.Lookup(k);
      ASSERT_NE(found, nullptr) << "key " << k;
      ASSERT_EQ(found->primary_key, k);
      k = (k + 1) % kStable;
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(index.num_rehashes(), 0u);
  EXPECT_EQ(index.size(), kStable + kWriters * kPerWriter / 2);
  for (uint64_t k = 0; k < kStable + kWriters * kPerWriter; ++k) {
    Row* found = index.Lookup(k);
    const bool kept = k < kStable || (k - kStable) % kPerWriter % 2 == 1;
    if (kept) {
      ASSERT_NE(found, nullptr) << "key " << k;
      ASSERT_EQ(found->primary_key, k);
    } else {
      ASSERT_EQ(found, nullptr) << "key " << k;
    }
  }
}

TEST_F(HashIndexTest, ConcurrentInsertUniqueAdmitsExactlyOne) {
  HashIndex index(table_.get(), 64);
  constexpr int kThreads = 4;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (index.InsertUnique(static_cast<uint64_t>(i),
                               table_->AllocateRow(0))
                .ok()) {
          ++successes;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 1000);
  EXPECT_EQ(index.size(), 1000u);
}

}  // namespace
}  // namespace next700
