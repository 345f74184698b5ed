#ifndef NEXT700_INDEX_HASH_INDEX_H_
#define NEXT700_INDEX_HASH_INDEX_H_

/// \file
/// Hash index with cache-line buckets, per-bucket byte latches and
/// incremental doubling.
///
/// Each bucket is one 64-byte, cache-line-aligned struct: the byte latch,
/// the `migrated` flag, a count of used slots, kSlots inline (key, Row*)
/// pairs and the head of an overflow Entry chain that is used only when the
/// inline slots are full. A probe that finds its key inline touches one
/// line before the row; only overflow entries are heap-allocated.
///
/// The bucket array starts at bit_ceil(capacity_hint / kGrowLoadFactor)
/// buckets. When the load factor (entries / buckets) exceeds
/// kGrowLoadFactor, a table of twice as many buckets is published and
/// writers migrate a few source buckets per operation (latched, one bucket
/// at a time); the writer that migrates the last bucket swaps the new table
/// in. Only (key, Row*) pairs move — Row* values handed out by Lookup stay
/// valid forever, and readers are never blocked for more than one bucket's
/// migration.
///
/// Concurrency protocol: an operation latches the bucket its key maps to in
/// the current table; if that bucket has been migrated it follows the
/// table's successor pointer and retries there (at most one hop per
/// completed resize). Retired bucket arrays are kept allocated until the
/// index is destroyed, so a reader holding a stale table pointer can always
/// finish its chase safely.

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/latch.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_safety.h"
#include "index/index.h"

namespace next700 {

class HashIndex : public Index {
 public:
  /// Grow when entries exceed buckets * kGrowLoadFactor.
  static constexpr uint64_t kGrowLoadFactor = 2;
  /// Source buckets each write operation migrates while a resize is active.
  /// Doubling at load factor L leaves L*N inserts before the next trigger
  /// and N buckets to move, so any stride >= 1 finishes in time; 4 keeps the
  /// transition window (and the extra lookup hop) short.
  static constexpr uint64_t kMigrateStride = 4;

  /// Inline (key, Row*) pairs per bucket; with the latch byte, the flags
  /// and the overflow head they fill exactly one cache line.
  static constexpr uint32_t kSlots = 3;

  /// `capacity_hint` is the expected number of entries; the initial bucket
  /// array is sized so that loading that many does not trigger a doubling.
  HashIndex(Table* table, uint64_t capacity_hint);
  ~HashIndex() override;

  IndexKind kind() const override { return IndexKind::kHash; }

  Status Insert(uint64_t key, Row* row) override;
  Status InsertUnique(uint64_t key, Row* row) override;
  Row* Lookup(uint64_t key) const override;
  void LookupAll(uint64_t key, std::vector<Row*>* out) const override;
  bool Remove(uint64_t key, Row* row) override;
  Status Scan(uint64_t lo, uint64_t hi, size_t limit,
              std::vector<Row*>* out) const override;
  Status ScanReverse(uint64_t hi, uint64_t lo, size_t limit,
                     std::vector<Row*>* out) const override;
  uint64_t size() const override {
    return entries_.load(std::memory_order_relaxed);
  }

  uint64_t num_buckets() const {
    return current_.load(std::memory_order_acquire)->size();
  }
  /// Completed doublings (observability for tests and F11 commentary).
  uint64_t num_rehashes() const {
    return rehashes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t key;
    Row* row;
    Entry* next;
  };

  struct Slot {
    uint64_t key;
    Row* row;
  };

  struct CAPABILITY("bucket") NEXT700_CACHE_ALIGNED Bucket {
    std::atomic<uint8_t> latch{0};
    /// Set (under the latch) when this bucket's entries have been moved to
    /// the owning table's successor; the bucket is dead from then on.
    bool migrated GUARDED_BY(this) = false;
    /// Slots [0, used) hold entries. `overflow` is non-null only while all
    /// kSlots are used.
    uint8_t used GUARDED_BY(this) = 0;
    Entry* overflow GUARDED_BY(this) = nullptr;
    Slot slots[kSlots] GUARDED_BY(this);

    void Lock() ACQUIRE() {
      while (latch.exchange(1, std::memory_order_acquire) != 0) CpuRelax();
    }
    void Unlock() RELEASE() { latch.store(0, std::memory_order_release); }
    /// Re-establishes the capability after LockBucket() hands a latched
    /// bucket across the call boundary (which TSA cannot track).
    void AssertHeld() ASSERT_CAPABILITY(this) {}

    /// Adds (key, row) to the first free slot, or to the overflow chain
    /// once the slots are full.
    void PushLocked(uint64_t key, Row* row) REQUIRES(this) {
      if (used < kSlots) {
        slots[used++] = Slot{key, row};
      } else {
        overflow = new Entry{key, row, overflow};
      }
    }
  };
  static_assert(sizeof(Bucket) == kCacheLineSize,
                "hash bucket must stay one cache line");
  static_assert(std::is_trivially_destructible_v<Bucket>,
                "bucket arrays are unmapped without running destructors");

  struct BucketArray {
    explicit BucketArray(uint64_t n);
    ~BucketArray();
    uint64_t size() const { return mask + 1; }
    /// size() buckets in their own anonymous mapping: page-aligned (so
    /// cache-line-aligned) and pre-faulted in one call. An over-aligned
    /// heap array cost more: value-initializing it wrote every slot, and
    /// glibc served each large over-aligned request from a fresh mmap
    /// anyway, faulted in one page at a time.
    Bucket* buckets;
    uint64_t mask;
    /// Target of the resize draining this table. Written once, before the
    /// table is published as a resize source; a thread that observes a
    /// migrated bucket (under its latch) is guaranteed to see it.
    BucketArray* successor = nullptr;
    /// Next source bucket index to claim (resize work queue).
    std::atomic<uint64_t> next_to_migrate{0};
    /// Source buckets fully migrated; the thread that moves this to
    /// size() performs the table swap.
    std::atomic<uint64_t> migrated_count{0};
  };

  /// Latches and returns the bucket currently owning `key`, chasing
  /// successor pointers past migrated buckets. On return the bucket latch
  /// is held and `*out` is the table it belongs to. TSA cannot express a
  /// capability handed off through a return value, so the analysis is
  /// disabled here and callers re-establish it with AssertHeld().
  Bucket* LockBucket(uint64_t key,
                     BucketArray** out) const NO_THREAD_SAFETY_ANALYSIS;

  Status InsertImpl(uint64_t key, Row* row, bool unique);

  /// Starts a resize if the load factor calls for one (no-op if one is
  /// already running), then claims and migrates up to kMigrateStride source
  /// buckets. Called from mutating operations only.
  void MaybeGrowAndHelp();
  void MigrateOneBucket(BucketArray* src, uint64_t index);

  /// Table ops should use; swapped by the finishing migrator.
  std::atomic<BucketArray*> current_;
  /// Non-null while a resize is draining it. Cleared after the swap.
  std::atomic<BucketArray*> resize_src_{nullptr};
  /// Serializes resize initiation.
  Mutex resize_mu_;
  /// Every table ever created, freed only at destruction so stale readers
  /// can always complete their successor chase. Mutated only while a resize
  /// is being initiated (constructor/destructor accesses are unshared).
  std::vector<std::unique_ptr<BucketArray>> tables_ GUARDED_BY(resize_mu_);

  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> rehashes_{0};
};

}  // namespace next700

#endif  // NEXT700_INDEX_HASH_INDEX_H_
