#include "index/hash_index.h"

#include <sys/mman.h>

#include <bit>
#include <memory>

namespace next700 {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHash:
      return "hash";
    case IndexKind::kBTree:
      return "btree";
  }
  return "unknown";
}

HashIndex::BucketArray::BucketArray(uint64_t n) : mask(n - 1) {
  void* p = mmap(nullptr, n * sizeof(Bucket), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  NEXT700_CHECK(p != MAP_FAILED);
  buckets = static_cast<Bucket*>(p);
  std::uninitialized_default_construct_n(buckets, n);
}

HashIndex::BucketArray::~BucketArray() {
  munmap(buckets, size() * sizeof(Bucket));
}

HashIndex::HashIndex(Table* table, uint64_t capacity_hint) : Index(table) {
  const uint64_t wanted = capacity_hint / kGrowLoadFactor;
  const uint64_t n = std::bit_ceil(wanted < 16 ? 16 : wanted);
  tables_.push_back(std::make_unique<BucketArray>(n));
  current_.store(tables_.back().get(), std::memory_order_release);
}

HashIndex::~HashIndex() {
  // Migrated buckets have no overflow chain, so this frees each node once.
  for (auto& table : tables_) {
    for (uint64_t i = 0; i < table->size(); ++i) {
      Entry* e = table->buckets[i].overflow;
      while (e != nullptr) {
        Entry* next = e->next;
        delete e;
        e = next;
      }
    }
  }
}

HashIndex::Bucket* HashIndex::LockBucket(uint64_t key,
                                         BucketArray** out) const {
  const uint64_t h = FnvHash64(key);
  BucketArray* t = current_.load(std::memory_order_acquire);
  for (;;) {
    Bucket* b = &t->buckets[h & t->mask];
    b->Lock();
    if (!b->migrated) {
      *out = t;
      return b;
    }
    // Entries moved to the successor. `successor` was written before this
    // table was published as a resize source and the migrator's unlock
    // (release) ordered it before our lock (acquire), so it is visible.
    b->Unlock();
    t = t->successor;
  }
}

void HashIndex::MigrateOneBucket(BucketArray* src, uint64_t index) {
  BucketArray* dst = src->successor;
  Bucket& from = src->buckets[index];
  from.Lock();
  // Move each entry to its new home bucket. With a power-of-two doubling
  // every key in src bucket i lands in dst bucket i or i + src_size, but
  // rehashing through the mask keeps this independent of the growth factor.
  auto rehome = [dst](uint64_t key, Row* row) {
    Bucket& to = dst->buckets[FnvHash64(key) & dst->mask];
    to.Lock();
    to.PushLocked(key, row);
    to.Unlock();
  };
  for (uint32_t i = 0; i < from.used; ++i) {
    rehome(from.slots[i].key, from.slots[i].row);
  }
  Entry* e = from.overflow;
  while (e != nullptr) {
    Entry* next = e->next;
    rehome(e->key, e->row);
    delete e;
    e = next;
  }
  from.used = 0;
  from.overflow = nullptr;
  from.migrated = true;
  from.Unlock();

  const uint64_t done =
      src->migrated_count.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == src->size()) {
    // Last bucket drained: install the new table. Order matters — a thread
    // that loads the fresh current_ must never re-enter the drained source,
    // and a thread that raced past the old resize_src_ just falls through
    // the (now exhausted) work queue harmlessly.
    current_.store(dst, std::memory_order_release);
    resize_src_.store(nullptr, std::memory_order_release);
    rehashes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HashIndex::MaybeGrowAndHelp() {
  if (resize_src_.load(std::memory_order_acquire) == nullptr) {
    BucketArray* cur = current_.load(std::memory_order_acquire);
    if (entries_.load(std::memory_order_relaxed) >
        cur->size() * kGrowLoadFactor) {
      MutexLock lock(&resize_mu_);
      // Re-check under the mutex: another thread may have started (or even
      // finished) a resize since the racy test above.
      cur = current_.load(std::memory_order_acquire);
      if (resize_src_.load(std::memory_order_acquire) == nullptr &&
          cur->successor == nullptr &&
          entries_.load(std::memory_order_relaxed) >
              cur->size() * kGrowLoadFactor) {
        tables_.push_back(
            std::make_unique<BucketArray>(cur->size() * 2));
        cur->successor = tables_.back().get();
        // Publish: from here on writers help drain `cur`.
        resize_src_.store(cur, std::memory_order_release);
      }
    }
  }
  BucketArray* src = resize_src_.load(std::memory_order_acquire);
  if (src == nullptr) return;
  for (uint64_t i = 0; i < kMigrateStride; ++i) {
    const uint64_t index =
        src->next_to_migrate.fetch_add(1, std::memory_order_relaxed);
    if (index >= src->size()) return;
    MigrateOneBucket(src, index);
  }
}

Status HashIndex::InsertImpl(uint64_t key, Row* row, bool unique) {
  MaybeGrowAndHelp();
  BucketArray* table;
  Bucket* bucket = LockBucket(key, &table);
  bucket->AssertHeld();
  bool exists = false;
  for (uint32_t i = 0; i < bucket->used && !exists; ++i) {
    const Slot& s = bucket->slots[i];
    exists = s.key == key && (unique || s.row == row);
  }
  for (Entry* e = bucket->overflow; e != nullptr && !exists; e = e->next) {
    exists = e->key == key && (unique || e->row == row);
  }
  if (exists) {
    bucket->Unlock();
    return Status::AlreadyExists("hash index key exists");
  }
  bucket->PushLocked(key, row);
  bucket->Unlock();
  entries_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status HashIndex::Insert(uint64_t key, Row* row) {
  return InsertImpl(key, row, /*unique=*/false);
}

Status HashIndex::InsertUnique(uint64_t key, Row* row) {
  return InsertImpl(key, row, /*unique=*/true);
}

Row* HashIndex::Lookup(uint64_t key) const {
  BucketArray* table;
  Bucket* bucket = LockBucket(key, &table);
  bucket->AssertHeld();
  for (uint32_t i = 0; i < bucket->used; ++i) {
    if (bucket->slots[i].key == key) {
      Row* row = bucket->slots[i].row;
      bucket->Unlock();
      return row;
    }
  }
  for (Entry* e = bucket->overflow; e != nullptr; e = e->next) {
    if (e->key == key) {
      Row* row = e->row;
      bucket->Unlock();
      return row;
    }
  }
  bucket->Unlock();
  return nullptr;
}

void HashIndex::LookupAll(uint64_t key, std::vector<Row*>* out) const {
  BucketArray* table;
  Bucket* bucket = LockBucket(key, &table);
  bucket->AssertHeld();
  for (uint32_t i = 0; i < bucket->used; ++i) {
    if (bucket->slots[i].key == key) out->push_back(bucket->slots[i].row);
  }
  for (Entry* e = bucket->overflow; e != nullptr; e = e->next) {
    if (e->key == key) out->push_back(e->row);
  }
  bucket->Unlock();
}

bool HashIndex::Remove(uint64_t key, Row* row) {
  MaybeGrowAndHelp();
  BucketArray* table;
  Bucket* bucket = LockBucket(key, &table);
  bucket->AssertHeld();
  // An inline hit is refilled from the overflow head, or else from the last
  // used slot, so slots stay dense and overflow implies full slots. Either
  // way at most one overflow node is unlinked: the one at `*link`.
  Entry** link = &bucket->overflow;
  uint32_t i = 0;
  while (i < bucket->used &&
         (bucket->slots[i].key != key || bucket->slots[i].row != row)) {
    ++i;
  }
  if (i < bucket->used) {
    if (*link == nullptr) {
      bucket->slots[i] = bucket->slots[--bucket->used];
    } else {
      bucket->slots[i] = Slot{(*link)->key, (*link)->row};
    }
  } else {
    while (*link != nullptr && ((*link)->key != key || (*link)->row != row)) {
      link = &(*link)->next;
    }
    if (*link == nullptr) {
      bucket->Unlock();
      return false;
    }
  }
  Entry* dead = *link;
  if (dead != nullptr) *link = dead->next;
  bucket->Unlock();
  delete dead;
  entries_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

Status HashIndex::Scan(uint64_t lo, uint64_t hi, size_t limit,
                       std::vector<Row*>* out) const {
  (void)lo;
  (void)hi;
  (void)limit;
  (void)out;
  return Status::NotSupported("hash index cannot scan in key order");
}

Status HashIndex::ScanReverse(uint64_t hi, uint64_t lo, size_t limit,
                              std::vector<Row*>* out) const {
  (void)hi;
  (void)lo;
  (void)limit;
  (void)out;
  return Status::NotSupported("hash index cannot scan in key order");
}

}  // namespace next700
