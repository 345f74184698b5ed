/// \file
/// Allocation regression guard for the zero-allocation hot path (PR "per-
/// worker arenas, inline access sets, batched timestamps"). Global operator
/// new is replaced with a counting shim, transactions run inline on the
/// test thread, and the steady-state YCSB read-only path must perform
/// exactly zero heap allocations under SILO and MVTO. The 2PL schemes
/// (NO_WAIT, WAIT_DIE, WOUND_WAIT) must stay at zero with writes in the mix,
/// including on rows locked for the first time: lock entries live in the
/// row header and the transaction arena, never on the heap. Loading a hash
/// index sized for its keys allocates only bucket overflow nodes.
///
/// This file is its own test binary (see tests/CMakeLists.txt): replacing
/// operator new is binary-global, and the main suite should not run under
/// the shim.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "index/hash_index.h"
#include "storage/table.h"
#include "workload/ycsb.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

// Every replacement delete frees through here. Kept out of line: once a
// delete is inlined next to the operator new call that produced its
// pointer, GCC reports free() on it as a mismatched deallocation
// (-Wmismatched-new-delete), although the shim's news allocate with
// malloc and posix_memalign.
[[gnu::noinline]] void FreeShim(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { FreeShim(p); }
void operator delete(void* p, std::size_t) noexcept { FreeShim(p); }
void operator delete[](void* p) noexcept { FreeShim(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeShim(p); }
void operator delete(void* p, std::align_val_t) noexcept { FreeShim(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  FreeShim(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { FreeShim(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  FreeShim(p);
}

namespace next700 {
namespace {

uint64_t SteadyStateAllocations(CcScheme scheme, const YcsbOptions& ycsb,
                                int warmup_txns, int measured_txns) {
  EngineOptions options;
  options.cc_scheme = scheme;
  options.max_threads = 1;
  Engine engine(options);
  YcsbWorkload workload(ycsb);
  workload.Load(&engine);

  Rng rng(7);
  // Warm-up grows the arena, the version pools, and the thread-local
  // workload scratch to their steady-state footprint.
  for (int i = 0; i < warmup_txns; ++i) {
    EXPECT_TRUE(workload.RunNextTxn(&engine, 0, &rng).ok());
  }
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < measured_txns; ++i) {
    EXPECT_TRUE(workload.RunNextTxn(&engine, 0, &rng).ok());
  }
  return g_allocs.load(std::memory_order_relaxed) - before;
}

uint64_t SteadyStateAllocations(CcScheme scheme) {
  YcsbOptions ycsb;
  ycsb.num_records = 1 << 12;
  ycsb.ops_per_txn = 16;
  ycsb.write_fraction = 0.0;  // Read-only: the acceptance path.
  return SteadyStateAllocations(scheme, ycsb, 5000, 5000);
}

// 2PL with half the operations writing (blind writes and read-for-update).
// The warm-up draws 16k uniform keys from 64k rows, so about three quarters
// of the table is still unlocked when the measured phase starts, and that
// phase locks thousands of rows for the first time: a per-row lock
// allocation on first touch would show here.
uint64_t TwoPhaseLockingAllocations(CcScheme scheme, bool read_modify_write) {
  YcsbOptions ycsb;
  ycsb.num_records = 1 << 16;
  ycsb.ops_per_txn = 16;
  ycsb.write_fraction = 0.5;
  ycsb.read_modify_write = read_modify_write;
  return SteadyStateAllocations(scheme, ycsb, 1000, 2000);
}

TEST(AllocRegressionTest, SiloReadOnlyHotPathIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(CcScheme::kOcc), 0u);
}

TEST(AllocRegressionTest, MvtoReadOnlyHotPathIsAllocationFree) {
  EXPECT_EQ(SteadyStateAllocations(CcScheme::kMvto), 0u);
}

TEST(AllocRegressionTest, NoWaitWriteMixIsAllocationFree) {
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kNoWait, false), 0u);
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kNoWait, true), 0u);
}

TEST(AllocRegressionTest, WaitDieWriteMixIsAllocationFree) {
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kWaitDie, false), 0u);
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kWaitDie, true), 0u);
}

TEST(AllocRegressionTest, WoundWaitWriteMixIsAllocationFree) {
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kWoundWait, false), 0u);
  EXPECT_EQ(TwoPhaseLockingAllocations(CcScheme::kWoundWait, true), 0u);
}

// Inline bucket slots hold most entries: at the load factor the capacity
// hint is sized for (kGrowLoadFactor entries per bucket), about one entry
// in nine spills to an overflow node. One node per entry would be kKeys.
TEST(AllocRegressionTest, HashIndexLoadAllocatesOnlyOverflowNodes) {
  constexpr uint64_t kKeys = 1 << 16;
  Schema schema;
  schema.AddUint64("v");
  Table table(0, "t", std::move(schema), 1);
  std::vector<Row*> rows;
  for (uint64_t k = 0; k < kKeys; ++k) rows.push_back(table.AllocateRow(0));

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  HashIndex index(&table, kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(index.Insert(k, rows[k]).ok());
  }
  EXPECT_LT(g_allocs.load(std::memory_order_relaxed) - before, kKeys / 5);

  before = g_allocs.load(std::memory_order_relaxed);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(index.Lookup(k), rows[k]);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
}

// Sanity-check the shim itself: a vector growth must be visible, otherwise
// the tests above would pass vacuously.
TEST(AllocRegressionTest, ShimCountsAllocations) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::vector<uint64_t>* v = new std::vector<uint64_t>();
  v->resize(1024);
  delete v;
  EXPECT_GE(g_allocs.load(std::memory_order_relaxed) - before, 2u);
}

}  // namespace
}  // namespace next700
