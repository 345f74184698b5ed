/// \file
/// Experiment A3: is the transaction hot path allocation-free?
///
/// Replaces global operator new with a counting shim, then runs YCSB
/// transactions inline on the calling thread (no driver threads, so every
/// counted allocation is attributable to the measured loop) and reports
/// allocations/txn and ns/txn per scheme and mix. After warm-up the
/// read-only path must report 0.0 allocations per transaction under SILO,
/// MVTO and the 2PL schemes (NO_WAIT, WAIT_DIE, WOUND_WAIT) — the per-worker
/// arenas, inline access-set small-vectors, version pools, batched
/// timestamps and in-row lock lists exist to make that number zero.
///
/// Columns: scheme, mix, txns, allocs_per_txn, ns_per_txn.

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "common/stats.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

// Every replacement delete frees through here. Kept out of line: once a
// delete is inlined next to the operator new call that produced its
// pointer, GCC reports free() on it as a mismatched deallocation
// (-Wmismatched-new-delete), although the shim's news allocate with
// malloc and posix_memalign.
[[gnu::noinline]] void FreeShim(void* p) noexcept { std::free(p); }
}  // namespace

// Counting shims: every heap allocation in this binary bumps g_allocs.
// Deletes deliberately don't count — the metric is allocation traffic.
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
namespace bench {
namespace {

struct Mix {
  const char* name;
  double write_fraction;
  bool read_modify_write;
};

struct Point {
  double allocs_per_txn;
  double ns_per_txn;
  uint64_t txns;
};

Point RunInline(CcScheme scheme, const Mix& mix) {
  YcsbOptions ycsb;
  ycsb.num_records = QuickMode() ? (uint64_t{1} << 13) : (uint64_t{1} << 16);
  ycsb.ops_per_txn = 16;  // Matches the read/write-set inline capacity.
  ycsb.write_fraction = mix.write_fraction;
  ycsb.read_modify_write = mix.read_modify_write;
  YcsbSetup setup = MakeYcsb(scheme, ycsb, /*max_threads=*/1);

  Rng rng(42);
  const uint64_t warmup = QuickMode() ? 2000 : 20000;
  const uint64_t measured = QuickMode() ? 5000 : 100000;
  // Warm-up: grows the per-worker arena, spills, version-pool freelists,
  // and thread-local workload scratch to their steady-state sizes.
  for (uint64_t i = 0; i < warmup; ++i) {
    NEXT700_CHECK(
        setup.workload->RunNextTxn(setup.engine.get(), 0, &rng).ok());
  }
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < measured; ++i) {
    NEXT700_CHECK(
        setup.workload->RunNextTxn(setup.engine.get(), 0, &rng).ok());
  }
  const uint64_t t1 = NowNanos();
  const uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);

  Point point;
  point.txns = measured;
  point.allocs_per_txn =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(measured);
  point.ns_per_txn =
      static_cast<double>(t1 - t0) / static_cast<double>(measured);
  return point;
}

int Main(int argc, char** argv) {
  JsonOutput json(argc, argv);
  json.SetExperiment(
      "A3", "Does the steady-state transaction hot path heap-allocate?");
  PrintHeader("A3",
              "Does the steady-state transaction hot path heap-allocate?",
              "scheme,mix,txns,allocs_per_txn,ns_per_txn");

  const Mix mixes[] = {
      {"read_only", 0.0, false},
      {"rmw_50", 0.5, true},
  };
  int failures = 0;
  for (CcScheme scheme : {CcScheme::kOcc, CcScheme::kMvto, CcScheme::kNoWait,
                          CcScheme::kWaitDie, CcScheme::kWoundWait}) {
    for (const Mix& mix : mixes) {
      const Point p = RunInline(scheme, mix);
      std::printf("%s,%s,%llu,%.4f,%.1f\n", CcSchemeName(scheme), mix.name,
                  static_cast<unsigned long long>(p.txns), p.allocs_per_txn,
                  p.ns_per_txn);
      json.AddPoint({{"scheme", JsonOutput::Str(CcSchemeName(scheme))},
                     {"mix", JsonOutput::Str(mix.name)},
                     {"txns", JsonOutput::Num(static_cast<double>(p.txns))},
                     {"allocs_per_txn", JsonOutput::Num(p.allocs_per_txn)},
                     {"ns_per_txn", JsonOutput::Num(p.ns_per_txn)}});
      // The headline acceptance bar: zero steady-state allocations on the
      // read-only path. Surfaced as a nonzero exit so CI smoke catches a
      // regression without parsing the JSON.
      if (mix.write_fraction == 0.0 && p.allocs_per_txn != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s read_only allocates %.4f times per txn\n",
                     CcSchemeName(scheme), p.allocs_per_txn);
        ++failures;
      }
    }
  }
  if (!json.Write()) return 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace next700

int main(int argc, char** argv) { return next700::bench::Main(argc, argv); }
