/// F11 — Index microbenchmarks (google-benchmark): point lookups, inserts,
/// and ordered scans for the hash index vs the B+-tree, under uniform and
/// zipfian key draws. Point lookups run on 1 and 4 threads, and the hash
/// index also at 4M keys, where the population no longer fits in cache.
/// Expected shape: hash wins point ops by a small integer factor; only the
/// B+-tree scans; both degrade gracefully under skew (hot buckets / hot
/// leaves stay cached).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_safety.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "storage/table.h"

namespace next700 {
namespace {

constexpr uint64_t kKeys = 1 << 18;
/// A population whose rows and index outgrow the last-level cache, so a
/// probe's cost includes its DRAM misses and the bucket layout shows.
constexpr uint64_t kLargeKeys = 1 << 22;

struct Fixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<Index> index;

  Fixture(IndexKind kind, uint64_t keys) {
    Schema s;
    s.AddUint64("v");
    table = std::make_unique<Table>(0, "t", std::move(s), 1);
    if (kind == IndexKind::kHash) {
      index = std::make_unique<HashIndex>(table.get(), keys);
    } else {
      index = std::make_unique<BTreeIndex>(table.get());
    }
    for (uint64_t key = 0; key < keys; ++key) {
      Row* row = table->AllocateRow(0);
      row->primary_key = key;
      NEXT700_CHECK(index->Insert(key, row).ok());
    }
  }
};

/// Built on first use and kept for the process lifetime, so the large
/// population is only loaded when a benchmark that needs it runs.
Fixture* SharedFixture(IndexKind kind, uint64_t keys = kKeys) {
  static Mutex mu;
  static std::map<std::pair<IndexKind, uint64_t>, std::unique_ptr<Fixture>>
      fixtures;
  MutexLock lock(&mu);
  std::unique_ptr<Fixture>& fixture = fixtures[{kind, keys}];
  if (fixture == nullptr) fixture = std::make_unique<Fixture>(kind, keys);
  return fixture.get();
}

void BM_PointLookup(benchmark::State& state) {
  const auto kind = static_cast<IndexKind>(state.range(0));
  const double theta = static_cast<double>(state.range(1)) / 100.0;
  const auto keys = static_cast<uint64_t>(state.range(2));
  Fixture* fixture = SharedFixture(kind, keys);
  Rng rng(42 + static_cast<uint64_t>(state.thread_index()));
  ZipfGenerator zipf(keys, theta);
  for (auto _ : state) {
    Row* row = fixture->index->Lookup(zipf.Next(&rng));
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(IndexKindName(kind)) +
                 (theta > 0 ? "/zipf" : "/uniform"));
}
// kind 0 is the hash index, 1 the B+-tree; theta is in hundredths.
BENCHMARK(BM_PointLookup)
    ->ArgNames({"kind", "theta", "keys"})
    ->Args({static_cast<int>(IndexKind::kHash), 0, kKeys})
    ->Args({static_cast<int>(IndexKind::kBTree), 0, kKeys})
    ->Args({static_cast<int>(IndexKind::kHash), 90, kKeys})
    ->Args({static_cast<int>(IndexKind::kBTree), 90, kKeys})
    ->Args({static_cast<int>(IndexKind::kHash), 0, kLargeKeys})
    ->Args({static_cast<int>(IndexKind::kHash), 90, kLargeKeys})
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_Insert(benchmark::State& state) {
  const auto kind = static_cast<IndexKind>(state.range(0));
  // Private fixture: inserts mutate the structure.
  Fixture fixture(kind, kKeys);
  uint64_t next = kKeys;
  for (auto _ : state) {
    Row* row = fixture.table->AllocateRow(0);
    row->primary_key = next;
    benchmark::DoNotOptimize(fixture.index->Insert(next, row).ok());
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(IndexKindName(kind));
}
BENCHMARK(BM_Insert)
    ->Args({static_cast<int>(IndexKind::kHash)})
    ->Args({static_cast<int>(IndexKind::kBTree)});

void BM_ScanBTree(benchmark::State& state) {
  const size_t span = static_cast<size_t>(state.range(0));
  Fixture* fixture = SharedFixture(IndexKind::kBTree);
  Rng rng(7);
  std::vector<Row*> out;
  for (auto _ : state) {
    out.clear();
    const uint64_t lo = rng.NextUint64(kKeys - span);
    benchmark::DoNotOptimize(
        fixture->index->Scan(lo, lo + span - 1, 0, &out).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(span));
  state.SetLabel("btree/span=" + std::to_string(span));
}
BENCHMARK(BM_ScanBTree)->Arg(16)->Arg(256)->Arg(4096);

void BM_RemoveInsertChurn(benchmark::State& state) {
  const auto kind = static_cast<IndexKind>(state.range(0));
  Fixture fixture(kind, kKeys);
  Rng rng(11);
  for (auto _ : state) {
    const uint64_t key = rng.NextUint64(kKeys);
    Row* row = fixture.index->Lookup(key);
    if (row != nullptr) {
      benchmark::DoNotOptimize(fixture.index->Remove(key, row));
      benchmark::DoNotOptimize(fixture.index->Insert(key, row).ok());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(IndexKindName(kind));
}
BENCHMARK(BM_RemoveInsertChurn)
    ->Args({static_cast<int>(IndexKind::kHash)})
    ->Args({static_cast<int>(IndexKind::kBTree)});

}  // namespace
}  // namespace next700

// Custom main: maps the repo-wide `--json <path>` convention onto
// google-benchmark's native JSON reporter, so every experiment binary is
// driven the same way by run_experiments / the CI bench smoke step.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out_format=json");
    args.push_back("--benchmark_out=" + json_path);
  }
  std::vector<char*> argv2;
  for (std::string& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
