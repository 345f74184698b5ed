/// engine-2pl: the engine alone, in process — no server, no log, no
/// shards. NO_WAIT 2PL over a YCSB-shaped table larger than the last-level
/// cache; four worker threads run the benchmark's own closed loop against
/// the Engine API, retrying conflicts with RunWithRetry. The cc, txn,
/// index and storage modules do all the work here.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "trace.h"
#include "txn/engine.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using next700::CcScheme;
using next700::Engine;
using next700::EngineOptions;
using next700::Index;
using next700::IndexKind;
using next700::Row;
using next700::Rng;
using next700::Schema;
using next700::Status;
using next700::Table;
using next700::TxnContext;
using next700::ZipfGenerator;

constexpr int kThreads = 4;
constexpr int kOpsPerTxn = 16;
constexpr int kFields = 10;  // 8-byte fields; field 0 is the counter.
constexpr double kTheta = 0.6;
constexpr double kRmwFraction = 0.2;
constexpr uint64_t kRows = 4u << 20;  // ~1.1 GB of rows and index.
constexpr uint64_t kTinyRows = 1u << 16;
/// Traced runs record spans for one transaction in this many per thread,
/// which keeps the span buffers to tens of MB.
constexpr uint64_t kTraceStride = 64;
constexpr size_t kSpanCapacity = 1u << 20;
/// Latency is kept for one committed transaction in this many per thread:
/// enough samples for every percentile reported, and memory that does not
/// grow with the host's speed (peak_rss_mb is an end-to-end metric).
constexpr uint64_t kLatencyStride = 8;
constexpr int kSetupRepeats = 3;

struct Database {
  std::unique_ptr<Engine> engine;
  Table* table = nullptr;
  Index* index = nullptr;
  uint64_t loaded_counter_sum = 0;
};

void Load(uint64_t rows, Database* db) {
  EngineOptions options;
  options.cc_scheme = CcScheme::kNoWait;
  options.max_threads = kThreads;
  db->engine = std::make_unique<Engine>(options);
  Schema schema;
  for (int f = 0; f < kFields; ++f) {
    std::string column = "f";
    column += std::to_string(f);
    schema.AddUint64(std::move(column));
  }
  db->table = db->engine->CreateTable("usertable", std::move(schema));
  db->index = db->engine->CreateIndex("usertable_pk", db->table,
                                      IndexKind::kHash, rows);
  const Schema& s = db->table->schema();
  std::vector<uint8_t> buf(s.row_size());
  db->loaded_counter_sum = 0;
  for (uint64_t key = 0; key < rows; ++key) {
    for (int f = 0; f < kFields; ++f) {
      s.SetUint64(buf.data(), f, key * 131 + static_cast<uint64_t>(f));
    }
    db->loaded_counter_sum += key * 131;
    Row* row = db->engine->LoadRow(db->table, 0, key, buf.data());
    if (!db->index->Insert(key, row).ok()) {
      std::fprintf(stderr, "engine-2pl: index insert failed\n");
      std::exit(2);
    }
  }
}

/// Sum of field 0 over every row, read with no transaction in flight.
uint64_t CounterSum(const Database& db) {
  uint64_t sum = 0;
  const Schema& s = db.table->schema();
  db.table->ForEachRow([&](Row* row) {
    sum += s.GetUint64(db.engine->RawImage(row), 0);
  });
  return sum;
}

struct Op {
  uint64_t key;
  bool rmw;
};

struct alignas(64) Worker {
  Worker(uint64_t seed, const ZipfGenerator& z) : rng(seed), zipf(z) {}
  Rng rng;
  ZipfGenerator zipf;
  std::atomic<uint64_t> commits{0};  // Read by the window sampler.
  uint64_t increments = 0;           // Committed rmw ops.
  uint64_t failed = 0;               // Non-conflict failures.
  uint64_t seq = 0;
  /// Sampled committed-transaction latencies, by the window they ended in.
  std::vector<std::vector<uint64_t>> latencies_ns;
  SpanBuffer* spans = nullptr;
};

/// Times one Engine call as a child span of the transaction, when the
/// transaction is traced.
struct Timer {
  SpanBuffer* spans = nullptr;
  uint32_t parent = kNoParent;

  template <typename Fn>
  auto operator()(SpanName name, Fn&& fn) const {
    if (spans == nullptr) return fn();
    const uint32_t id = spans->Begin(name, parent, NowNs());
    auto result = fn();
    spans->End(id, NowNs());
    return result;
  }
};

/// One attempt at `ops`; kAborted means the caller retries.
Status Attempt(Engine* engine, Index* index, const Schema& schema, int tid,
               const std::vector<Op>& ops, const Timer& timed,
               uint8_t* buf) {
  TxnContext* txn =
      timed(SpanName::kBegin, [&] { return engine->Begin(tid); });
  Status s;
  for (const Op& op : ops) {
    if (op.rmw) {
      s = timed(SpanName::kRmw, [&] {
        Status r = engine->ReadForUpdate(txn, index, op.key, buf);
        if (!r.ok()) return r;
        schema.SetUint64(buf, 0, schema.GetUint64(buf, 0) + 1);
        return engine->Update(txn, index, op.key, buf);
      });
    } else {
      s = timed(SpanName::kRead,
                [&] { return engine->Read(txn, index, op.key, buf); });
    }
    if (!s.ok()) break;
  }
  const bool ops_ok = s.ok();
  if (ops_ok) {
    s = timed(SpanName::kCommit, [&] { return engine->Commit(txn); });
    if (s.ok()) return s;
  }
  timed(SpanName::kAbort, [&] {
    // A failed Commit always takes Abort(); it is a no-op when the
    // transaction had already been finalized.
    if (s.IsAborted() || ops_ok) {
      engine->Abort(txn);
    } else {
      engine->AbortUser(txn);
    }
    return 0;
  });
  return s;
}

/// Sixteen distinct Zipf keys, each a read-modify-write with probability
/// kRmwFraction. Returns the number of rmw ops.
int Generate(Worker* w, std::vector<Op>* ops) {
  int rmws = 0;
  for (int i = 0; i < kOpsPerTxn; ++i) {
    uint64_t key;
    bool dup;
    do {
      key = w->zipf.Next(&w->rng);
      dup = false;
      for (int j = 0; j < i; ++j) dup |= (*ops)[j].key == key;
    } while (dup);
    const bool rmw = w->rng.NextDouble() < kRmwFraction;
    (*ops)[i] = Op{key, rmw};
    rmws += rmw ? 1 : 0;
  }
  return rmws;
}

void WorkerLoop(Database* db, Worker* w, int tid,
                const std::atomic<bool>& stop,
                const std::atomic<bool>& tracing,
                const std::atomic<size_t>& window, bool measure) {
  std::vector<Op> ops(kOpsPerTxn);
  std::vector<uint8_t> buf(db->table->schema().row_size());
  const Schema& schema = db->table->schema();
  uint64_t commits = w->commits.load(std::memory_order_relaxed);
  while (!stop.load(std::memory_order_relaxed)) {
    const int rmws = Generate(w, &ops);
    Timer timed;
    if (tracing.load(std::memory_order_relaxed) &&
        w->seq++ % kTraceStride == 0) {
      timed.spans = w->spans;
    }
    const uint64_t t0 = NowNs();
    if (timed.spans != nullptr) {
      timed.parent = timed.spans->Begin(SpanName::kTxn, kNoParent, t0);
      if (timed.parent == kNoParent) timed.spans = nullptr;  // Full.
    }
    const Status s = next700::RunWithRetry(&w->rng, [&] {
      return Attempt(db->engine.get(), db->index, schema, tid, ops, timed,
                     buf.data());
    });
    const uint64_t t1 = NowNs();
    if (timed.spans != nullptr) timed.spans->End(timed.parent, t1);
    if (s.ok()) {
      if (measure && commits % kLatencyStride == 0) {
        const size_t i = window.load(std::memory_order_relaxed);
        if (w->latencies_ns.size() <= i) w->latencies_ns.resize(i + 1);
        w->latencies_ns[i].push_back(t1 - t0);
      }
      w->increments += static_cast<uint64_t>(rmws);
      w->commits.store(++commits, std::memory_order_relaxed);
    } else {
      ++w->failed;
    }
  }
}

uint64_t TotalCommits(const std::vector<std::unique_ptr<Worker>>& workers) {
  uint64_t n = 0;
  for (const auto& w : workers) n += w->commits.load(std::memory_order_relaxed);
  return n;
}

/// Per-window commit rates of one phase, split by whether spans were
/// being recorded in the window.
struct PhaseResult {
  std::vector<double> rates;
  std::vector<double> traced_rates;
  uint64_t commits = 0;
  size_t windows = 0;
};

/// Runs the closed loop for `seconds`, sampling commit rate per window.
/// With `alternate_trace`, odd windows record spans and even ones do not,
/// so the tracing overhead is measured against interleaved neighbours.
PhaseResult RunPhase(Database* db,
                     const std::vector<std::unique_ptr<Worker>>& workers,
                     double seconds, double window_s, bool measure,
                     bool alternate_trace) {
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<size_t> window{0};
  const uint64_t first = TotalCommits(workers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(WorkerLoop, db, workers[t].get(), t,
                         std::cref(stop), std::cref(tracing),
                         std::cref(window), measure);
  }
  PhaseResult result;
  const int windows = std::max(1, static_cast<int>(seconds / window_s + 0.5));
  const uint64_t window_ns = static_cast<uint64_t>(window_s * 1e9);
  const uint64_t start = NowNs();
  uint64_t prev_ns = start;
  uint64_t prev = first;
  for (int i = 0; i < windows; ++i) {
    const uint64_t due = start + static_cast<uint64_t>(i + 1) * window_ns;
    const uint64_t before_sleep = NowNs();
    if (due > before_sleep) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - before_sleep));
    }
    const uint64_t now = NowNs();
    const uint64_t cur = TotalCommits(workers);
    const double rate = static_cast<double>(cur - prev) /
                        (static_cast<double>(now - prev_ns) / 1e9);
    (tracing.load() ? result.traced_rates : result.rates).push_back(rate);
    prev = cur;
    prev_ns = now;
    if (alternate_trace) tracing.store(i % 2 == 0);
    window.store(static_cast<size_t>(i) + 1, std::memory_order_relaxed);
  }
  result.windows = static_cast<size_t>(windows);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  result.commits = TotalCommits(workers) - first;
  return result;
}

double MeanNs(const SpanStats& s) {
  return s.count == 0 ? 0
                      : static_cast<double>(s.total_ns) /
                            static_cast<double>(s.count);
}

}  // namespace

void RunEngine2pl(const RunOptions& options, Report* report) {
  const uint64_t rows = options.tiny ? kTinyRows : kRows;
  Database db;
  const double setup_s = TimeSetup(
      options.tiny ? 2 : kSetupRepeats, [&] { Load(rows, &db); },
      [&] { db = Database{}; });

  const uint64_t before = CounterSum(db);
  if (before != db.loaded_counter_sum) {
    report->Fail("engine-2pl: loaded counter sum does not read back");
  }

  const ZipfGenerator zipf(rows, kTheta);
  Tracer tracer;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<Worker>(
        options.seed * 1000003 + static_cast<uint64_t>(t), zipf));
    if (options.trace) workers.back()->spans = tracer.NewBuffer(kSpanCapacity);
  }

  // Warm-up: NO_WAIT's lock table grows as rows are first touched, so
  // the first windows run slower (see NOTES.md, defect b).
  const double window_s = options.tiny ? 0.1 : 0.5;
  RunPhase(&db, workers, options.tiny ? 0.2 : 2.0, window_s,
           /*measure=*/false, /*alternate_trace=*/false);
  db.engine->ResetStats();

  const double rss0 = CurrentRssMb();
  const ProcUsage usage0 = SelfUsage();
  const PhaseResult phase = RunPhase(&db, workers, options.seconds, window_s,
                                     /*measure=*/true, options.trace);
  const ProcUsage usage1 = SelfUsage();
  const double rss1 = CurrentRssMb();
  const next700::RunStats stats = db.engine->AggregateStats();

  uint64_t increments = 0;
  uint64_t failed = 0;
  for (const auto& w : workers) {
    increments += w->increments;
    failed += w->failed;
  }
  // p50_us is the 25th percentile of the window medians, as on the served
  // workloads: a window slowed by other tenants reads high. Transactions
  // that ended after the last window closed are left out of it.
  std::vector<uint64_t> latencies;
  std::vector<double> window_p50s;
  std::vector<uint64_t> in_window;
  for (size_t i = 0; i < phase.windows; ++i) {
    in_window.clear();
    for (const auto& w : workers) {
      if (i >= w->latencies_ns.size()) continue;
      const std::vector<uint64_t>& l = w->latencies_ns[i];
      in_window.insert(in_window.end(), l.begin(), l.end());
    }
    if (in_window.empty()) continue;
    latencies.insert(latencies.end(), in_window.begin(), in_window.end());
    window_p50s.push_back(Percentile(&in_window, 0.50));
  }
  const uint64_t after = CounterSum(db);
  if (after - before != increments) {
    report->Fail("engine-2pl: counter sum grew by " +
                 std::to_string(after - before) + " but " +
                 std::to_string(increments) + " increments committed");
  }
  if (failed != 0) report->Fail("engine-2pl: non-conflict failures");
  report->attempted = phase.commits + failed;
  report->failed = failed;

  const double commits =
      static_cast<double>(std::max<uint64_t>(1, phase.commits));
  report->E2e("txn_s", UndisturbedRate(phase.rates), "1/s",
              phase.rates.size());
  report->E2e("p50_us", UndisturbedLatency(window_p50s) / 1e3, "us",
              latencies.size());
  report->Layer("client.p90_us", Percentile(&latencies, 0.90) / 1e3, "us",
                latencies.size());
  report->Layer("client.p99_us", Percentile(&latencies, 0.99) / 1e3, "us",
                latencies.size());
  report->E2e("setup_s", setup_s, "s");
  report->E2e("peak_rss_mb", PeakRssMb(), "MB");

  const uint64_t attempts = stats.commits + stats.aborts;
  report->Layer("cc.abort_frac", stats.AbortRatio(), "ratio", attempts);
  report->Layer("cc.attempts_per_commit",
                static_cast<double>(attempts) / commits, "ratio", attempts);
  report->Layer("cc.lock_waits_per_txn",
                static_cast<double>(stats.lock_waits) / commits, "count");
  report->Layer("storage.rss_growth_mb", rss1 - rss0, "MB");
  report->Layer("proc.cpu_us_per_txn",
                (usage1.cpu_us - usage0.cpu_us) / commits, "us");
  report->Layer("proc.vcsw_per_txn",
                static_cast<double>(usage1.vcsw - usage0.vcsw) / commits,
                "count");
  if (options.trace) {
    const std::vector<SpanStats> spans = tracer.Summarize();
    auto span = [&](SpanName n) -> const SpanStats& {
      return spans[static_cast<size_t>(n)];
    };
    report->Layer("txn.begin_ns", MeanNs(span(SpanName::kBegin)), "ns",
                  span(SpanName::kBegin).count);
    report->Layer("txn.read_ns", MeanNs(span(SpanName::kRead)), "ns",
                  span(SpanName::kRead).count);
    report->Layer("txn.rmw_ns", MeanNs(span(SpanName::kRmw)), "ns",
                  span(SpanName::kRmw).count);
    report->Layer("txn.commit_ns", MeanNs(span(SpanName::kCommit)), "ns",
                  span(SpanName::kCommit).count);
    report->Layer("txn.abort_ns", MeanNs(span(SpanName::kAbort)), "ns",
                  span(SpanName::kAbort).count);
    const SpanStats& txn = span(SpanName::kTxn);
    report->Layer("txn.self_ns",
                  txn.count == 0 ? 0
                                 : static_cast<double>(txn.self_ns) /
                                       static_cast<double>(txn.count),
                  "ns", txn.count);
    const double untraced = UndisturbedRate(phase.rates);
    report->Layer("trace.overhead_frac",
                  untraced > 0
                      ? 1.0 - UndisturbedRate(phase.traced_rates) / untraced
                      : 0.0,
                  "ratio", phase.rates.size() + phase.traced_rates.size());
    if (!tracer.WriteOut(options.run_dir + "/spans-engine-2pl.txt")) {
      report->Fail("engine-2pl: could not write the span file");
    }
  }
  report->fingerprint["cc"] = "NO_WAIT";
  report->fingerprint["rows"] = std::to_string(rows);
  report->fingerprint["threads"] = std::to_string(kThreads);
}

}  // namespace perfbench
