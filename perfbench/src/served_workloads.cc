/// The two served workloads. Both run the server (and, for shard-2pc, the
/// shard router) in process on loopback, with SILO and value logging, and
/// drive them with the benchmark's own client (loadgen.h). After a 1 s
/// warm-up the run alternates 1 s slices of two phases:
///
///   A. closed loop at a fixed connection count and pipeline depth: txn_s
///      comes from the 0.5 s window commit rates (UndisturbedRate);
///   B. open loop at a fixed rate (about 10% of phase A on a 4-core host),
///      each request timed from when it was due: p50_us comes from each
///      slice's median (UndisturbedLatency).
///
/// Interleaving the phases keeps a burst of interference from other
/// tenants of a shared host from landing on one phase only; the whole-run
/// tail is reported per layer (client.p90_us, client.p99_us).
///
/// kv-mixed: one server, 50% get / 25% put / 25% two-key rmw, uniform over
/// 100k keys. The server, io and log layers carry the work: gets skip the
/// log, puts and rmws wait for group commit.
/// shard-2pc: two shard servers behind a ShardRouter, pure two-key rmw
/// with 10% deliberately cross-shard. The router fast path and the 2PC
/// coordinator pool carry the work.
///
/// Correctness: puts and rmws touch disjoint keys and every put writes the
/// key's seed counter, so the full-keyspace RunKvAudit increment sum must
/// lie between the acknowledged and the attempted rmw increments.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "log/log_file.h"
#include "server/loadgen.h"
#include "server/procs.h"
#include "server/server.h"
#include "shard/shard_router.h"

namespace perfbench {
namespace {

using next700::CcScheme;
using next700::Engine;
using next700::EngineOptions;
using next700::LoggingKind;
using next700::LogSyncPolicy;
using next700::Rng;
using next700::Status;
using next700::server::KvServiceOptions;
using next700::server::Server;
using next700::server::ServerOptions;
using next700::server::WireWriter;
using next700::shard::ShardRouter;
using next700::shard::ShardRouterOptions;

constexpr int kWorkers = 2;  // Per server.
constexpr uint32_t kValueSize = 64;
constexpr uint64_t kKeys = 100000;
constexpr uint64_t kTinyKeys = 4000;
constexpr int kSetupRepeats = 15;
constexpr size_t kSpanCapacity = 4u << 20;

/// Load shapes, fixed per workload so runs of different commits offer the
/// same load.
struct Shape {
  int connections;
  int depth;
  double open_rate;  // Phase B requests per second.
};
constexpr Shape kKvShape{4, 32, 30000};
constexpr Shape kShardShape{4, 16, 15000};
constexpr double kCrossShardFraction = 0.01;
constexpr uint32_t kNumShards = 2;
/// Global partition map; the router's prepares declare partitions under
/// it, so every engine behind the router must use the same count.
constexpr uint32_t kPartitions = 4;

/// The servers' log device: appends are copied into a reused 1 MB ring and
/// the barrier is free but counted. The log's own work (record staging,
/// group commit, the flusher hand-off, replies held until the flush) is
/// unchanged; only the device is memory. On the shared virtual disk this
/// benchmark was sized on, barrier latency swung 2-4x between runs with
/// other tenants' I/O, and page-cache writeback stalled unsynced logs, so
/// neither real-disk setting repeated (see NOTES.md).
class MemoryLogFile final : public next700::LogFile {
 public:
  Status Open(const std::string&, bool) override { return Status::OK(); }
  Status Append(const uint8_t* data, size_t len) override {
    ++writes_;
    while (len > 0) {
      const size_t n = std::min(len, ring_.size() - offset_);
      std::memcpy(ring_.data() + offset_, data, n);
      offset_ = (offset_ + n) % ring_.size();
      data += n;
      len -= n;
    }
    return Status::OK();
  }
  Status Sync() override {
    ++syncs_;
    return Status::OK();
  }
  void Close() override {}
  uint64_t sync_count() const override { return syncs_; }
  uint64_t write_count() const override { return writes_; }

 private:
  std::vector<uint8_t> ring_ = std::vector<uint8_t>(1u << 20);
  size_t offset_ = 0;
  uint64_t syncs_ = 0;
  uint64_t writes_ = 0;
};

struct KvServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  std::string log_dir;

  ~KvServer() {
    if (server != nullptr) server->Stop();
    server.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(log_dir, ec);
  }
};

std::unique_ptr<KvServer> StartKv(const std::string& log_dir, uint64_t keys,
                                  uint32_t shard_id, uint32_t num_shards) {
  auto kv = std::make_unique<KvServer>();
  kv->log_dir = log_dir;
  std::error_code ec;
  std::filesystem::remove_all(log_dir, ec);
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = kWorkers;
  eng.num_partitions = kPartitions;
  eng.logging = LoggingKind::kValue;
  eng.log_dir = log_dir;
  eng.log_sync = LogSyncPolicy::kFdatasync;
  eng.log_file_factory = [] { return std::make_unique<MemoryLogFile>(); };
  kv->engine = std::make_unique<Engine>(eng);
  KvServiceOptions service;
  service.num_records = keys;
  service.value_size = kValueSize;
  service.shard_id = shard_id;
  service.num_shards = num_shards;
  next700::server::RegisterKvService(kv->engine.get(), service);
  ServerOptions srv;
  srv.num_workers = kWorkers;
  kv->server = std::make_unique<Server>(kv->engine.get(), srv);
  const Status s = kv->server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return kv;
}

/// Counters read through public accessors around each phase A slice. On
/// shard-2pc the server, log and engine counters are summed over shards.
enum Counter {
  kLogFlushes,
  kLogSyncs,
  kLogBytes,
  kRepliesHeld,
  kResponses,
  kIoSyscalls,
  kWritevBatches,
  kFramesBatched,
  kAdmissionRejects,
  kPrepares,
  kCommits,  // Engine::AggregateStats(), read only between slices.
  kAborts,
  kLockWaits,
  kCrossCommits,  // Router counters (shard-2pc only) from here on.
  kCrossAborts,
  kVoteTimeouts,
  kRouterSyscalls,
  kRouterWritevBatches,
  kRouterFramesBatched,
  kDecisionLogBytes,
  kNumCounters,
};
using Counters = std::array<uint64_t, kNumCounters>;

uint64_t Get(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

void AddServer(const KvServer& kv, Counters* c) {
  const next700::LogManager* log = kv.engine->log_manager();
  (*c)[kLogFlushes] += log->flush_count();
  (*c)[kLogSyncs] += log->sync_count();
  (*c)[kLogBytes] += log->appended_lsn();
  const next700::server::ServerStats& s = kv.server->stats();
  (*c)[kRepliesHeld] += Get(s.replies_held_durable);
  (*c)[kResponses] += Get(s.responses_sent);
  (*c)[kWritevBatches] += Get(s.writev_batches);
  (*c)[kFramesBatched] += Get(s.frames_batched);
  (*c)[kAdmissionRejects] += Get(s.admission_rejects);
  (*c)[kPrepares] += Get(s.prepares_dispatched);
  if (const next700::io::IoCounters* io = kv.server->io_counters()) {
    (*c)[kIoSyscalls] += Get(io->syscalls);
  }
  const next700::RunStats run = kv.engine->AggregateStats();
  (*c)[kCommits] += run.commits;
  (*c)[kAborts] += run.aborts;
  (*c)[kLockWaits] += run.lock_waits;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

void AddRouter(const ShardRouter& router, const std::string& log_dir,
               Counters* c) {
  const next700::shard::ShardRouterStats& s = router.stats();
  (*c)[kCrossCommits] += Get(s.cross_shard_commits);
  (*c)[kCrossAborts] += Get(s.cross_shard_aborts);
  (*c)[kVoteTimeouts] += Get(s.vote_timeouts);
  (*c)[kRouterWritevBatches] += Get(s.writev_batches);
  (*c)[kRouterFramesBatched] += Get(s.frames_batched);
  (*c)[kRouterSyscalls] += router.io_syscalls();
  (*c)[kDecisionLogBytes] += DirBytes(log_dir);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Everything a served workload supplies to RunPhases.
struct Served {
  std::string name;
  uint16_t port = 0;
  Shape shape{};
  std::vector<SpanName> kind_spans;
  RequestSource source;
  std::function<void(Counters*)> snapshot;
};

/// What the phases leave for the workload-specific metrics.
struct PhaseTotals {
  /// Phase B latencies by request kind.
  std::vector<std::vector<uint64_t>> open_latencies_ns;
  Counters delta{};                   // Phase A counter increase.
  uint64_t txns = 0;                  // Transactions committed in phase A.
};

void Accumulate(const LoadResult& r, LoadResult* total) {
  total->attempted += r.attempted;
  total->ok += r.ok;
  total->failed += r.failed;
  total->increments_acked += r.increments_acked;
  total->increments_attempted += r.increments_attempted;
  total->bad_replies += r.bad_replies;
  total->retries += r.retries;
  for (const auto& [cause, n] : r.failures) total->failures[cause] += n;
  total->rates.insert(total->rates.end(), r.rates.begin(), r.rates.end());
  total->traced_rates.insert(total->traced_rates.end(),
                             r.traced_rates.begin(), r.traced_rates.end());
  total->late_ns.insert(total->late_ns.end(), r.late_ns.begin(),
                        r.late_ns.end());
}

void Audit(const Served& served, uint64_t keys, const LoadResult& total,
           Report* report) {
  if (total.bad_replies != 0) {
    report->Fail(served.name + ": " + std::to_string(total.bad_replies) +
                 " get replies with a wrong payload");
  }
  next700::server::LoadGenOptions audit_options;
  audit_options.port = served.port;
  audit_options.num_records = keys;
  audit_options.value_size = kValueSize;
  audit_options.num_partitions = kPartitions;
  next700::server::KvAuditResult audit;
  const Status s = next700::server::RunKvAudit(audit_options, 0, &audit);
  if (!s.ok() || audit.errors != 0 || audit.missing != 0) {
    report->Fail(served.name + ": audit failed: " + s.ToString());
  } else if (audit.increment_sum < total.increments_acked ||
             audit.increment_sum > total.increments_attempted) {
    report->Fail(served.name + ": audit increment sum " +
                 std::to_string(audit.increment_sum) + " outside [" +
                 std::to_string(total.increments_acked) + ", " +
                 std::to_string(total.increments_attempted) + "]");
  }
}

/// Warm-up, then alternating phase A and phase B slices, then the audit.
/// Fills the end-to-end metrics and the per-layer metrics both served
/// workloads share.
PhaseTotals RunPhases(const RunOptions& options, const Served& served,
                      Report* report) {
  Tracer tracer;
  SpanBuffer* spans =
      options.trace ? tracer.NewBuffer(kSpanCapacity) : nullptr;
  const double slice_s = options.tiny ? 0.25 : 1.0;
  const int slices = std::max(
      1, static_cast<int>(options.seconds / (2 * slice_s) + 0.5));
  uint64_t next_seed = options.seed * 7919;

  LoadSpec closed;
  closed.port = served.port;
  closed.connections = served.shape.connections;
  closed.depth = served.shape.depth;
  closed.kind_spans = served.kind_spans;
  closed.value_size = kValueSize;
  closed.window_s = options.tiny ? 0.125 : 0.5;
  closed.seconds = options.tiny ? 0.2 : 1.0;
  closed.seed = ++next_seed;
  LoadResult total;
  Accumulate(RunLoad(closed, served.source, nullptr), &total);  // Warm-up.

  LoadSpec open = closed;
  open.rate = options.tiny ? served.shape.open_rate / 10
                           : served.shape.open_rate;
  open.seconds = slice_s;
  open.trace = options.trace;
  closed.seconds = slice_s;
  closed.trace = options.trace;

  PhaseTotals out;
  out.open_latencies_ns.resize(served.kind_spans.size());
  LoadResult phase_a;
  std::vector<double> p50s;
  std::vector<uint64_t> all;
  const double rss_start = CurrentRssMb();
  double cpu_us = 0;
  double vcsw = 0;
  for (int i = 0; i < slices; ++i) {
    Counters before{};
    Counters after{};
    served.snapshot(&before);
    const ProcUsage usage0 = SelfUsage();
    closed.seed = ++next_seed;
    const LoadResult a = RunLoad(closed, served.source, spans);
    const ProcUsage usage1 = SelfUsage();
    served.snapshot(&after);
    for (int c = 0; c < kNumCounters; ++c) out.delta[c] += after[c] - before[c];
    cpu_us += usage1.cpu_us - usage0.cpu_us - a.generator.cpu_us;
    vcsw += static_cast<double>(usage1.vcsw - usage0.vcsw - a.generator.vcsw);
    Accumulate(a, &phase_a);
    Accumulate(a, &total);

    open.seed = ++next_seed;
    const LoadResult b = RunLoad(open, served.source, spans);
    Accumulate(b, &total);
    std::vector<uint64_t> slice;
    for (size_t k = 0; k < b.latencies_ns.size(); ++k) {
      const std::vector<uint64_t>& l = b.latencies_ns[k];
      slice.insert(slice.end(), l.begin(), l.end());
      std::vector<uint64_t>& into = out.open_latencies_ns[k];
      into.insert(into.end(), l.begin(), l.end());
    }
    all.insert(all.end(), slice.begin(), slice.end());
    p50s.push_back(Percentile(&slice, 0.50));
  }
  const double rss_growth = CurrentRssMb() - rss_start;
  out.txns = phase_a.ok;

  report->attempted = total.attempted;
  report->failed = total.failed;
  report->retried = total.retries;
  report->failed_by_cause = total.failures;
  Audit(served, options.tiny ? kTinyKeys : kKeys, total, report);

  report->E2e("txn_s", UndisturbedRate(phase_a.rates), "1/s",
              phase_a.rates.size());
  report->E2e("p50_us", UndisturbedLatency(p50s) / 1e3, "us", all.size());
  report->Layer("client.p90_us", Percentile(&all, 0.90) / 1e3, "us",
                all.size());
  report->Layer("client.p99_us", Percentile(&all, 0.99) / 1e3, "us",
                all.size());

  const Counters& d = out.delta;
  const double ok = static_cast<double>(out.txns);
  const uint64_t attempts = d[kCommits] + d[kAborts];
  report->Layer("cc.abort_frac", Ratio(d[kAborts], attempts), "ratio",
                attempts);
  report->Layer("cc.attempts_per_commit", Ratio(attempts, d[kCommits]),
                "ratio", attempts);
  report->Layer("cc.lock_waits_per_txn", Ratio(d[kLockWaits], ok), "count");
  report->Layer("storage.rss_growth_mb", rss_growth, "MB");
  report->Layer("log.flushes_per_txn", Ratio(d[kLogFlushes], ok), "count");
  report->Layer("log.syncs_per_txn", Ratio(d[kLogSyncs], ok), "count");
  report->Layer("log.bytes_per_txn", Ratio(d[kLogBytes], ok), "B");
  report->Layer("server.held_frac", Ratio(d[kRepliesHeld], d[kResponses]),
                "ratio");
  report->Layer("io.syscalls_per_txn", Ratio(d[kIoSyscalls], ok), "count");
  report->Layer("server.frames_per_writev",
                Ratio(d[kFramesBatched], d[kWritevBatches]), "count");
  report->Layer("server.admission_rejects",
                static_cast<double>(d[kAdmissionRejects]), "count");
  report->Layer("proc.cpu_us_per_txn", Ratio(cpu_us, ok), "us");
  report->Layer("proc.vcsw_per_txn", Ratio(vcsw, ok), "count");
  std::vector<uint64_t>& late = total.late_ns;
  report->Layer("loadgen.late_p99_us", Percentile(&late, 0.99) / 1e3, "us",
                late.size());
  if (options.trace) {
    const double untraced = UndisturbedRate(phase_a.rates);
    report->Layer(
        "trace.overhead_frac",
        untraced > 0 ? 1.0 - UndisturbedRate(phase_a.traced_rates) / untraced
                     : 0.0,
        "ratio", phase_a.rates.size() + phase_a.traced_rates.size());
    if (!tracer.WriteOut(options.run_dir + "/spans-" + served.name +
                         ".txt")) {
      report->Fail(served.name + ": could not write the span file");
    }
  }
  return out;
}

void KindLatency(Report* report, const std::string& metric,
                 std::vector<uint64_t> v, double q) {
  report->Layer(metric, Percentile(&v, q) / 1e3, "us", v.size());
}

uint64_t UniformKey(Rng* rng, uint64_t n) { return rng->NextUint64(n); }

}  // namespace

void RunKvMixed(const RunOptions& options, Report* report) {
  const uint64_t keys = options.tiny ? kTinyKeys : kKeys;
  const std::string log_dir = options.run_dir + "/kv-mixed.log";
  std::unique_ptr<KvServer> kv;
  const double setup_s = TimeSetup(
      options.tiny ? 2 : kSetupRepeats,
      [&] { kv = StartKv(log_dir, keys, 0, 1); }, [&] { kv.reset(); });

  enum Kind { kGetKind, kPutKind, kRmwKind };
  Served served;
  served.name = "kv-mixed";
  served.port = kv->server->port();
  served.shape = kKvShape;
  served.kind_spans = {SpanName::kGet, SpanName::kPut, SpanName::kRmwRequest};
  // Put keys are the multiples of 4, rmw keys the rest: disjoint sets.
  const uint64_t put_keys = keys / 4;
  const uint64_t rmw_keys = keys - put_keys;
  auto rmw_key = [](uint64_t j) { return (j / 3) * 4 + j % 3 + 1; };
  served.source = [=](Rng* rng, GenRequest* g) {
    next700::server::Request& r = g->request;
    r.args.clear();
    WireWriter args(&r.args);
    g->increments = 0;
    g->get_key = UINT64_MAX;
    const double op = rng->NextDouble();
    if (op < 0.50) {
      g->kind = kGetKind;
      r.proc_id = next700::server::kKvGet;
      g->get_key = UniformKey(rng, keys);
      args.PutU64(g->get_key);
    } else if (op < 0.75) {
      g->kind = kPutKind;
      r.proc_id = next700::server::kKvPut;
      const uint64_t key = UniformKey(rng, put_keys) * 4;
      args.PutU64(key);
      args.PutU64(key);  // The seed counter, so the audit stays exact.
      for (uint32_t i = 8; i < kValueSize; ++i) {
        args.PutU8(static_cast<uint8_t>(rng->Next()));
      }
    } else {
      g->kind = kRmwKind;
      r.proc_id = next700::server::kKvRmw;
      const uint64_t a = UniformKey(rng, rmw_keys);
      uint64_t b = UniformKey(rng, rmw_keys - 1);
      if (b >= a) ++b;
      args.PutU16(2);
      args.PutU64(rmw_key(a));
      args.PutU64(rmw_key(b));
      g->increments = 2;
    }
  };
  served.snapshot = [&](Counters* c) { AddServer(*kv, c); };

  const PhaseTotals totals = RunPhases(options, served, report);
  report->E2e("setup_s", setup_s, "s");
  report->E2e("peak_rss_mb", PeakRssMb(), "MB");
  const auto& kinds = totals.open_latencies_ns;
  KindLatency(report, "client.get_p50_us", kinds[kGetKind], 0.50);
  KindLatency(report, "client.get_p99_us", kinds[kGetKind], 0.99);
  KindLatency(report, "client.put_p50_us", kinds[kPutKind], 0.50);
  KindLatency(report, "client.rmw_p50_us", kinds[kRmwKind], 0.50);
  KindLatency(report, "client.rmw_p99_us", kinds[kRmwKind], 0.99);

  report->fingerprint["net_io_backend"] = kv->server->io_backend_name();
  report->fingerprint["log_io_backend"] =
      kv->engine->log_manager()->io_backend_name();
  report->fingerprint["log_device"] = "memory";
  report->fingerprint["server_workers"] = std::to_string(kWorkers);
  report->fingerprint["open_rate"] = std::to_string(kKvShape.open_rate);
}

void RunShard2pc(const RunOptions& options, Report* report) {
  const uint64_t keys = options.tiny ? kTinyKeys : kKeys;
  const std::string router_log = options.run_dir + "/shard-2pc.router.log";
  std::vector<std::unique_ptr<KvServer>> shards;
  std::unique_ptr<ShardRouter> router;
  ShardRouterOptions router_options;
  auto start = [&] {
    router_options = ShardRouterOptions{};
    for (uint32_t i = 0; i < kNumShards; ++i) {
      shards.push_back(StartKv(options.run_dir + "/shard-2pc.s" +
                                   std::to_string(i) + ".log",
                               keys, i, kNumShards));
      router_options.shards.push_back(
          "127.0.0.1:" + std::to_string(shards.back()->server->port()));
    }
    std::error_code ec;
    std::filesystem::remove_all(router_log, ec);
    router_options.log_dir = router_log;
    router_options.num_partitions = kPartitions;
    router = std::make_unique<ShardRouter>(router_options);
    if (!router->Start().ok() || !router->WaitShardsConnected(15000)) {
      std::fprintf(stderr, "shard router failed to start\n");
      std::exit(2);
    }
  };
  auto stop = [&] {
    router->Stop();
    router.reset();
    shards.clear();
    std::error_code ec;
    std::filesystem::remove_all(router_log, ec);
  };
  const double setup_s =
      TimeSetup(options.tiny ? 2 : kSetupRepeats, start, stop);

  enum Kind { kSingleKind, kCrossKind };
  Served served;
  served.name = "shard-2pc";
  served.port = router->port();
  served.shape = kShardShape;
  served.kind_spans = {SpanName::kSingleShard, SpanName::kCrossShard};
  served.source = [=](Rng* rng, GenRequest* g) {
    next700::server::Request& r = g->request;
    r.args.clear();
    r.proc_id = next700::server::kKvRmw;
    WireWriter args(&r.args);
    uint64_t a;
    uint64_t b;
    if (rng->NextDouble() < kCrossShardFraction) {
      // Adjacent keys live on different shards under key % 2.
      g->kind = kCrossKind;
      a = UniformKey(rng, keys - 1);
      b = a + 1;
    } else {
      g->kind = kSingleKind;
      const uint64_t shard = UniformKey(rng, kNumShards);
      const uint64_t per_shard = keys / kNumShards;
      const uint64_t i = UniformKey(rng, per_shard);
      uint64_t j = UniformKey(rng, per_shard - 1);
      if (j >= i) ++j;
      a = i * kNumShards + shard;
      b = j * kNumShards + shard;
    }
    args.PutU16(2);
    args.PutU64(a);
    args.PutU64(b);
    g->increments = 2;
    g->get_key = UINT64_MAX;
  };
  served.snapshot = [&](Counters* c) {
    for (const auto& s : shards) AddServer(*s, c);
    AddRouter(*router, router_log, c);
  };

  const PhaseTotals totals = RunPhases(options, served, report);
  report->E2e("setup_s", setup_s, "s");
  report->E2e("peak_rss_mb", PeakRssMb(), "MB");
  const auto& kinds = totals.open_latencies_ns;
  KindLatency(report, "client.single_p50_us", kinds[kSingleKind], 0.50);
  KindLatency(report, "client.single_p99_us", kinds[kSingleKind], 0.99);
  KindLatency(report, "client.cross_p50_us", kinds[kCrossKind], 0.50);
  KindLatency(report, "client.cross_p99_us", kinds[kCrossKind], 0.99);

  const Counters& d = totals.delta;
  const double txns = static_cast<double>(totals.txns);
  const uint64_t cross = d[kCrossCommits] + d[kCrossAborts];
  report->Layer("shard.cross_commit_frac", Ratio(d[kCrossCommits], txns),
                "ratio");
  report->Layer("shard.vote_timeouts", static_cast<double>(d[kVoteTimeouts]),
                "count");
  report->Layer("shard.router_syscalls_per_txn",
                Ratio(d[kRouterSyscalls], txns), "count");
  report->Layer("shard.frames_per_writev",
                Ratio(d[kRouterFramesBatched], d[kRouterWritevBatches]),
                "count");
  report->Layer("shard.prepares_per_cross", Ratio(d[kPrepares], cross),
                "count");
  report->Layer("shard.decision_log_bytes_per_cross",
                Ratio(d[kDecisionLogBytes], d[kCrossCommits]), "B");

  report->fingerprint["net_io_backend"] = shards[0]->server->io_backend_name();
  report->fingerprint["log_io_backend"] =
      shards[0]->engine->log_manager()->io_backend_name();
  report->fingerprint["log_device"] = "memory (shards), disk (router)";
  report->fingerprint["router_loops"] = std::to_string(router->num_loops());
  report->fingerprint["shard_workers"] = std::to_string(kWorkers);
  report->fingerprint["coordinator_threads"] =
      std::to_string(router_options.coordinator_threads);
  report->fingerprint["open_rate"] = std::to_string(kShardShape.open_rate);
  stop();
}

}  // namespace perfbench
