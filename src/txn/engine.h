#ifndef NEXT700_TXN_ENGINE_H_
#define NEXT700_TXN_ENGINE_H_

/// \file
/// The composable transaction processing engine. An Engine is assembled
/// from orthogonal components chosen in EngineOptions — concurrency
/// control, timestamp allocation, logging, partitioning — over the shared
/// storage and index substrates. Sweeping those axes enumerates the
/// keynote's "next 700 engines"; the design-space benchmark (T3) does
/// exactly that.
///
/// Threading model: the caller assigns each worker a thread id in
/// [0, max_threads); Begin() hands out that worker's reusable TxnContext.
/// All data operations take the TxnContext and return Status; kAborted
/// means the transaction lost a conflict and the caller must Abort() and
/// (typically) retry.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc.h"
#include "cc/mvto.h"
#include "common/epoch.h"
#include "common/status.h"
#include "common/stats.h"
#include "common/thread_safety.h"
#include "common/timestamp.h"
#include "index/index.h"
#include "log/log_manager.h"
#include "storage/catalog.h"
#include "storage/version_pool.h"
#include "txn/txn.h"

namespace next700 {

class CheckpointCoordinator;
struct CheckpointStats;

struct EngineOptions {
  CcScheme cc_scheme = CcScheme::kOcc;
  int max_threads = 8;
  /// Default partition count for new tables and the H-Store lock domain.
  uint32_t num_partitions = 1;
  TimestampAllocatorKind ts_allocator = TimestampAllocatorKind::kAtomic;
  /// MVTO: incremental version-chain garbage collection.
  bool mvcc_gc = true;

  LoggingKind logging = LoggingKind::kNone;
  /// Directory holding the log.NNNNNN segment files (created on demand;
  /// surviving segments are kept and the LSN space resumes after them).
  std::string log_dir;
  /// Wait for the commit record to reach the device before returning.
  bool sync_commit = true;
  /// Durability barrier per group-commit flush. kNone makes sync_commit
  /// wait only for the write() — fast, but a kernel crash can lose it.
  LogSyncPolicy log_sync = LogSyncPolicy::kNone;
  uint64_t log_flush_interval_us = 50;
  /// Rotate to a new segment once the live one exceeds this (0 = never).
  uint64_t log_segment_bytes = 64ull << 20;
  /// Overrides the log's device backend (fault injection, EINTR shims).
  LogFileFactory log_file_factory;
  /// Submission backend for the log device (see LogManagerOptions): kAuto
  /// and kUring use a private ring for linked write+barrier submission,
  /// kEpoll keeps the synchronous write+fdatasync path. A custom
  /// log_file_factory always wins over the ring.
  io::IoBackendKind log_io_backend = io::IoBackendKind::kAuto;

  /// Online checkpointing: directory for MANIFEST + checkpoint files.
  /// Non-empty constructs a CheckpointCoordinator — the engine reads the
  /// MANIFEST's log base at startup so the LSN space resumes correctly
  /// over a truncated log — and enables the transaction gate the snapshot
  /// scans quiesce through. Start the background thread with
  /// StartCheckpointer() *after* DDL and loading.
  std::string checkpoint_dir;
  /// Background checkpoint cadence; 0 = manual TriggerCheckpoint() only.
  uint64_t checkpoint_interval_ms = 0;
  /// Retire log segments wholly below each checkpoint's start LSN.
  bool checkpoint_truncates_log = true;
  /// Crash-harness hook for the install sequence (see CheckpointerOptions).
  std::function<void(const char*)> checkpoint_crash_hook;
};

/// A stored procedure: re-executable transaction logic for command logging
/// and recovery. Must be deterministic given its arguments.
using Procedure =
    std::function<Status(class Engine*, TxnContext*, const uint8_t* args,
                         size_t arg_len)>;

class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }
  Catalog* catalog() { return &catalog_; }
  ConcurrencyControl* cc() { return cc_.get(); }
  LogManager* log_manager() { return log_.get(); }
  TimestampAllocator* ts_allocator() { return ts_allocator_.get(); }

  // --- DDL (single-threaded setup) --------------------------------------

  /// Creates a table partitioned options().num_partitions ways.
  Table* CreateTable(std::string name, Schema schema);
  Index* CreateIndex(std::string name, Table* table, IndexKind kind,
                     uint64_t capacity_hint);

  /// Registers deterministic transaction logic under `proc_id` (command
  /// logging + recovery). `read_only` marks procedures that never write —
  /// a read-only replica serves exactly those against its applied
  /// snapshot and rejects everything else.
  void RegisterProcedure(uint32_t proc_id, Procedure procedure,
                         bool read_only = false);
  const Procedure* GetProcedure(uint32_t proc_id) const;
  /// True iff `proc_id` is registered and was declared read-only.
  bool IsProcedureReadOnly(uint32_t proc_id) const;

  // --- Transactions ------------------------------------------------------

  /// Starts a transaction on the calling worker. For the H-Store scheme,
  /// `partitions` must list every partition the transaction will touch
  /// (empty = all partitions).
  TxnContext* Begin(int thread_id,
                    const std::vector<uint32_t>& partitions = {});

  /// Point read through `index`. kNotFound if no visible row has `key`.
  Status Read(TxnContext* txn, Index* index, uint64_t key, uint8_t* out);

  /// Read via a row handle obtained from an index scan.
  Status ReadRow(TxnContext* txn, Row* row, uint8_t* out);

  /// Read with declared write intent (SELECT ... FOR UPDATE): use when an
  /// Update of the same row follows in this transaction.
  Status ReadForUpdate(TxnContext* txn, Index* index, uint64_t key,
                       uint8_t* out);
  Status ReadRowForUpdate(TxnContext* txn, Row* row, uint8_t* out);

  /// Full-row update through `index`.
  Status Update(TxnContext* txn, Index* index, uint64_t key,
                const void* data);
  Status UpdateRow(TxnContext* txn, Row* row, const void* data);

  /// Allocates and stages a new row; visible (and indexed) after commit.
  /// The caller must AddIndexInsert() at least the table's primary index.
  Result<Row*> Insert(TxnContext* txn, Table* table, uint32_t partition,
                      uint64_t primary_key, const void* data);

  /// Stages a deletion; index entries must be removed via AddIndexRemove.
  Status Delete(TxnContext* txn, Row* row);

  /// Defers an index mutation to commit time.
  void AddIndexInsert(TxnContext* txn, Index* index, uint64_t key, Row* row);
  void AddIndexRemove(TxnContext* txn, Index* index, uint64_t key, Row* row);

  /// Range scan over an ordered index; returns row handles (read each with
  /// ReadRow for transactional visibility).
  Status Scan(TxnContext* txn, Index* index, uint64_t lo, uint64_t hi,
              size_t limit, std::vector<Row*>* out);
  Status ScanReverse(TxnContext* txn, Index* index, uint64_t hi, uint64_t lo,
                     size_t limit, std::vector<Row*>* out);

  /// Validates, hardens, and publishes the transaction. On kAborted the
  /// caller must still call Abort(). Under sync_commit the commit record's
  /// durability failure surfaces here as a non-Aborted error: the effects
  /// are published in memory but must not be acknowledged; Abort() on such
  /// a transaction is a safe no-op.
  Status Commit(TxnContext* txn);

  /// Rolls back a concurrency-control abort; always succeeds.
  void Abort(TxnContext* txn);

  /// Rolls back an application-initiated abort (counted separately: these
  /// are deterministic outcomes, not conflicts to retry).
  void AbortUser(TxnContext* txn);

  /// Runs a registered procedure as one transaction, retrying internal
  /// aborts is the caller's job. Records (proc_id, args) for command
  /// logging before execution.
  Status RunProcedure(uint32_t proc_id, int thread_id, const void* args,
                      size_t arg_len,
                      const std::vector<uint32_t>& partitions = {});

  /// Result of RunProcedureDeferred. When `status` is OK and `commit_lsn`
  /// is nonzero the commit record has been appended but may not be durable
  /// yet: the caller must not expose the commit (e.g. reply to a client)
  /// until the log's durable LSN passes `commit_lsn`. commit_lsn == 0 means
  /// nothing awaits durability (read-only, logging off, or failure).
  /// `reply` is whatever the procedure wrote to TxnContext::reply_payload().
  struct DeferredResult {
    Status status;
    Lsn commit_lsn = 0;
    std::vector<uint8_t> reply;
  };

  /// RunProcedure variant for the network server's group-commit-aware reply
  /// path: never blocks in WaitDurable even under sync_commit; instead the
  /// commit LSN is returned so the caller can release the result when the
  /// flusher acknowledges it (LogManager::SetDurableCallback).
  DeferredResult RunProcedureDeferred(
      uint32_t proc_id, int thread_id, const void* args, size_t arg_len,
      const std::vector<uint32_t>& partitions = {});

  // --- Two-phase commit (participant side) -------------------------------
  //
  // A shard executes its branch of a distributed transaction through the
  // normal procedure path, then splits Commit() at the validation/publish
  // seam: Prepare() validates and hardens a redo record, the branch parks
  // holding its locks, and the coordinator's decision drives
  // CommitPrepared()/AbortPrepared(). Invariant: the kTxnPrepare record is
  // durable before Prepare() returns ("prepare durable before vote") — the
  // durability wait therefore happens *inside* the transaction gate, so
  // 2PC and online checkpointing are mutually exclusive (see DESIGN.md).

  /// Phase one on this shard's branch of distributed transaction `gtid`:
  /// validates, appends a kTxnPrepare record carrying a value-format redo
  /// image (always value format, even under command logging, so in-doubt
  /// resolution never re-executes), and waits for it to be durable. On OK
  /// the transaction stays validated with locks held until the decision
  /// arrives; kAborted means validation lost and the caller must Abort()
  /// and vote no. A read-only branch logs nothing (prepare_lsn stays 0).
  Status Prepare(TxnContext* txn, uint64_t gtid);

  /// Phase two, commit: appends kTxnOutcome(commit), publishes the writes,
  /// and releases locks. The outcome LSN lands in txn->commit_lsn(); under
  /// defer_durable the caller must hold its ack until that LSN is durable,
  /// otherwise this waits like Commit().
  Status CommitPrepared(TxnContext* txn);

  /// Phase two, abort: appends kTxnOutcome(abort) and rolls the branch
  /// back. No durability wait — presumed abort makes a lost abort record
  /// harmless (recovery leaves the gtid in doubt and the coordinator
  /// re-answers abort).
  void AbortPrepared(TxnContext* txn);

  // --- In-doubt transactions recovered from the log ----------------------

  /// Hands the engine the in-doubt set recovery surfaced (gtid -> stashed
  /// kTxnValue redo body) plus the secondary-index rebuilder resolution
  /// uses when applying a redo re-creates rows.
  void SetInDoubt(std::map<uint64_t, std::vector<uint8_t>> in_doubt,
                  std::function<void(Engine*, Row*)> rebuilder);
  bool has_in_doubt() const;
  std::vector<uint64_t> InDoubtGtids() const;

  /// Resolves one recovered in-doubt transaction with the coordinator's
  /// decision: appends kTxnOutcome and, on commit, waits for durability and
  /// applies the stashed redo. kNotFound for a gtid not in doubt (callers
  /// treat that as an idempotent redelivery). The serving layer must fence
  /// out normal transactions until the in-doubt set is empty — redo bodies
  /// are applied outside any concurrency control.
  Status ResolveInDoubt(uint64_t gtid, bool commit);

  // --- Introspection -----------------------------------------------------

  ThreadStats* stats(int thread_id) { return &stats_[thread_id]; }
  RunStats AggregateStats() const;
  void ResetStats();

  /// Loader convenience: single-threaded, CC-free row installation used to
  /// populate tables before a run (also used by recovery replay).
  Row* LoadRow(Table* table, uint32_t partition, uint64_t primary_key,
               const void* data);

  /// Latest committed image of `row`, bypassing concurrency control. Only
  /// safe when no transactions are in flight (loaders, audits, recovery).
  const uint8_t* RawImage(const Row* row) const;

  /// Replay mode: suppresses commit-record appends (and therefore the
  /// durability wait) while RecoveryManager re-executes command-logged
  /// procedures on an engine whose own log is open — a replica applying
  /// the primary's stream, or checkpoint+suffix recovery into a serving
  /// engine. Without this, every replayed command transaction would be
  /// logged *again*, duplicating history and, on a replica, corrupting the
  /// byte-identical copy of the primary's stream that AppendRaw maintains.
  /// Toggled by RecoveryManager around replay; read-only transactions are
  /// unaffected either way (empty write sets never log).
  void set_replay_mode(bool on) {
    replay_mode_.store(on, std::memory_order_relaxed);
  }

  /// Per-worker version recycler (multiversion schemes; see VersionPool).
  VersionPool* version_pool(int thread_id) {
    return thread_id < static_cast<int>(pools_.size())
               ? pools_[thread_id].get()
               : nullptr;
  }
  EpochManager* epoch_manager() { return epochs_.get(); }

  // --- Checkpointing ------------------------------------------------------

  /// The coordinator built for checkpoint_dir, or null.
  CheckpointCoordinator* checkpointer() { return checkpointer_.get(); }

  /// Spawns the background checkpointer (checkpoint_interval_ms > 0). Call
  /// after DDL and loading: the snapshot scan must not race CreateTable or
  /// CC-free LoadRow writes.
  void StartCheckpointer();

  /// Takes one checkpoint now (snapshot, atomic install, MANIFEST update,
  /// log truncation). Safe concurrently with transactions.
  Status TriggerCheckpoint(CheckpointStats* stats);

 private:
  friend class RecoveryManager;
  friend class CheckpointCoordinator;

  /// Transaction ids are carved from the shared counter in blocks, like
  /// batched timestamps: uniqueness is all the lock manager needs, and any
  /// total order keeps wait-die / wound-wait deadlock-free.
  static constexpr uint64_t kTxnIdBatch = 64;
  /// Commits/aborts between epoch advances on each worker.
  static constexpr uint32_t kEpochMaintainInterval = 64;

  /// One line per worker: transaction-id reservation, epoch cadence, and
  /// the worker's side of the checkpoint transaction gate. Cache-aligned
  /// so Begin() on one worker never invalidates another's.
  struct NEXT700_CACHE_ALIGNED WorkerState {
    uint64_t next_txn_id = 0;
    uint64_t txn_id_end = 0;
    uint32_t txns_since_maintain = 0;
    /// Dekker-style flag: 1 while a transaction is between Begin() and its
    /// Commit/Abort gate exit. Paired with gate_closed_ via seq_cst so the
    /// checkpointer's drain and a worker's entry cannot both proceed.
    std::atomic<uint8_t> in_txn{0};
  };

  Status AppendCommitRecord(TxnContext* txn);
  void ApplyIndexOps(TxnContext* txn);
  /// The replay-ordering timestamp AppendCommitRecord / Prepare stamp on
  /// redo records (0 for lock-based schemes: log order is commit order).
  Timestamp ReplayCommitTimestamp(const TxnContext* txn) const;
  /// Serializes the transaction's after-images in kTxnValue body format
  /// into `body` (appended; caller clears).
  void StageValueBody(TxnContext* txn, Timestamp commit_ts,
                      TxnContext::ByteBuffer* body);

  // --- Checkpoint transaction gate ---------------------------------------
  // Workers pass through the gate per transaction; the checkpointer closes
  // it to drain every in-flight transaction (full quiesce or a brief
  // start-LSN / per-partition window). Compiled to nothing unless a
  // checkpoint_dir is configured. Invariant making the drain deadlock-free:
  // a thread between EnterTxnGate and ExitTxnGate never waits on the gate,
  // and the durability wait (which can outlast a flush) happens after the
  // exit — it touches no row data.
  void EnterTxnGate(int thread_id);
  void ExitTxnGate(int thread_id);
  void PauseTransactions();
  void ResumeTransactions();

  /// Unpins the worker's epoch after commit/abort and periodically advances
  /// the global epoch so retired versions recycle.
  void FinishEpoch(TxnContext* txn) {
    if (epochs_ == nullptr) return;
    const int thread_id = txn->thread_id();
    epochs_->Exit(thread_id);
    WorkerState& worker = workers_[thread_id];
    if (++worker.txns_since_maintain >= kEpochMaintainInterval) {
      worker.txns_since_maintain = 0;
      epochs_->Maintain(thread_id);
    }
  }

  EngineOptions options_;
  // Declared before catalog_ and contexts_: table teardown releases version
  // chains into the pools, so the pools (and the epoch manager they retire
  // through) must be constructed first / destroyed last. ~Engine drains the
  // epoch manager before any member goes away.
  std::unique_ptr<EpochManager> epochs_;
  std::vector<std::unique_ptr<VersionPool>> pools_;
  std::unique_ptr<WorkerState[]> workers_;
  Catalog catalog_;
  std::unique_ptr<TimestampAllocator> ts_allocator_;
  std::unique_ptr<ActiveTxnTracker> tracker_;
  std::unique_ptr<ConcurrencyControl> cc_;
  std::unique_ptr<LogManager> log_;
  std::vector<std::unique_ptr<TxnContext>> contexts_;
  std::unique_ptr<ThreadStats[]> stats_;
  struct ProcedureEntry {
    uint32_t proc_id;
    Procedure procedure;
    bool read_only;
  };
  std::vector<ProcedureEntry> procedures_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<bool> replay_mode_{false};

  // Prepared-but-undecided transactions surfaced by recovery. Resolution is
  // serialized under the mutex (redo bodies apply outside any CC; prepared
  // write sets are disjoint because every branch held its locks, but index
  // maintenance and the empty() fast path still need ordering).
  mutable Mutex in_doubt_mu_;
  std::map<uint64_t, std::vector<uint8_t>> in_doubt_
      GUARDED_BY(in_doubt_mu_);
  std::function<void(Engine*, Row*)> in_doubt_rebuilder_
      GUARDED_BY(in_doubt_mu_);

  // Declared after log_: the coordinator's destructor (via ~Engine's
  // explicit Stop) must run while the log is still open.
  std::unique_ptr<CheckpointCoordinator> checkpointer_;
  bool txn_gate_enabled_ = false;  // Set once at construction; then read-only.
  // seq_cst Dekker flag paired with WorkerState::in_txn; gate_mu_ only
  // sequences the sleep/wake protocol around it (no guarded plain fields).
  std::atomic<bool> gate_closed_{false};
  Mutex gate_mu_;
  CondVar gate_cv_;
};

}  // namespace next700

#endif  // NEXT700_TXN_ENGINE_H_
