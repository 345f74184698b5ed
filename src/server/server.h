#ifndef NEXT700_SERVER_SERVER_H_
#define NEXT700_SERVER_SERVER_H_

/// \file
/// The networked transaction service: a submission/completion-queue TCP
/// front-end that exposes a composed Engine as a stored-procedure server.
///
/// Architecture (one process):
///
///   event-loop thread    runs a ConnLoop (conn_loop.h): the io backend
///                        (io_uring or batched epoll), the listener, reads,
///                        gathered reply writes and connection teardown;
///                        the server adds only what frames mean: decode,
///                        dispatch, ordered replies, admission
///   worker pool          executes stored procedures via
///                        Engine::RunProcedureDeferred; per-partition
///                        queue affinity for H-Store compositions
///                        (queue-oriented dispatch), shared run queue
///                        otherwise
///   log flusher          (owned by the engine's LogManager) releases
///                        held responses when their commit LSN becomes
///                        durable — a client never observes a commit the
///                        log could still lose
///
/// I/O batching: responses completed during one reap batch accumulate in
/// per-connection frame queues; at batch end the loop gives each dirty
/// connection one writev gathering up to Connection::kMaxIov frames, so a
/// pipelined client at depth d costs ~1 write syscall per batch instead
/// of d. The same loop carries replication batches; the group-commit flush
/// runs on the LogManager's private backend.
///
/// Admission control: a bounded server-wide in-flight budget. When the
/// budget fills the event loop stops resubmitting socket reads
/// (backpressure through TCP); requests already decoded that overflow a
/// worker queue are answered with kResourceExhausted instead of growing
/// the queue. Replica connections are exempt from read pausing: their
/// acks release held semisync replies, so throttling them could deadlock
/// the budget.
///
/// Replication roles:
///  - Primary: any server with logging enabled accepts PeerRole::kReplica
///    handshakes. A subscribed replica gets durable log bytes streamed as
///    ReplBatch frames from the event loop (shipping window bounded by the
///    connection's write buffer); its ReplAcks feed lag bookkeeping and,
///    in semisync mode, gate commit acknowledgement: a reply is released
///    only once its LSN is durable locally AND on at least one replica
///    (degrading to local-durable-only while zero replicas are subscribed).
///  - Replica: a server constructed with options.snapshot_source serves
///    read-only snapshot transactions at the source's applied LSN. Writes
///    are rejected with kInvalidArgument; reads demanding a fresher
///    snapshot than applied (request.min_read_lsn) get kUnavailable.
///
/// 2PC participant role: a connection that handshakes as
/// PeerRole::kCoordinator may, besides plain Requests (the shard router's
/// single-shard fast path), send Prepare / CommitDecision / AbortDecision /
/// InDoubtQuery frames. A Prepare executes the named procedure on a worker
/// and splits commit at Engine::Prepare: the redo record is durable before
/// the Vote leaves ("prepare durable before vote"), then the worker parks —
/// holding the branch's locks — until the decision frame arrives on the
/// event loop and wakes it (a participant never unilaterally aborts after
/// voting yes; Stop() releases parked workers by aborting in memory only,
/// leaving the gtid in doubt on disk, which presumed abort resolves).
/// Decisions for unknown gtids are acked OK (idempotent redelivery);
/// decisions for gtids recovery left in doubt resolve via
/// Engine::ResolveInDoubt. While recovered in-doubt transactions remain
/// unresolved the server answers Requests and Prepares with kUnavailable —
/// their redo is applied outside concurrency control, so no transaction
/// may run beside it. Coordinator connections are exempt from read pausing
/// like replicas: their decision frames are what un-parks workers, so
/// throttling them could deadlock the budget.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "server/conn_loop.h"
#include "server/connection.h"
#include "server/protocol.h"
#include "txn/engine.h"

namespace next700 {
namespace server {

/// Commit-acknowledgement policy on a primary with subscribed replicas.
enum class ReplAckMode : uint8_t {
  /// Replies release on local durability; replicas tail asynchronously.
  kAsync = 0,
  /// Replies additionally wait until at least one subscribed replica has
  /// the commit LSN durable on its own log. With zero replicas subscribed
  /// the server degrades to async (counted in stats().semisync_degraded)
  /// rather than stalling commits forever.
  kSemisync = 1,
};

/// What a replica-role server reads from: the continuously-applied prefix
/// of the primary's log. Implemented by repl::ReplicaApplier; the server
/// depends only on this interface so src/server never links src/repl.
///
/// ReadLock/ReadUnlock bracket every procedure execution on a replica,
/// sharing among readers but excluding the applier's raw row writes
/// (which bypass concurrency control), so a reader always observes a
/// transaction-consistent prefix of the primary's commit order.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  /// LSN through which the log stream has been applied (a frame boundary).
  virtual Lsn applied_lsn() const = 0;
  virtual void ReadLock() = 0;
  virtual void ReadUnlock() = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is available via port().
  uint16_t port = 0;
  /// Worker pool size; the engine must be built with max_threads >= this,
  /// and no other thread may use engine thread ids [0, num_workers).
  int num_workers = 4;
  /// Server-wide budget of decoded-but-unanswered requests. Reads pause
  /// when it fills.
  uint32_t max_inflight = 256;
  /// Per-worker-queue bound; enqueue beyond it answers kResourceExhausted.
  size_t queue_capacity = 1024;
  int listen_backlog = 128;
  /// Network submission backend: kUring demands a raw io_uring (Start()
  /// fails where the kernel lacks one), kEpoll forces the portable
  /// batched-epoll path, kAuto probes uring and falls back.
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
  /// Commit acknowledgement policy when replicas subscribe (primary only).
  ReplAckMode repl_ack = ReplAckMode::kAsync;
  /// Non-null makes this a replica-role server: read-only procedures run
  /// against the source's applied snapshot; everything else is rejected.
  /// Must outlive the server. A replica does not re-ship its stream
  /// (no chaining), so kReplica handshakes are refused in this role.
  SnapshotSource* snapshot_source = nullptr;
  /// Crash-harness hook: _exit(42) the process when the Nth successful
  /// Engine::Prepare is durable but its Vote has not been sent — the
  /// window where the participant is in doubt. 0 disables.
  uint64_t crash_after_prepares = 0;
};

/// Monotonic counters, updated with relaxed atomics (read for reports).
/// The first group is written only by the event-loop thread; the worker-
/// written counter sits on its own cache line so workers never invalidate
/// the loop's line.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_dispatched{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> protocol_errors{0};     // Malformed frames/bodies.
  std::atomic<uint64_t> connections_dropped{0};  // Unrecoverable streams.
  std::atomic<uint64_t> admission_rejects{0};   // kResourceExhausted sent.
  std::atomic<uint64_t> repl_batches_shipped{0};  // ReplBatch frames sent.
  std::atomic<uint64_t> repl_acks_received{0};
  /// Times semisync fell back to async because the last replica left.
  std::atomic<uint64_t> semisync_degraded{0};
  /// Replica-role rejections: writes, or min_read_lsn ahead of applied.
  std::atomic<uint64_t> snapshot_rejects{0};
  /// 2PC participant traffic (event-loop written): Prepare frames handed
  /// to workers, and decision frames received from coordinators.
  std::atomic<uint64_t> prepares_dispatched{0};
  std::atomic<uint64_t> decisions_received{0};
  /// Failed accepts (EMFILE and friends) that disarmed the listener for a
  /// backoff instead of spinning the loop.
  std::atomic<uint64_t> accept_errors{0};
  /// writev submissions issued, and the frames they gathered: the ratio
  /// is the reply-batching factor (frames/writev >> 1 under pipelining).
  std::atomic<uint64_t> writev_batches{0};
  std::atomic<uint64_t> frames_batched{0};
  NEXT700_CACHE_ALIGNED
  std::atomic<uint64_t> replies_held_durable{0};  // Waited on the flusher.
};

class Server : private ConnLoop::Handler {
 public:
  /// `engine` must outlive the server. Procedures must be registered (and
  /// data loaded) before Start(); registration is not thread-safe.
  Server(Engine* engine, ServerOptions options);
  ~Server() override;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, builds the io backend, and starts the event loop +
  /// workers. Fails if options.io_backend = kUring on a kernel without a
  /// usable io_uring.
  Status Start();

  /// Stops accepting, tears down connections and threads. Idempotent.
  /// In-flight transactions finish executing; their replies are dropped.
  void Stop();

  /// Port actually bound (after Start(); useful with port = 0).
  uint16_t port() const { return bound_port_; }

  const ServerStats& stats() const { return stats_; }
  /// Network-path io counters (null before Start / after Stop).
  const io::IoCounters* io_counters() const {
    return loop_ == nullptr ? nullptr : &loop_->io_counters();
  }
  /// Resolved backend: "uring" or "epoll" ("none" before Start).
  const char* io_backend_name() const {
    return loop_ == nullptr ? "none" : loop_->backend_name();
  }
  Engine* engine() { return engine_; }

 private:
  struct WorkItem {
    uint64_t conn_id;
    uint64_t seq;
    Request request;
    /// 2PC: when set, `prepare` (not `request`) names the work and the
    /// worker answers with a Vote instead of a Response.
    bool is_prepare = false;
    Prepare prepare;
  };

  /// One prepared-but-undecided branch, keyed by gtid in prepared_. The
  /// owning worker parks on prepared_cv_ after registering its entry and
  /// pushing the Vote; the event loop fills in the decision and wakes it.
  struct PreparedTxn {
    bool decided = false;
    bool commit = false;
    /// Where the DecisionAck goes (the admitting connection + sequence of
    /// the decision frame).
    uint64_t decision_conn_id = 0;
    uint64_t decision_seq = 0;
  };

  // Cache-aligned so adjacent queues (each bounced between the event loop
  // and one worker) never share a line through their heap blocks.
  struct NEXT700_CACHE_ALIGNED WorkQueue {
    Mutex mu;
    CondVar cv;
    std::deque<WorkItem> items GUARDED_BY(mu);
    bool stopped GUARDED_BY(mu) = false;
  };

  struct Completion {
    uint64_t conn_id;
    uint64_t seq;
    std::vector<uint8_t> encoded;
  };

  struct HeldReply {
    Lsn lsn;
    Completion completion;
    bool operator>(const HeldReply& other) const { return lsn > other.lsn; }
  };

  void WorkerLoop(int worker_id);

  // ConnLoop::Handler.
  void OnAccepted(Connection* conn) override;
  void OnFrames(Connection* conn) override { DrainFrames(conn); }
  void OnWriteDrained(Connection* conn) override;
  void OnClosed(Connection* conn) override;
  void OnWakeup() override;

  /// Decodes and dispatches buffered frames until the stream is drained,
  /// the budget fills, or the connection closes.
  void DrainFrames(Connection* conn);
  /// Counts a protocol violation and closes the connection: the stream
  /// cannot be trusted past it.
  void DropConnection(Connection* conn);
  /// Pre-handshake frame handling: accepts exactly one valid Hello, sends
  /// the HelloAck, and records the peer role (anything else drops the
  /// connection: a mixed-version or non-next700 peer).
  void HandleHello(Connection* conn, const Frame& frame);
  /// A subscribed replica's cumulative progress ack (or its initial
  /// subscription naming the start LSN).
  void HandleReplAck(Connection* conn, const Frame& frame);
  /// 2PC frames from a coordinator peer (Prepare, decisions, InDoubtQuery).
  void HandleCoordinatorFrame(Connection* conn, const Frame& frame);
  void HandlePrepare(Connection* conn, const Frame& frame);
  void HandleDecision(Connection* conn, const Frame& frame);
  void HandleInDoubtQuery(Connection* conn, const Frame& frame);
  /// Worker-side execution of one Prepare item: run the procedure,
  /// Engine::Prepare, vote, park for the decision, apply it, ack.
  void RunPrepare(int worker_id, WorkItem* item);
  void DispatchRequest(Connection* conn, Request request);
  /// kOk if `proc_id` may run now over `partitions`, else the error to
  /// answer: kUnavailable while recovered in-doubt branches are unresolved,
  /// kNotFound for an unknown procedure, kInvalidArgument for a partition
  /// out of range.
  StatusCode CheckRunnable(uint32_t proc_id,
                           const std::vector<uint32_t>& partitions);
  /// Hands `item` to the worker queue for its partitions and counts it in
  /// flight; returns kOk, or the reject to answer (kResourceExhausted when
  /// the queue is full, kUnavailable once stopped).
  StatusCode Enqueue(WorkItem item);
  /// Answers `seq` on `conn` directly from the event loop (protocol errors,
  /// admission rejects) without a round trip through the worker pool.
  void CompleteInline(Connection* conn, uint64_t seq,
                      const Response& response);
  /// Releases ordered responses into the outbound queue; the loop writes
  /// them at batch end.
  void FlushConnection(Connection* conn);

  /// Ships durable log bytes to one subscribed replica until its write
  /// buffer reaches the shipping window or the log is drained. May close
  /// the connection (socket error, or the cursor fell behind the retired
  /// log prefix and the replica must re-bootstrap).
  void ShipToReplica(Connection* conn);
  /// Ships to every subscribed replica (durable-callback wakeups).
  void ShipAll();
  /// Recomputes the semisync watermark (max acked-durable LSN over
  /// subscribed replicas) after an ack or a replica departure.
  void RecomputeSemisyncWatermark();
  /// The LSN up to which replies may be released given local durability
  /// `durable`: durable itself in async/replica roles, min(durable,
  /// semisync watermark) in semisync mode with replicas subscribed.
  /// Callable from any thread.
  Lsn ReleaseWatermark(Lsn durable) const;

  /// Worker -> event loop handoff (thread-safe; wakes the loop through
  /// the backend's Wakeup, the only cross-thread entry point).
  void PushCompletion(Completion completion);
  /// Worker side: pushes `completion` once the release watermark (local
  /// durability, plus a replica ack in semisync mode) reaches `lsn`, so a
  /// client never observes a commit that could still be lost; lsn 0 (or
  /// no log) pushes at once.
  void PushWhenDurable(Lsn lsn, Completion completion);
  /// Moves every held reply with lsn <= durable into the completion queue.
  void ReleaseDurable(Lsn durable);
  void DrainCompletions();

  void PauseReads();
  void ResumeReads();

  int WorkerFor(const std::vector<uint32_t>& partitions);

  Engine* engine_;
  ServerOptions options_;
  ServerStats stats_;

  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};

  /// Every socket of this server. Loop-thread-only except Wakeup(), the
  /// one thread-safe entry (workers, log flusher, Stop()).
  std::unique_ptr<ConnLoop> loop_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  bool partitioned_dispatch_ = false;
  uint64_t round_robin_ = 0;

  bool reads_paused_ = false;
  /// Event-loop-owned latch over the recovered in-doubt gate: true while
  /// Engine::has_in_doubt() might still hold, so the steady state never
  /// takes the engine's in-doubt mutex per request. Transitions only
  /// true -> false.
  bool in_doubt_gate_ = false;

  /// Subscribed replicas (shipper attached). Written by the event loop;
  /// read by the flusher callback and workers for semisync gating.
  std::atomic<uint32_t> replica_count_{0};
  /// Max acked-durable LSN across subscribed replicas (event-loop written).
  std::atomic<Lsn> semisync_watermark_{0};
  /// Flusher -> event loop: new durable bytes are ready to ship.
  std::atomic<bool> ship_pending_{false};

  // The admission counter is hit by the event loop (admit) and every worker
  // (release); keep it off the lines holding loop-only state above and the
  // completion queue below.
  NEXT700_CACHE_ALIGNED std::atomic<uint32_t> inflight_{0};

  NEXT700_CACHE_ALIGNED Mutex completions_mu_;
  std::deque<Completion> completions_ GUARDED_BY(completions_mu_);

  // Lock order: held_mu_ before completions_mu_ (ReleaseDurable nests them).
  Mutex held_mu_ ACQUIRED_BEFORE(completions_mu_);
  std::priority_queue<HeldReply, std::vector<HeldReply>,
                      std::greater<HeldReply>>
      held_replies_ GUARDED_BY(held_mu_);

  // Live prepared branches (workers register + park; event loop decides).
  // Never nested with the other server mutexes.
  Mutex prepared_mu_;
  CondVar prepared_cv_;
  std::unordered_map<uint64_t, PreparedTxn> prepared_
      GUARDED_BY(prepared_mu_);
  /// Stop() in progress: parked workers abort in memory (no outcome
  /// record) and exit instead of waiting for decisions that cannot come.
  bool prepared_stop_ GUARDED_BY(prepared_mu_) = false;
  /// Successful prepares so far (the crash_after_prepares trigger).
  std::atomic<uint64_t> prepares_done_{0};
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_SERVER_H_
