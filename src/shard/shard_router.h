#ifndef NEXT700_SHARD_SHARD_ROUTER_H_
#define NEXT700_SHARD_SHARD_ROUTER_H_

/// \file
/// Shard router / two-phase-commit coordinator: presents the ordinary
/// next700 wire protocol to clients and spreads the "kv" stored-procedure
/// suite across N independent engine processes (shards), each owning the
/// keys where key % N == shard_id.
///
/// Single-shard requests take the fast path: the router parses just enough
/// of the argument encoding to pick the owning shard, then forwards the
/// client's frame bytes verbatim — no coordinator state, no extra round
/// trip — and relays the shard's response back in per-connection request
/// order. Requests it cannot route (unknown proc id, malformed arguments)
/// go to shard 0 verbatim so error behavior matches a direct connection.
///
/// A kKvRmw whose keys span shards becomes a presumed-abort distributed
/// transaction: the router splits the key set per shard, sends Prepare to
/// every participant, and on unanimous yes votes hardens a kCoordDecision
/// record in its own durable log *before* releasing the client reply or
/// any commit decision (the decision is the commit point; a gtid absent
/// from the log did not commit). On (re)connecting to a shard the router
/// asks for its in-doubt gtids and replays verdicts from the log scan.
///
/// Threading: N event-loop threads and no others, each a server::ConnLoop
/// (conn_loop.h) on the src/io/ spine (uring or batched epoll). The core
/// runs the sockets: loop 0's listener deals sessions round-robin over the
/// loops, and each loop reads, gathers writes and tears down its own
/// connections. The router adds what they mean. Each loop owns its sessions
/// plus two links per shard, one for forwards and one for 2PC, and
/// everything a session needs stays on its loop. Frames staged in one reap
/// batch leave with one gather write per link; every reply on a link pairs
/// with the link's FIFO expectation deque (a shard answers a connection's
/// frames in arrival order); a per-session reorder buffer releases client
/// replies in request order. Each 2PC is a per-gtid state machine on its
/// session's loop, and no loop ever blocks: the decision log's durable callback wakes loops
/// holding commits, and vote and ack deadlines are loop timers. A 2PC link
/// carries one outstanding vote at a time, and an abort goes to every
/// participant that has not voted no, because a branch can prepare while
/// its vote waits behind replies that need its locks; a transaction keeps
/// its slot, resending that abort, until every vote is in. Since a prepared
/// branch parks a shard worker until its decision arrives, one atomic
/// budget (`coordinator_threads`) bounds the 2PCs in flight across loops;
/// a loop over budget queues the job and is woken when a slot frees. A
/// shared (committed, active) gtid map keeps a reconnecting link's
/// in-doubt sweep from aborting a transaction another loop is still
/// driving. Links reconnect with jittered backoff driven by reap timeouts.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "log/log_manager.h"
#include "server/conn_loop.h"
#include "server/connection.h"
#include "server/protocol.h"

namespace next700 {
namespace shard {

struct ShardRouterOptions {
  std::string listen_host = "127.0.0.1";
  /// 0 = kernel-assigned; read the bound port back with port().
  uint16_t listen_port = 0;
  /// One "host:port" per shard; position in the vector is the shard id.
  std::vector<std::string> shards;
  /// The *global* partition count every shard's engine was configured
  /// with. Forwarded frames carry global partition ids verbatim; prepare
  /// frames derive their per-shard partition sets from this.
  uint32_t num_partitions = 8;
  /// Directory of the coordinator decision log. Commit decisions are
  /// durable here before any reply or decision leaves the router.
  std::string log_dir;
  /// How long the coordinator waits for votes before presuming abort.
  int64_t vote_timeout_ms = 5000;
  /// Crash hook: _exit(42) once the Nth cross-shard transaction to reach
  /// unanimous yes votes has them all — every prepare was written and is
  /// durable on its shard, and the decision is not yet logged. The
  /// crashtest harness uses this to create coordinator in-doubt windows.
  uint64_t crash_after_votes_collected = 0;
  /// Async backend for the event-loop session tier (kAuto probes uring,
  /// falls back to epoll).
  io::IoBackendKind io_backend = io::IoBackendKind::kAuto;
  /// Event-loop thread count; 0 = auto (min(4, cores/2), at least 1).
  int num_loops = 0;
  /// Cross-shard transactions in flight at once, across all loops. Every
  /// prepared branch parks a shard worker until its decision arrives, so
  /// this must not exceed the shards' worker count, or parked branches
  /// starve the prepares they wait for until the vote timeout breaks the
  /// cycle. Jobs over the budget wait in their loop's FIFO.
  int coordinator_threads = 2;
};

struct ShardRouterStats {
  std::atomic<uint64_t> forwarded{0};
  std::atomic<uint64_t> cross_shard_commits{0};
  std::atomic<uint64_t> cross_shard_aborts{0};
  std::atomic<uint64_t> vote_timeouts{0};
  std::atomic<uint64_t> resolved_in_doubt{0};
  /// Session lifecycle: live sessions == accepted - closed. The churn test
  /// pins this to zero after disconnect storms (the old thread-per-session
  /// tier leaked a session object + thread handle per dead client).
  std::atomic<uint64_t> sessions_accepted{0};
  std::atomic<uint64_t> sessions_closed{0};
  /// Transient accept4 failures (EMFILE/ENFILE/...) that disarmed the
  /// accept and backed off instead of busy-spinning on readiness.
  std::atomic<uint64_t> accept_errors{0};
  /// Outbound batching on the event loops: frames_batched / writev_batches
  /// is the gather ratio of the fast path.
  std::atomic<uint64_t> writev_batches{0};
  std::atomic<uint64_t> frames_batched{0};
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Scans the decision log for prior commits, opens it for appending,
  /// binds the listen socket, and starts the event loops. Shard links are
  /// established asynchronously; use WaitShardsConnected() for a
  /// deterministic ready point.
  Status Start();
  void Stop();

  /// Bound listen port (after Start()).
  uint16_t port() const { return port_; }

  /// Blocks until every loop's links to every shard are up (their in-doubt
  /// backlogs resolved) or `timeout_ms` elapses. Returns true when all
  /// links are up.
  bool WaitShardsConnected(int64_t timeout_ms);

  const ShardRouterStats& stats() const { return stats_; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(options_.shards.size());
  }

  /// Resolved event-loop count (after Start()).
  uint32_t num_loops() const { return static_cast<uint32_t>(loops_.size()); }

  /// Kernel entries issued by the event-loop backends (live counters plus
  /// those of loops already stopped): all of the router's network I/O,
  /// forwards and 2PC traffic alike. Safe to call while running or after
  /// Stop(); not concurrently *with* Stop().
  uint64_t io_syscalls() const;

 private:
  struct RouterLoop;
  struct ShardLink;
  struct CrossTxn;

  /// What the next reply frame on a shard link answers. The shard server
  /// answers every frame of a connection in arrival order, so a deque of
  /// these, pushed in send order by the owning loop, always matches.
  struct Expectation {
    /// kResponse (a relayed request), kVote or kDecisionAck (for `gtid`).
    server::FrameType reply = server::FrameType::kResponse;
    uint64_t session_id = 0;
    uint64_t ticket = 0;
    /// Echoed in the kUnavailable reply when the link dies with the
    /// forward in flight — a reply with a made-up request id would
    /// desynchronize clients that match responses by id.
    uint64_t request_id = 0;
    uint64_t gtid = 0;
  };

  // --- Event loop (RouterLoop's ConnLoop::Handler) ------------------------
  /// Runs link retries, 2PC deadlines, durable commits and queued jobs;
  /// returns the loop's next deadline.
  uint64_t OnTimers(RouterLoop* loop);
  void ProcessTimers(RouterLoop* loop);
  /// Frames from a session or a shard link (LinkOf tells them apart).
  void OnFrames(RouterLoop* loop, server::Connection* conn);
  void OnEof(RouterLoop* loop, server::Connection* conn);
  void OnClosed(RouterLoop* loop, server::Connection* conn);
  static ShardLink* LinkOf(server::Connection* conn) {
    return static_cast<ShardLink*>(conn->context());
  }

  // --- Client sessions ----------------------------------------------------
  /// Decodes and routes buffered frames until drained or closed.
  void DrainSessionFrames(RouterLoop* loop, server::Connection* conn);
  void ReplyError(RouterLoop* loop, server::Connection* conn, uint64_t ticket,
                  uint64_t request_id, StatusCode code);

  /// Routes one decoded client request. Single-shard forwards are staged
  /// on the owning loop's shard link (one gather write per link per reap
  /// batch); cross-shard kKvRmw becomes a CrossTxn on the same loop.
  void RouteRequest(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, const server::Frame& frame);
  void StageForward(RouterLoop* loop, server::Connection* conn,
                    uint64_t ticket, uint32_t shard_id,
                    const server::Frame& frame, uint64_t request_id);
  void SendOnLink(RouterLoop* loop, ShardLink* link,
                  const std::vector<uint8_t>& bytes,
                  const Expectation& expectation);

  // --- Shard links (per loop, event-driven) -------------------------------
  void StartConnectLink(RouterLoop* loop, ShardLink* link);
  /// Frame bodies are passed in place: they stay valid until the link's
  /// decoder is next read, and a torn-down link's decoder lives until the
  /// batch ends.
  void DrainLinkFrames(RouterLoop* loop, ShardLink* link);
  void HandleLinkHandshakeFrame(RouterLoop* loop, ShardLink* link,
                                const server::Frame& frame);
  void HandleLinkReply(RouterLoop* loop, ShardLink* link,
                       const server::Frame& frame);
  void LinkUp(RouterLoop* loop, ShardLink* link);
  /// The link's connection closed (or never opened): fails outstanding
  /// expectations (forwards answer kUnavailable, votes count as failed)
  /// and schedules a jittered reconnect.
  void LinkDown(RouterLoop* loop, ShardLink* link);

  // --- Cross-shard 2PC (per-gtid state machines on the loop) -------------
  ShardLink* TwoPcLink(RouterLoop* loop, uint32_t shard);
  /// Starts queued jobs while the global in-flight budget has room.
  void StartQueued(RouterLoop* loop);
  void StartCrossTxn(RouterLoop* loop, CrossTxn* txn);
  void HandleVote(RouterLoop* loop, ShardLink* link,
                  const server::Vote& vote);
  void HandleAck(RouterLoop* loop, uint64_t gtid);
  /// Releases commits whose decision is durable (aborts them on a failed
  /// decision log).
  void ReleaseDurableCommits(RouterLoop* loop);
  /// kOk commits, anything else aborts with that reply status. The
  /// decision goes to every yes-voter (an abort also to unvoted shards);
  /// a commit replies once they ack.
  void DecideCrossTxn(RouterLoop* loop, CrossTxn* txn, StatusCode status);
  void ReplyCrossTxn(RouterLoop* loop, CrossTxn* txn);
  /// Drops a replied transaction once every vote is in, freeing its slot.
  void MaybeRetireCrossTxn(RouterLoop* loop, CrossTxn* txn);
  /// Queues a decision on `link`; true when an ack is expected on it.
  bool SendDecision(RouterLoop* loop, ShardLink* link, uint64_t gtid,
                    bool commit);

  /// committed/active check for one in-doubt gtid, one critical section:
  /// *commit set => replay commit; active set => skip (a live transaction
  /// owns the outcome); neither => presumed abort.
  void ClassifyInDoubt(uint64_t gtid, bool* commit, bool* skip);

  uint64_t NextGtid() {
    return gtid_base_ + gtid_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  ShardRouterOptions options_;
  ShardRouterStats stats_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  uint16_t port_ = 0;

  /// Parsed options_.shards.
  std::vector<std::pair<std::string, uint16_t>> shard_addrs_;

  std::unique_ptr<LogManager> decision_log_;
  uint64_t gtid_base_ = 0;
  std::atomic<uint64_t> gtid_seq_{0};
  /// Transactions that reached unanimous yes votes (the crash hook).
  std::atomic<uint64_t> votes_collected_{0};
  /// Cross-shard transactions in flight across all loops.
  std::atomic<int> cross_in_flight_{0};
  /// The decision log's durable watermark and sticky failure, published
  /// by its durable callback for the loops holding commits.
  std::atomic<Lsn> decision_durable_lsn_{0};
  std::atomic<bool> decision_log_failed_{false};

  mutable Mutex committed_mu_;
  /// Every gtid with a durable commit decision (log scan + runtime).
  std::unordered_set<uint64_t> committed_ GUARDED_BY(committed_mu_);
  /// Gtids whose 2PC some loop is currently driving. Guarded by
  /// the same mutex as committed_ so an in-doubt sweep classifies a gtid
  /// (committed / active / presumed-abort) in one atomic look — without
  /// this a link reconnect could presume-abort a healthy transaction whose
  /// commit decision is still being logged.
  std::unordered_set<uint64_t> active_gtids_ GUARDED_BY(committed_mu_);

  /// Link-up accounting for WaitShardsConnected.
  mutable Mutex shards_mu_;
  CondVar shards_cv_;
  uint32_t links_up_ GUARDED_BY(shards_mu_) = 0;

  std::vector<std::unique_ptr<RouterLoop>> loops_;
  /// Syscalls of backends already destroyed (accumulated in Stop()).
  std::atomic<uint64_t> io_syscalls_retired_{0};
};

}  // namespace shard
}  // namespace next700

#endif  // NEXT700_SHARD_SHARD_ROUTER_H_
