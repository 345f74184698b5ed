#include "server/server.h"

#include <unistd.h>

#include <algorithm>

namespace next700 {
namespace server {

namespace {

/// Resume reads once the in-flight count drops below this fraction of the
/// budget (hysteresis so the loop does not flap at the boundary).
uint32_t ResumeWatermark(uint32_t budget) { return budget - budget / 4; }

/// Per-replica shipping window: stop enqueuing batches once this many
/// bytes sit unsent in the connection's write buffer. A slow replica
/// backpressures through TCP instead of ballooning primary memory.
constexpr size_t kShipWindowBytes = 4 * kMaxReplBatchBytes;

}  // namespace

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  NEXT700_CHECK(engine_ != nullptr);
  NEXT700_CHECK(options_.num_workers > 0);
  NEXT700_CHECK(options_.max_inflight > 0);
  NEXT700_CHECK_MSG(options_.num_workers <= engine_->options().max_threads,
                    "server needs one engine thread id per worker");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  NEXT700_CHECK(!running_.load());
  // kUring fails loudly here on kernels without a usable ring; kAuto
  // quietly resolves to the batched-epoll fallback.
  NEXT700_RETURN_IF_ERROR(ConnLoop::Create(
      options_.io_backend, this,
      {&stats_.writev_batches, &stats_.frames_batched, &stats_.accept_errors},
      &loop_));
  const Status listening =
      loop_->Listen(options_.host, options_.port, options_.listen_backlog,
                    /*group=*/{}, &bound_port_);
  if (!listening.ok()) {
    loop_.reset();
    return listening;
  }

  // Queue-oriented dispatch for the partitioned composition: partition p is
  // served by worker (p mod workers), so single-partition transactions on
  // distinct partitions never contend on a queue or a partition lock. Other
  // schemes share one run queue.
  partitioned_dispatch_ = engine_->cc()->scheme() == CcScheme::kHstore;
  const int num_queues = partitioned_dispatch_ ? options_.num_workers : 1;
  for (int i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }

  if (engine_->log_manager() != nullptr) {
    // One durable callback serves two consumers: releasing held replies
    // (sync commit) and waking the loop to ship freshly durable bytes to
    // replicas. The flusher thread must not touch loop-owned connection
    // state, so shipping is signalled through a flag + the backend's
    // thread-safe Wakeup.
    const bool sync_commit = engine_->options().sync_commit;
    engine_->log_manager()->SetDurableCallback(
        [this, sync_commit](Lsn durable) {
          if (sync_commit) ReleaseDurable(ReleaseWatermark(durable));
          if (replica_count_.load(std::memory_order_acquire) > 0) {
            ship_pending_.store(true, std::memory_order_release);
            loop_->Wakeup();
          }
        });
  }

  // Requests and Prepares stay fenced out until every in-doubt transaction
  // recovery surfaced is resolved by its coordinator.
  in_doubt_gate_ = engine_->has_in_doubt();

  running_.store(true);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.load()) return;
  if (engine_->log_manager() != nullptr) {
    // Returns only after any in-flight durable callback finished, so the
    // flusher can no longer call into this object.
    engine_->log_manager()->SetDurableCallback(nullptr);
  }
  loop_->Stop();
  loop_thread_.join();

  // Release workers parked on undecided prepared branches: they abort in
  // memory without logging an outcome, so the gtid stays in doubt on disk
  // and presumed abort resolves it on the next recovery.
  {
    MutexLock lock(&prepared_mu_);
    prepared_stop_ = true;
  }
  prepared_cv_.NotifyAll();

  for (auto& queue : queues_) {
    {
      MutexLock lock(&queue->mu);
      queue->stopped = true;
    }
    queue->cv.NotifyAll();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  queues_.clear();

  // Last: workers called loop_->Wakeup() through PushCompletion until the
  // join above, so the loop (which closes every socket) must outlive them.
  loop_.reset();
  running_.store(false);
}

void Server::OnAccepted(Connection* conn) {
  conn->set_read_paused(reads_paused_);
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
}

void Server::OnWriteDrained(Connection* conn) {
  // A drained replica socket reopens the shipping window.
  ShipToReplica(conn);
}

void Server::OnWakeup() {
  DrainCompletions();
  if (ship_pending_.exchange(false, std::memory_order_acq_rel)) ShipAll();
}

void Server::DrainFrames(Connection* conn) {
  while (!conn->closed()) {
    // The admission budget throttles client requests only; handshakes and
    // replica acks must keep flowing (acks release held replies).
    if (conn->handshaken() && conn->peer() == PeerRole::kClient &&
        inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
      PauseReads();
      break;
    }
    Frame frame;
    bool have = false;
    if (!conn->decoder()->Next(&frame, &have).ok()) {
      // Oversized or garbage header: the stream cannot be resynchronized.
      DropConnection(conn);
      return;
    }
    if (!have) break;
    if (!conn->handshaken()) {
      HandleHello(conn, frame);
    } else if (frame.type == FrameType::kReplAck &&
               conn->peer() == PeerRole::kReplica) {
      HandleReplAck(conn, frame);
    } else if (conn->peer() == PeerRole::kCoordinator &&
               frame.type != FrameType::kRequest) {
      HandleCoordinatorFrame(conn, frame);
    } else if (frame.type != FrameType::kRequest ||
               (conn->peer() != PeerRole::kClient &&
                conn->peer() != PeerRole::kCoordinator)) {
      DropConnection(conn);
    } else {
      Request request;
      if (DecodeRequest(frame.body, frame.body_len, &request).ok()) {
        DispatchRequest(conn, std::move(request));
        continue;
      }
      // Framing is intact, so the connection survives; answer with an error.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.request_id = request.request_id;
      response.status = StatusCode::kInvalidArgument;
      CompleteInline(conn, conn->AdmitRequest(), response);
    }
  }
  loop_->MaybeCloseDrained(conn);
}

void Server::DropConnection(Connection* conn) {
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
  loop_->Close(conn);
}

void Server::HandleHello(Connection* conn, const Frame& frame) {
  Hello hello;
  Status status = frame.type == FrameType::kHello
                      ? DecodeHello(frame.body, frame.body_len, &hello)
                      : Status::InvalidArgument(
                            "first frame on a connection must be Hello");
  if (status.ok() && hello.role == PeerRole::kReplica) {
    if (engine_->log_manager() == nullptr) {
      status = Status::InvalidArgument(
          "replica subscription refused: primary runs without a log");
    } else if (options_.snapshot_source != nullptr) {
      status = Status::InvalidArgument(
          "replica subscription refused: replicas do not chain");
    }
  }
  if (!status.ok()) {
    // Loud rejection of mixed-version or non-next700 peers: drop the
    // connection before interpreting a single byte of their payloads.
    DropConnection(conn);
    return;
  }
  conn->set_handshaken();
  conn->set_peer(hello.role);
  std::vector<uint8_t> ack;
  EncodeHelloAck(HelloAck{}, &ack);
  conn->EnqueueRaw(ack.data(), ack.size());
  FlushConnection(conn);
}

void Server::HandleReplAck(Connection* conn, const Frame& frame) {
  ReplAck ack;
  if (!DecodeReplAck(frame.body, frame.body_len, &ack).ok()) {
    DropConnection(conn);
    return;
  }
  stats_.repl_acks_received.fetch_add(1, std::memory_order_relaxed);
  if (conn->shipper() == nullptr) {
    // First ack = subscription: durable_lsn names the replica's local log
    // end, which is where shipping resumes (frame boundary by contract).
    conn->set_shipper(std::make_unique<repl::LogShipper>(
        engine_->log_manager(), ack.durable_lsn));
    replica_count_.fetch_add(1, std::memory_order_release);
  } else {
    conn->shipper()->RecordAck(ack.durable_lsn, ack.applied_lsn);
  }
  if (options_.repl_ack == ReplAckMode::kSemisync) {
    RecomputeSemisyncWatermark();
    ReleaseDurable(ReleaseWatermark(engine_->log_manager()->durable_lsn()));
  }
  ShipToReplica(conn);
}

void Server::ShipToReplica(Connection* conn) {
  repl::LogShipper* shipper = conn->shipper();
  if (shipper == nullptr) return;
  bool enqueued = false;
  while (conn->write_len() < kShipWindowBytes) {
    std::vector<uint8_t> encoded;
    bool have = false;
    const Status status = shipper->NextBatch(&encoded, &have);
    if (!status.ok()) {
      // kNotFound: the cursor fell below the retired log prefix; the
      // replica cannot catch up by tailing and must re-bootstrap from a
      // checkpoint. Dropping the subscription makes that loud.
      stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      loop_->Close(conn);
      return;
    }
    if (!have) break;
    conn->EnqueueRaw(encoded.data(), encoded.size());
    stats_.repl_batches_shipped.fetch_add(1, std::memory_order_relaxed);
    enqueued = true;
  }
  if (enqueued) FlushConnection(conn);
}

void Server::ShipAll() {
  loop_->ForEach([this](Connection* conn) { ShipToReplica(conn); });
}

void Server::RecomputeSemisyncWatermark() {
  Lsn max_acked = 0;
  loop_->ForEach([&max_acked](Connection* conn) {
    if (conn->shipper() != nullptr) {
      max_acked = std::max(max_acked, conn->shipper()->acked_durable());
    }
  });
  semisync_watermark_.store(max_acked, std::memory_order_release);
}

Lsn Server::ReleaseWatermark(Lsn durable) const {
  if (options_.repl_ack != ReplAckMode::kSemisync) return durable;
  if (replica_count_.load(std::memory_order_acquire) == 0) {
    return durable;  // Degraded: no replica can ever ack.
  }
  return std::min(durable,
                  semisync_watermark_.load(std::memory_order_acquire));
}

void Server::HandleCoordinatorFrame(Connection* conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPrepare:
      HandlePrepare(conn, frame);
      return;
    case FrameType::kCommitDecision:
    case FrameType::kAbortDecision:
      HandleDecision(conn, frame);
      return;
    case FrameType::kInDoubtQuery:
      HandleInDoubtQuery(conn, frame);
      return;
    default:
      DropConnection(conn);
  }
}

void Server::HandlePrepare(Connection* conn, const Frame& frame) {
  Prepare prepare;
  if (!DecodePrepare(frame.body, frame.body_len, &prepare).ok()) {
    // The coordinator is trusted infrastructure; a malformed Prepare means
    // a version skew or corruption, not a user error worth a polite reply.
    DropConnection(conn);
    return;
  }
  const uint64_t seq = conn->AdmitRequest();
  Vote vote;
  vote.gtid = prepare.gtid;
  vote.status = CheckRunnable(prepare.proc_id, prepare.partitions);
  if (vote.status == StatusCode::kOk && options_.snapshot_source != nullptr) {
    vote.status = StatusCode::kInvalidArgument;  // Replicas never prepare.
  }
  if (vote.status == StatusCode::kOk) {
    WorkItem item;
    item.conn_id = conn->id();
    item.seq = seq;
    item.is_prepare = true;
    item.prepare = std::move(prepare);
    vote.status = Enqueue(std::move(item));
    if (vote.status == StatusCode::kOk) {
      stats_.prepares_dispatched.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  std::vector<uint8_t> encoded;
  EncodeVote(vote, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(conn);
}

void Server::HandleDecision(Connection* conn, const Frame& frame) {
  Decision decision;
  if (!DecodeDecision(frame.body, frame.body_len, &decision).ok()) {
    DropConnection(conn);
    return;
  }
  stats_.decisions_received.fetch_add(1, std::memory_order_relaxed);
  const bool commit = frame.type == FrameType::kCommitDecision;
  const uint64_t seq = conn->AdmitRequest();
  // A live prepared branch: hand the decision to its parked worker, which
  // applies it and pushes the DecisionAck for this (conn, seq).
  bool delivered = false;
  {
    MutexLock lock(&prepared_mu_);
    auto it = prepared_.find(decision.gtid);
    if (it != prepared_.end() && !it->second.decided) {
      it->second.decided = true;
      it->second.commit = commit;
      it->second.decision_conn_id = conn->id();
      it->second.decision_seq = seq;
      delivered = true;
    }
  }
  if (delivered) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    prepared_cv_.NotifyAll();
    return;
  }
  // A branch recovery left in doubt resolves here; an unknown gtid is an
  // idempotent redelivery (the previous ack was lost) and acks OK.
  DecisionAck ack;
  ack.gtid = decision.gtid;
  ack.status = StatusCode::kOk;
  const Status resolved = engine_->ResolveInDoubt(decision.gtid, commit);
  if (!resolved.ok() && !resolved.IsNotFound()) {
    ack.status = resolved.code();
  }
  std::vector<uint8_t> encoded;
  EncodeDecisionAck(ack, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(conn);
}

void Server::HandleInDoubtQuery(Connection* conn, const Frame& frame) {
  if (frame.body_len != 0) {
    DropConnection(conn);
    return;
  }
  const uint64_t seq = conn->AdmitRequest();
  InDoubtList list;
  // Both branches recovery left in doubt and live prepared branches whose
  // decision never arrived (their coordinator crashed before deciding):
  // the reconnecting coordinator answers every one of these with a
  // decision frame.
  list.gtids = engine_->InDoubtGtids();
  {
    MutexLock lock(&prepared_mu_);
    for (const auto& entry : prepared_) {
      if (!entry.second.decided) list.gtids.push_back(entry.first);
    }
  }
  std::vector<uint8_t> encoded;
  EncodeInDoubtList(list, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(conn);
}

void Server::DispatchRequest(Connection* conn, Request request) {
  const uint64_t seq = conn->AdmitRequest();
  Response error;
  error.request_id = request.request_id;
  error.status = CheckRunnable(request.proc_id, request.partitions);
  if (error.status == StatusCode::kOk && options_.snapshot_source != nullptr) {
    // Replica role: only read-only procedures, and only if the applied
    // snapshot is at least as fresh as the client demands.
    if (!engine_->IsProcedureReadOnly(request.proc_id)) {
      error.status = StatusCode::kInvalidArgument;
    } else if (request.min_read_lsn >
               options_.snapshot_source->applied_lsn()) {
      error.status = StatusCode::kUnavailable;
    }
    if (error.status != StatusCode::kOk) {
      stats_.snapshot_rejects.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (error.status == StatusCode::kOk) {
    WorkItem item;
    item.conn_id = conn->id();
    item.seq = seq;
    item.request = std::move(request);
    error.status = Enqueue(std::move(item));
    if (error.status == StatusCode::kOk) {
      stats_.requests_dispatched.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  CompleteInline(conn, seq, error);
}

StatusCode Server::CheckRunnable(uint32_t proc_id,
                                 const std::vector<uint32_t>& partitions) {
  if (in_doubt_gate_) {
    // Recovered in-doubt redo applies outside concurrency control, so no
    // transaction may run until the coordinator has resolved every gtid.
    if (engine_->has_in_doubt()) return StatusCode::kUnavailable;
    in_doubt_gate_ = false;  // Resolved; stop checking per request.
  }
  if (engine_->GetProcedure(proc_id) == nullptr) return StatusCode::kNotFound;
  const uint32_t num_partitions = engine_->options().num_partitions;
  for (uint32_t p : partitions) {
    if (p >= num_partitions) return StatusCode::kInvalidArgument;
  }
  return StatusCode::kOk;
}

StatusCode Server::Enqueue(WorkItem item) {
  WorkQueue* queue = queues_[static_cast<size_t>(WorkerFor(
                                 item.is_prepare ? item.prepare.partitions
                                                 : item.request.partitions))]
                         .get();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  StatusCode code = StatusCode::kOk;
  {
    MutexLock lock(&queue->mu);
    if (queue->stopped) {
      code = StatusCode::kUnavailable;
    } else if (queue->items.size() >= options_.queue_capacity) {
      // Admission control: the queue is the last bounded stage; shedding
      // load here keeps overload from turning into unbounded memory growth.
      code = StatusCode::kResourceExhausted;
    } else {
      queue->items.push_back(std::move(item));
    }
  }
  if (code == StatusCode::kOk) {
    queue->cv.NotifyOne();
    return code;
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (code == StatusCode::kResourceExhausted) {
    stats_.admission_rejects.fetch_add(1, std::memory_order_relaxed);
  }
  return code;
}

int Server::WorkerFor(const std::vector<uint32_t>& partitions) {
  if (!partitioned_dispatch_) return 0;  // Single shared run queue.
  if (partitions.empty()) {
    // Undeclared access locks every partition; spread those across workers.
    return static_cast<int>(round_robin_++ %
                            static_cast<uint64_t>(options_.num_workers));
  }
  const uint32_t min_partition =
      *std::min_element(partitions.begin(), partitions.end());
  return static_cast<int>(min_partition %
                          static_cast<uint32_t>(options_.num_workers));
}

void Server::CompleteInline(Connection* conn, uint64_t seq,
                            const Response& response) {
  std::vector<uint8_t> encoded;
  EncodeResponse(response, &encoded);
  conn->Complete(seq, std::move(encoded));
  FlushConnection(conn);
}

void Server::FlushConnection(Connection* conn) {
  stats_.responses_sent.fetch_add(loop_->ReleaseReplies(conn),
                                  std::memory_order_relaxed);
}

void Server::OnClosed(Connection* conn) {
  if (conn->shipper() == nullptr) return;
  // A subscribed replica left.
  const uint32_t remaining =
      replica_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (options_.repl_ack != ReplAckMode::kSemisync) return;
  RecomputeSemisyncWatermark();
  if (remaining == 0) {
    // Losing the last replica degrades semisync to local durability;
    // otherwise every held reply would wait forever.
    stats_.semisync_degraded.fetch_add(1, std::memory_order_relaxed);
  }
  if (engine_->log_manager() != nullptr) {
    ReleaseDurable(ReleaseWatermark(engine_->log_manager()->durable_lsn()));
  }
}

void Server::PushCompletion(Completion completion) {
  {
    MutexLock lock(&completions_mu_);
    completions_.push_back(std::move(completion));
  }
  loop_->Wakeup();
}

void Server::PushWhenDurable(Lsn lsn, Completion completion) {
  LogManager* log = engine_->log_manager();
  bool held = false;
  if (lsn > 0 && log != nullptr) {
    MutexLock lock(&held_mu_);
    if (ReleaseWatermark(log->durable_lsn()) < lsn) {
      held_replies_.push(HeldReply{lsn, std::move(completion)});
      held = true;
    }
  }
  if (!held) {
    PushCompletion(std::move(completion));
    return;
  }
  // The re-check after insertion closes the race with a flush or ack that
  // landed in between.
  stats_.replies_held_durable.fetch_add(1, std::memory_order_relaxed);
  ReleaseDurable(ReleaseWatermark(log->durable_lsn()));
}

void Server::ReleaseDurable(Lsn durable) {
  bool released = false;
  {
    MutexLock held_lock(&held_mu_);
    MutexLock comp_lock(&completions_mu_);
    while (!held_replies_.empty() && held_replies_.top().lsn <= durable) {
      completions_.push_back(
          std::move(const_cast<HeldReply&>(held_replies_.top()).completion));
      held_replies_.pop();
      released = true;
    }
  }
  if (released) loop_->Wakeup();
}

void Server::DrainCompletions() {
  for (;;) {
    std::deque<Completion> local;
    {
      MutexLock lock(&completions_mu_);
      local.swap(completions_);
    }
    if (local.empty()) break;
    for (auto& completion : local) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      Connection* conn = loop_->Find(completion.conn_id);
      if (conn == nullptr) continue;  // Client already gone.
      conn->Complete(completion.seq, std::move(completion.encoded));
      FlushConnection(conn);
    }
  }
  if (reads_paused_ && inflight_.load(std::memory_order_relaxed) <
                           ResumeWatermark(options_.max_inflight)) {
    ResumeReads();
  }
}

void Server::PauseReads() {
  if (reads_paused_) return;
  reads_paused_ = true;
  // No read is cancelled: outstanding ones complete and simply do not
  // resubmit while paused. Replica connections stay readable: their acks
  // release held semisync replies, which is exactly what drains the
  // budget. Coordinator connections likewise: their decision frames are
  // what un-parks prepared workers.
  loop_->ForEach([](Connection* conn) {
    if (conn->peer() != PeerRole::kReplica &&
        conn->peer() != PeerRole::kCoordinator) {
      conn->set_read_paused(true);
    }
  });
}

void Server::ResumeReads() {
  reads_paused_ = false;
  loop_->ForEach([this](Connection* conn) {
    if (reads_paused_) return;  // Re-paused by an earlier connection.
    conn->set_read_paused(false);
    // Frames decoded before the pause may still be buffered; re-admit them
    // now (this may re-pause, in which case stop).
    DrainFrames(conn);
    if (!conn->closed()) loop_->ArmRead(conn);
  });
}

void Server::WorkerLoop(int worker_id) {
  WorkQueue* queue =
      queues_[partitioned_dispatch_ ? static_cast<size_t>(worker_id) : 0]
          .get();
  SnapshotSource* snapshot = options_.snapshot_source;
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(&queue->mu);
      while (!queue->stopped && queue->items.empty()) {
        queue->cv.Wait(&queue->mu);
      }
      if (queue->stopped) return;  // Remaining replies are dropped at Stop.
      item = std::move(queue->items.front());
      queue->items.pop_front();
    }
    if (item.is_prepare) {
      RunPrepare(worker_id, &item);
      continue;
    }
    Engine::DeferredResult result;
    Lsn snapshot_lsn = 0;
    if (snapshot != nullptr) {
      // Replica role: exclude the applier's raw writes for the duration of
      // the (read-only) procedure; the snapshot LSN reported to the client
      // is the applied prefix the read actually observed.
      snapshot->ReadLock();
      result = engine_->RunProcedureDeferred(
          item.request.proc_id, worker_id, item.request.args.data(),
          item.request.args.size(), item.request.partitions);
      snapshot_lsn = snapshot->applied_lsn();
      snapshot->ReadUnlock();
    } else {
      result = engine_->RunProcedureDeferred(
          item.request.proc_id, worker_id, item.request.args.data(),
          item.request.args.size(), item.request.partitions);
    }
    Response response;
    response.request_id = item.request.request_id;
    response.status = result.status.code();
    response.commit_lsn = snapshot != nullptr ? snapshot_lsn
                                              : result.commit_lsn;
    response.payload = std::move(result.reply);
    Completion completion;
    completion.conn_id = item.conn_id;
    completion.seq = item.seq;
    EncodeResponse(response, &completion.encoded);
    PushWhenDurable(result.commit_lsn, std::move(completion));
  }
}

void Server::RunPrepare(int worker_id, WorkItem* item) {
  const Prepare& prepare = item->prepare;
  const Procedure* proc = engine_->GetProcedure(prepare.proc_id);
  NEXT700_CHECK(proc != nullptr);  // Checked at dispatch.
  const std::vector<uint32_t> partitions(prepare.partitions.begin(),
                                         prepare.partitions.end());
  TxnContext* txn = engine_->Begin(worker_id, partitions);
  // The outcome record's durability gates the DecisionAck through the
  // held-replies path, not a blocking wait on this worker.
  txn->set_defer_durable(true);
  txn->SetProcedure(prepare.proc_id, prepare.args.data(),
                    prepare.args.size());
  Status s =
      (*proc)(engine_, txn, prepare.args.data(), prepare.args.size());
  if (s.ok()) s = engine_->Prepare(txn, prepare.gtid);
  Vote vote;
  vote.gtid = prepare.gtid;
  vote.status = s.code();
  vote.prepare_lsn = txn->prepare_lsn();
  if (!s.ok()) {
    if (s.IsAborted()) {
      engine_->Abort(txn);
    } else {
      engine_->AbortUser(txn);
    }
    Completion no;
    no.conn_id = item->conn_id;
    no.seq = item->seq;
    EncodeVote(vote, &no.encoded);
    PushCompletion(std::move(no));
    return;
  }
  // Register before the vote leaves: the decision can arrive the moment
  // the coordinator counts the last yes.
  {
    MutexLock lock(&prepared_mu_);
    prepared_.emplace(prepare.gtid, PreparedTxn{});
  }
  if (options_.crash_after_prepares > 0 &&
      prepares_done_.fetch_add(1, std::memory_order_relaxed) + 1 ==
          options_.crash_after_prepares) {
    // Crash-harness hook: die exactly in doubt — the prepare record is
    // durable but the vote never leaves this process.
    _exit(42);
  }
  Completion yes;
  yes.conn_id = item->conn_id;
  yes.seq = item->seq;
  EncodeVote(vote, &yes.encoded);
  // Engine::Prepare already waited for durability ("prepare durable before
  // vote"), so the vote bypasses the held-replies machinery.
  PushCompletion(std::move(yes));

  // Park holding the branch's locks until the coordinator decides (or
  // Stop): a participant never unilaterally aborts after voting yes.
  bool do_commit = false;
  bool stopped = false;
  uint64_t ack_conn_id = 0;
  uint64_t ack_seq = 0;
  {
    MutexLock lock(&prepared_mu_);
    auto it = prepared_.find(prepare.gtid);
    NEXT700_CHECK(it != prepared_.end());
    while (!it->second.decided && !prepared_stop_) {
      prepared_cv_.Wait(&prepared_mu_);
    }
    if (it->second.decided) {
      do_commit = it->second.commit;
      ack_conn_id = it->second.decision_conn_id;
      ack_seq = it->second.decision_seq;
    } else {
      stopped = true;
    }
    prepared_.erase(it);
  }
  if (stopped) {
    // In-memory rollback only — no outcome record — so the branch stays in
    // doubt on disk and presumed abort resolves it at the next recovery.
    engine_->Abort(txn);
    return;
  }
  DecisionAck ack;
  ack.gtid = prepare.gtid;
  ack.status = StatusCode::kOk;
  if (do_commit) {
    const Status cs = engine_->CommitPrepared(txn);
    if (!cs.ok()) ack.status = cs.code();
  } else {
    engine_->AbortPrepared(txn);
  }
  Completion completion;
  completion.conn_id = ack_conn_id;
  completion.seq = ack_seq;
  EncodeDecisionAck(ack, &completion.encoded);
  // Decision durable before ack: the commit outcome record must be on disk
  // before the coordinator may forget the transaction.
  const bool durable_ack = do_commit && ack.status == StatusCode::kOk &&
                           engine_->options().sync_commit;
  PushWhenDurable(durable_ack ? txn->commit_lsn() : 0, std::move(completion));
}

}  // namespace server
}  // namespace next700
