#include "shard/shard_router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/macros.h"
#include "log/recovery.h"
#include "server/procs.h"

namespace next700 {
namespace shard {

using server::ConnLoop;
using server::Connection;
using server::FrameType;
using server::PeerRole;

namespace {

/// Shard-link reconnect backoff (jittered doubling).
constexpr uint64_t kLinkBackoffMinMs = 20;
constexpr uint64_t kLinkBackoffMaxMs = 1000;
/// How long a decided transaction waits for its decision acks before
/// replying anyway: the decision is already durable, and a slow
/// participant resolves through in-doubt recovery.
constexpr uint64_t kAckTimeoutMs = 5000;

/// Wall-clock nanoseconds — deliberately not the monotonic clock: gtids
/// must stay unique across router restarts, and the monotonic epoch resets
/// at boot.
uint64_t WallNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Re-frames a (type, body) pair exactly as the sender framed it — header
/// plus body is byte-identical to the original frame, which is what lets
/// the router relay shard responses without re-encoding.
void AppendFrame(FrameType type, const uint8_t* body, size_t body_len,
                 std::vector<uint8_t>* out) {
  uint8_t header[server::kFrameHeaderBytes];
  server::StoreLE32(static_cast<uint32_t>(body_len), header);
  header[4] = static_cast<uint8_t>(type);
  out->insert(out->end(), header, header + sizeof(header));
  out->insert(out->end(), body, body + body_len);
}

bool ParseHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  *host = addr.substr(0, colon);
  const long p = std::strtol(addr.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

uint32_t ResolveNumLoops(int requested) {
  if (requested > 0) return static_cast<uint32_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw / 2));
}

}  // namespace

/// One forwarding connection from an event loop to a shard server. The
/// owning loop is the only thread that touches it; the state machine runs
/// off read/write completions. A link accepts forwards only in kUp (after
/// handshake + in-doubt resolution); anything staged while down answers
/// kUnavailable immediately, which keeps the reply stream strictly
/// pairable against the expectation deque.
struct ShardRouter::ShardLink {
  enum class State : uint8_t {
    kDown,     // No connection; retry at retry_deadline_ms.
    kHello,    // Connect + Hello + InDoubtQuery sent; awaiting HelloAck.
    kResolve,  // Awaiting the in-doubt list, then its decision acks.
    kUp,       // Forwarding.
  };

  uint32_t shard_id = 0;
  State state = State::kDown;
  /// The framed transport, owned by the loop (its context() points back
  /// here); null while kDown. A fresh Connection (and a fresh id) per
  /// connect attempt keeps stale completions from a dead socket unroutable.
  Connection* conn = nullptr;
  /// FIFO of what each kUp reply frame answers (shard servers reply in
  /// per-connection arrival order).
  std::deque<Expectation> expect;
  /// Decision acks still owed from in-doubt resolution; -1 until the list
  /// arrives.
  int resolve_pending = -1;
  uint64_t retry_deadline_ms = 0;
  uint64_t backoff_ms = 0;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
};

/// One cross-shard kKvRmw: queued for an in-flight slot, then a state
/// machine its loop drives from votes, acks, durability and timers. Its
/// reply slot is (session id, ticket), so a session that dies mid-2PC just
/// drops the result.
struct ShardRouter::CrossTxn {
  enum class Phase : uint8_t {
    kVoting,   // Prepares sent; votes outstanding.
    kLogging,  // Unanimous yes; the commit record awaits durability.
    kDecided,  // Decision sent; commit acks or late votes outstanding.
  };

  uint64_t session_id = 0;
  uint64_t ticket = 0;
  uint64_t request_id = 0;
  /// Per-shard key slices (index == shard id; empty == not a participant).
  std::vector<std::vector<uint64_t>> shard_keys;

  uint64_t gtid = 0;
  Phase phase = Phase::kVoting;
  std::vector<uint32_t> yes_shards;
  /// Participants whose vote has not arrived. A transaction stays live
  /// until this empties, so an abort can reach a branch that prepared
  /// while its vote was stuck behind earlier replies on its link.
  std::vector<uint32_t> unvoted;
  uint32_t acks_pending = 0;
  bool replied = false;
  /// kVoting: the vote deadline. kDecided: the commit-ack deadline, or
  /// the next resend of an abort to unvoted participants.
  uint64_t deadline_ms = 0;
  Lsn decision_lsn = 0;
  /// The client's reply status once decided (kOk == commit).
  StatusCode status = StatusCode::kOk;
};

/// One event-loop thread: a ConnLoop (sessions and shard links share its
/// connection table) plus every shard link and cross-shard transaction it
/// owns. Only the owning thread touches anything but the atomics; other
/// threads reach in through ConnLoop::Wakeup.
struct ShardRouter::RouterLoop final : ConnLoop::Handler {
  ShardRouter* router = nullptr;
  std::unique_ptr<ConnLoop> net;

  /// Two links per shard: [0, n) carry forwards, [n, 2n) carry 2PC. A
  /// shard answers a connection's frames in arrival order, so on a shared
  /// link a vote could wait behind a forward that spins on the voting
  /// branch's own locks until the vote timeout breaks the cycle.
  std::vector<std::unique_ptr<ShardLink>> links;

  /// Live cross-shard transactions by gtid; jobs awaiting an in-flight slot.
  std::unordered_map<uint64_t, std::unique_ptr<CrossTxn>> txns;
  std::deque<std::unique_ptr<CrossTxn>> queued;
  /// kLogging txns and queued.size(), for the threads that decide whom to
  /// wake (the decision log's callback, a loop freeing a slot).
  std::atomic<uint32_t> commits_waiting{0};
  std::atomic<uint32_t> queued_jobs{0};
  /// Runs net->Run(); declared last, joined by ShardRouter::Stop().
  std::thread thread;

  void OnAccepted(Connection* conn) override {
    (void)conn;
    router->stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
  }
  void OnFrames(Connection* conn) override { router->OnFrames(this, conn); }
  void OnEof(Connection* conn) override { router->OnEof(this, conn); }
  void OnClosed(Connection* conn) override { router->OnClosed(this, conn); }
  uint64_t OnTimers() override { return router->OnTimers(this); }
};

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)) {
  NEXT700_CHECK_MSG(!options_.shards.empty(), "router needs >= 1 shard");
  NEXT700_CHECK_MSG(!options_.log_dir.empty(),
                    "router needs a decision log dir");
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  NEXT700_CHECK(!running_);
  gtid_base_ = WallNanos();

  // Prior commit decisions first (the scan reads the existing segments),
  // then open the log for appending (which starts a fresh segment).
  struct stat st;
  if (::stat(options_.log_dir.c_str(), &st) == 0) {
    std::vector<uint64_t> committed;
    NEXT700_RETURN_IF_ERROR(
        ScanCoordinatorDecisions(options_.log_dir, &committed));
    MutexLock lock(&committed_mu_);
    committed_.insert(committed.begin(), committed.end());
  }
  LogManagerOptions log_options;
  log_options.dir = options_.log_dir;
  log_options.sync_policy = LogSyncPolicy::kFdatasync;
  decision_log_ = std::make_unique<LogManager>(log_options);
  NEXT700_RETURN_IF_ERROR(decision_log_->Open());

  for (size_t i = 0; i < options_.shards.size(); ++i) {
    std::string host;
    uint16_t shard_port = 0;
    if (!ParseHostPort(options_.shards[i], &host, &shard_port)) {
      return Status::InvalidArgument("bad shard address: " +
                                     options_.shards[i]);
    }
    shard_addrs_.emplace_back(std::move(host), shard_port);
  }

  const uint32_t nloops = ResolveNumLoops(options_.num_loops);
  std::vector<ConnLoop*> group;
  for (uint32_t i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<RouterLoop>();
    loop->router = this;
    NEXT700_RETURN_IF_ERROR(ConnLoop::Create(
        options_.io_backend, loop.get(),
        {&stats_.writev_batches, &stats_.frames_batched,
         &stats_.accept_errors},
        &loop->net));
    for (uint32_t s = 0; s < 2 * num_shards(); ++s) {
      auto link = std::make_unique<ShardLink>();
      link->shard_id = s % num_shards();
      link->rng ^= i * 2654435761ull + s + 1;
      loop->links.push_back(std::move(link));
    }
    group.push_back(loop->net.get());
    loops_.push_back(std::move(loop));
  }
  // Loop 0 owns the listener; the core deals sockets over every loop.
  NEXT700_RETURN_IF_ERROR(loops_[0]->net->Listen(
      options_.listen_host, options_.listen_port, 128, std::move(group),
      &port_));

  stop_.store(false, std::memory_order_release);
  {
    MutexLock lock(&shards_mu_);
    links_up_ = 0;
  }
  cross_in_flight_.store(0, std::memory_order_relaxed);
  decision_durable_lsn_.store(decision_log_->durable_lsn());
  decision_log_failed_.store(false);
  // The commit point never blocks a loop: the flusher publishes each new
  // durable watermark (and, once more, a sticky device failure) and wakes
  // the loops holding commits, which release them from their own thread.
  decision_log_->SetDurableCallback([this](Lsn durable) {
    if (!decision_log_->io_status().ok()) decision_log_failed_.store(true);
    decision_durable_lsn_.store(durable);
    for (auto& loop : loops_) {
      if (loop->commits_waiting.load() > 0) loop->net->Wakeup();
    }
  });
  for (auto& loop : loops_) {
    RouterLoop* raw = loop.get();
    raw->thread = std::thread([raw] { raw->net->Run(); });
  }
  running_ = true;
  return Status::OK();
}

void ShardRouter::Stop() {
  if (loops_.empty()) {
    if (decision_log_ != nullptr) decision_log_->Close();
    return;
  }
  stop_.store(true, std::memory_order_release);

  // The durable callback wakes loops, so it goes first; this returns only
  // after an in-flight invocation finished.
  if (decision_log_ != nullptr) decision_log_->SetDurableCallback(nullptr);
  for (auto& loop : loops_) loop->net->Stop();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    MutexLock lock(&shards_mu_);
  }
  shards_cv_.NotifyAll();  // Unpark WaitShardsConnected; it observes stop_.

  // Loop threads are joined: this thread owns their state now. Each
  // ConnLoop closes its sockets as it is destroyed.
  for (auto& loop : loops_) {
    loop->net->ForEach([this](Connection* conn) {
      if (LinkOf(conn) == nullptr) {
        stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    io_syscalls_retired_.fetch_add(
        loop->net->io_counters().syscalls.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  loops_.clear();
  {
    MutexLock lock(&committed_mu_);
    active_gtids_.clear();
  }
  if (decision_log_ != nullptr) decision_log_->Close();
  running_ = false;
}

bool ShardRouter::WaitShardsConnected(int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const uint32_t target =
      static_cast<uint32_t>(loops_.size()) * 2 * num_shards();
  MutexLock lock(&shards_mu_);
  while (links_up_ < target && !stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    shards_cv_.WaitFor(&shards_mu_, deadline - now);
  }
  return links_up_ >= target;
}

uint64_t ShardRouter::io_syscalls() const {
  uint64_t total = io_syscalls_retired_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    total += loop->net->io_counters().syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

// --- Event loop ----------------------------------------------------------

uint64_t ShardRouter::OnTimers(RouterLoop* loop) {
  ProcessTimers(loop);
  if (loop->commits_waiting.load(std::memory_order_relaxed) > 0) {
    ReleaseDurableCommits(loop);
  }
  if (!loop->queued.empty()) StartQueued(loop);
  uint64_t next = ConnLoop::kNoDeadline;
  for (const auto& link : loop->links) {
    if (link->state == ShardLink::State::kDown) {
      next = std::min(next, link->retry_deadline_ms);
    }
  }
  for (const auto& [gtid, txn] : loop->txns) {
    if (txn->phase != CrossTxn::Phase::kLogging) {
      next = std::min(next, txn->deadline_ms);
    }
  }
  return next;
}

void ShardRouter::ProcessTimers(RouterLoop* loop) {
  const uint64_t now = ConnLoop::NowMs();
  for (auto& link : loop->links) {
    if (link->state == ShardLink::State::kDown &&
        link->retry_deadline_ms <= now) {
      StartConnectLink(loop, link.get());
    }
  }
  std::vector<uint64_t> expired;
  for (const auto& [gtid, txn] : loop->txns) {
    if (txn->phase != CrossTxn::Phase::kLogging && txn->deadline_ms <= now) {
      expired.push_back(gtid);
    }
  }
  for (const uint64_t gtid : expired) {
    auto it = loop->txns.find(gtid);
    if (it == loop->txns.end()) continue;
    CrossTxn* txn = it->second.get();
    if (txn->phase == CrossTxn::Phase::kVoting) {
      // Presumed abort breaks the cross-shard deadlock of parked prepared
      // branches. The missing votes stay expected on their links.
      stats_.vote_timeouts.fetch_add(1, std::memory_order_relaxed);
      DecideCrossTxn(loop, txn, StatusCode::kDeadlineExceeded);
    } else if (!txn->replied) {
      // The commit is durable; a straggler resolves through in-doubt
      // recovery, so reply without its ack.
      txn->deadline_ms = now + kAckTimeoutMs;
      ReplyCrossTxn(loop, txn);
    } else {
      // An abort can miss a branch still preparing when it arrived; that
      // branch parks and its vote may wait behind a reply that needs the
      // branch's locks. Tell it again.
      for (const uint32_t shard : txn->unvoted) {
        SendDecision(loop, TwoPcLink(loop, shard), gtid, false);
      }
      txn->deadline_ms = now + kAckTimeoutMs;
    }
  }
}

void ShardRouter::SendOnLink(RouterLoop* loop, ShardLink* link,
                             const std::vector<uint8_t>& bytes,
                             const Expectation& expectation) {
  link->conn->EnqueueRaw(bytes.data(), bytes.size());
  link->expect.push_back(expectation);
  // Everything staged on this link within one reap batch rides the same
  // gather write — the fast path's syscall budget.
  loop->net->MarkDirty(link->conn);
}

void ShardRouter::OnFrames(RouterLoop* loop, Connection* conn) {
  if (ShardLink* link = LinkOf(conn)) {
    DrainLinkFrames(loop, link);
  } else {
    DrainSessionFrames(loop, conn);
  }
}

void ShardRouter::OnEof(RouterLoop* loop, Connection* conn) {
  // A shard hanging up fails its link at once; a client's EOF drains what
  // it sent, and the loop closes the session once every reply is written.
  if (LinkOf(conn) != nullptr) {
    loop->net->Close(conn);
  } else {
    DrainSessionFrames(loop, conn);
  }
}

void ShardRouter::OnClosed(RouterLoop* loop, Connection* conn) {
  // Link expectations and cross-shard transactions that still name a
  // closed session's id resolve to nothing at lookup time.
  if (ShardLink* link = LinkOf(conn)) {
    LinkDown(loop, link);
  } else {
    stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- Client sessions -----------------------------------------------------

void ShardRouter::DrainSessionFrames(RouterLoop* loop, Connection* conn) {
  while (!conn->closed()) {
    server::Frame frame;
    bool have = false;
    if (!conn->decoder()->Next(&frame, &have).ok()) {
      loop->net->Close(conn);
      return;
    }
    if (!have) return;
    if (!conn->handshaken()) {
      server::Hello hello;
      if (frame.type != FrameType::kHello ||
          !server::DecodeHello(frame.body, frame.body_len, &hello).ok() ||
          hello.role != PeerRole::kClient) {
        loop->net->Close(conn);
        return;
      }
      conn->set_handshaken();
      conn->set_peer(PeerRole::kClient);
      std::vector<uint8_t> ack;
      server::EncodeHelloAck(server::HelloAck{}, &ack);
      conn->EnqueueRaw(ack.data(), ack.size());
      loop->net->MarkDirty(conn);
      continue;
    }
    if (frame.type != FrameType::kRequest) {
      loop->net->Close(conn);
      return;
    }
    RouteRequest(loop, conn, conn->AdmitRequest(), frame);
  }
}

void ShardRouter::ReplyError(RouterLoop* loop, Connection* conn,
                             uint64_t ticket, uint64_t request_id,
                             StatusCode code) {
  server::Response response;
  response.request_id = request_id;
  response.status = code;
  std::vector<uint8_t> encoded;
  server::EncodeResponse(response, &encoded);
  conn->Complete(ticket, std::move(encoded));
  loop->net->ReleaseReplies(conn);
}

// --- Routing -------------------------------------------------------------

void ShardRouter::RouteRequest(RouterLoop* loop, Connection* conn,
                               uint64_t ticket, const server::Frame& frame) {
  server::RequestView request;
  if (!server::DecodeRequestView(frame.body, frame.body_len, &request).ok()) {
    // Let a real engine produce the error response so clients see exactly
    // what a direct connection would have said.
    StageForward(loop, conn, ticket, 0, frame, 0);
    return;
  }
  const uint32_t num_shards = this->num_shards();
  server::WireReader args(request.args, request.args_len);
  if (request.proc_id == server::kKvGet || request.proc_id == server::kKvPut) {
    uint64_t key;
    const uint32_t target =
        args.GetU64(&key) ? server::KvShardOf(key, num_shards) : 0;
    StageForward(loop, conn, ticket, target, frame, request.request_id);
    return;
  }
  if (request.proc_id != server::kKvRmw) {
    StageForward(loop, conn, ticket, 0, frame, request.request_id);
    return;
  }
  uint16_t nkeys = 0;
  if (!args.GetU16(&nkeys) || nkeys == 0 ||
      args.remaining() != nkeys * sizeof(uint64_t)) {
    StageForward(loop, conn, ticket, 0, frame, request.request_id);
    return;
  }
  std::vector<std::vector<uint64_t>> shard_keys(num_shards);
  uint32_t shards_touched = 0;
  uint32_t single = 0;
  for (uint16_t i = 0; i < nkeys; ++i) {
    uint64_t key;
    NEXT700_CHECK(args.GetU64(&key));
    const uint32_t shard = server::KvShardOf(key, num_shards);
    if (shard_keys[shard].empty()) {
      ++shards_touched;
      single = shard;
    }
    shard_keys[shard].push_back(key);
  }
  if (shards_touched == 1) {
    StageForward(loop, conn, ticket, single, frame, request.request_id);
    return;
  }
  // Cross-shard: a 2PC on this loop, once the in-flight budget has room.
  // The session's reorder buffer slots its reply into request order.
  auto txn = std::make_unique<CrossTxn>();
  txn->session_id = conn->id();
  txn->ticket = ticket;
  txn->request_id = request.request_id;
  txn->shard_keys = std::move(shard_keys);
  loop->queued.push_back(std::move(txn));
  StartQueued(loop);
}

void ShardRouter::StageForward(RouterLoop* loop, Connection* conn,
                               uint64_t ticket, uint32_t shard_id,
                               const server::Frame& frame,
                               uint64_t request_id) {
  ShardLink* link = loop->links[shard_id].get();
  if (link->state != ShardLink::State::kUp) {
    // The client survives; only this request fails. Accepting forwards on
    // a link mid-handshake would interleave them ahead of the in-doubt
    // decisions and break reply pairing.
    ReplyError(loop, conn, ticket, request_id, StatusCode::kUnavailable);
    return;
  }
  std::vector<uint8_t> bytes;
  AppendFrame(frame.type, frame.body, frame.body_len, &bytes);
  Expectation expectation;
  expectation.session_id = conn->id();
  expectation.ticket = ticket;
  expectation.request_id = request_id;
  SendOnLink(loop, link, bytes, expectation);
  stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
}

// --- Shard links ---------------------------------------------------------

void ShardRouter::StartConnectLink(RouterLoop* loop, ShardLink* link) {
  const auto& [host, shard_port] = shard_addrs_[link->shard_id];
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    LinkDown(loop, link);
    return;
  }
  link->conn = loop->net->Adopt(fd);
  link->conn->set_context(link);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(shard_port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
       errno != EINPROGRESS)) {
    loop->net->Close(link->conn);  // Schedules the retry.
    return;
  }
  link->state = ShardLink::State::kHello;
  link->resolve_pending = -1;
  // Queue the handshake + in-doubt query now; the backend parks the writev
  // until the (possibly still in-progress) connect makes the socket
  // writable, and a failed connect surfaces as the write error. The loop
  // arms the read once that first write lands.
  std::vector<uint8_t> bytes;
  server::Hello hello;
  hello.role = PeerRole::kCoordinator;
  server::EncodeHello(hello, &bytes);
  server::EncodeInDoubtQuery(&bytes);
  link->conn->EnqueueRaw(bytes.data(), bytes.size());
  loop->net->MarkDirty(link->conn);
}

void ShardRouter::DrainLinkFrames(RouterLoop* loop, ShardLink* link) {
  // Frame bodies point into the decoder, valid until its next Next(); a
  // handler that closes the link leaves the Connection (and so the
  // decoder) alive until the batch ends.
  Connection* conn = link->conn;
  while (!conn->closed()) {
    server::Frame frame;
    bool have = false;
    if (!conn->decoder()->Next(&frame, &have).ok()) {
      loop->net->Close(conn);
      return;
    }
    if (!have) return;
    if (link->state == ShardLink::State::kUp) {
      HandleLinkReply(loop, link, frame);
    } else {
      HandleLinkHandshakeFrame(loop, link, frame);
    }
  }
}

void ShardRouter::HandleLinkHandshakeFrame(RouterLoop* loop, ShardLink* link,
                                           const server::Frame& frame) {
  if (link->state == ShardLink::State::kHello) {
    server::HelloAck ack;
    if (frame.type != FrameType::kHelloAck ||
        !server::DecodeHelloAck(frame.body, frame.body_len, &ack).ok()) {
      loop->net->Close(link->conn);
      return;
    }
    link->state = ShardLink::State::kResolve;
    return;
  }
  NEXT700_CHECK(link->state == ShardLink::State::kResolve);
  if (link->resolve_pending < 0) {
    // First frame after the HelloAck answers the in-doubt query.
    server::InDoubtList list;
    if (frame.type != FrameType::kInDoubtList ||
        !server::DecodeInDoubtList(frame.body, frame.body_len, &list).ok()) {
      loop->net->Close(link->conn);
      return;
    }
    link->resolve_pending = 0;
    for (const uint64_t gtid : list.gtids) {
      bool commit = false;
      bool skip = false;
      ClassifyInDoubt(gtid, &commit, &skip);
      // A skipped gtid's outcome belongs to a live transaction.
      if (!skip) SendDecision(loop, link, gtid, commit);
    }
    if (link->resolve_pending == 0) LinkUp(loop, link);
    return;
  }
  server::DecisionAck ack;
  if (frame.type != FrameType::kDecisionAck ||
      !server::DecodeDecisionAck(frame.body, frame.body_len, &ack).ok()) {
    loop->net->Close(link->conn);
    return;
  }
  stats_.resolved_in_doubt.fetch_add(1, std::memory_order_relaxed);
  if (--link->resolve_pending == 0) LinkUp(loop, link);
}

void ShardRouter::HandleLinkReply(RouterLoop* loop, ShardLink* link,
                                  const server::Frame& frame) {
  server::Vote vote;
  if (link->expect.empty() || frame.type != link->expect.front().reply ||
      (frame.type == FrameType::kVote &&
       (!server::DecodeVote(frame.body, frame.body_len, &vote).ok() ||
        vote.gtid != link->expect.front().gtid))) {
    // A reply nothing asked for (or the wrong kind): the stream can no
    // longer be paired up. The unmatched expectation fails with the link.
    loop->net->Close(link->conn);
    return;
  }
  const Expectation e = link->expect.front();
  link->expect.pop_front();
  if (frame.type == FrameType::kVote) {
    HandleVote(loop, link, vote);
  } else if (frame.type == FrameType::kDecisionAck) {
    HandleAck(loop, e.gtid);
  } else if (Connection* session = loop->net->Find(e.session_id)) {
    std::vector<uint8_t> out;
    AppendFrame(frame.type, frame.body, frame.body_len, &out);
    session->Complete(e.ticket, std::move(out));
    loop->net->ReleaseReplies(session);
  }
}

void ShardRouter::LinkUp(RouterLoop* loop, ShardLink* link) {
  (void)loop;
  link->state = ShardLink::State::kUp;
  link->backoff_ms = 0;
  {
    MutexLock lock(&shards_mu_);
    ++links_up_;
  }
  shards_cv_.NotifyAll();
}

void ShardRouter::LinkDown(RouterLoop* loop, ShardLink* link) {
  if (link->state == ShardLink::State::kUp) {
    MutexLock lock(&shards_mu_);
    --links_up_;
  }
  link->conn = nullptr;
  std::deque<Expectation> orphans;
  orphans.swap(link->expect);
  link->resolve_pending = -1;
  link->state = ShardLink::State::kDown;
  link->backoff_ms = link->backoff_ms == 0
                         ? kLinkBackoffMinMs
                         : std::min(link->backoff_ms * 2, kLinkBackoffMaxMs);
  const uint64_t half = link->backoff_ms / 2;
  link->retry_deadline_ms =
      ConnLoop::NowMs() + half + XorShift64(&link->rng) % (half + 1);
  for (const Expectation& e : orphans) {
    if (e.reply == FrameType::kResponse) {
      if (Connection* session = loop->net->Find(e.session_id)) {
        ReplyError(loop, session, e.ticket, e.request_id,
                   StatusCode::kUnavailable);
      }
    } else if (e.reply == FrameType::kDecisionAck) {
      // The reconnect's in-doubt sweep replays the decision.
      HandleAck(loop, e.gtid);
    } else {
      // A lost vote is a failed vote. Aborting now also takes the gtid out
      // of the active set before this link redials, so the reconnect's
      // sweep presume-aborts the branch if the shard prepared it.
      CrossTxn* txn = loop->txns.at(e.gtid).get();
      std::erase(txn->unvoted, link->shard_id);
      if (txn->phase == CrossTxn::Phase::kVoting) {
        DecideCrossTxn(loop, txn, StatusCode::kUnavailable);
      } else {
        MaybeRetireCrossTxn(loop, txn);
      }
    }
  }
}

// --- Cross-shard 2PC -----------------------------------------------------

void ShardRouter::ClassifyInDoubt(uint64_t gtid, bool* commit, bool* skip) {
  MutexLock lock(&committed_mu_);
  *commit = committed_.count(gtid) != 0;
  // One critical section for both looks: a gtid that is neither committed
  // nor active is decidedly dead (presumed abort). Checking the two sets
  // under separate lock acquisitions would let a live transaction commit
  // between them and be wrongly aborted.
  *skip = !*commit && active_gtids_.count(gtid) != 0;
}

ShardRouter::ShardLink* ShardRouter::TwoPcLink(RouterLoop* loop,
                                               uint32_t shard) {
  return loop->links[num_shards() + shard].get();
}

void ShardRouter::StartQueued(RouterLoop* loop) {
  // Publish the queue before taking a slot: a loop that frees one either
  // sees this count and wakes us, or freed it before our attempt below.
  loop->queued_jobs.store(static_cast<uint32_t>(loop->queued.size()));
  const int budget = std::max(1, options_.coordinator_threads);
  while (!loop->queued.empty()) {
    // One vote in flight per 2PC link: a shard answers in arrival order,
    // so a later prepare's vote could wait behind an earlier prepare that
    // spins on the later one's locks. A vote's arrival restarts the queue.
    for (uint32_t shard = 0; shard < num_shards(); ++shard) {
      const std::deque<Expectation>& expect = TwoPcLink(loop, shard)->expect;
      if (!loop->queued.front()->shard_keys[shard].empty() &&
          std::any_of(expect.begin(), expect.end(), [](const Expectation& e) {
            return e.reply == FrameType::kVote;
          })) {
        loop->queued_jobs.store(static_cast<uint32_t>(loop->queued.size()));
        return;
      }
    }
    int in_flight = cross_in_flight_.load();
    if (in_flight >= budget) break;
    if (!cross_in_flight_.compare_exchange_weak(in_flight, in_flight + 1)) {
      continue;
    }
    CrossTxn* txn = loop->queued.front().get();
    txn->gtid = NextGtid();
    txn->deadline_ms = ConnLoop::NowMs() + static_cast<uint64_t>(std::max<int64_t>(
                                           0, options_.vote_timeout_ms));
    loop->txns.emplace(txn->gtid, std::move(loop->queued.front()));
    loop->queued.pop_front();
    StartCrossTxn(loop, txn);
  }
  loop->queued_jobs.store(static_cast<uint32_t>(loop->queued.size()));
}

void ShardRouter::StartCrossTxn(RouterLoop* loop, CrossTxn* txn) {
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    if (!txn->shard_keys[shard].empty() &&
        TwoPcLink(loop, shard)->state != ShardLink::State::kUp) {
      DecideCrossTxn(loop, txn, StatusCode::kUnavailable);  // Nothing sent.
      return;
    }
  }
  {
    // Claim the gtid before any prepare leaves: a link's concurrent
    // in-doubt sweep must skip it, not presume abort.
    MutexLock lock(&committed_mu_);
    active_gtids_.insert(txn->gtid);
  }
  // Phase one: one Prepare per participating shard, carrying that shard's
  // slice of the key set (kKvRmw argument encoding) and the global
  // partition ids those keys map to.
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    const std::vector<uint64_t>& keys = txn->shard_keys[shard];
    if (keys.empty()) continue;
    server::Prepare prepare;
    prepare.gtid = txn->gtid;
    prepare.proc_id = server::kKvRmw;
    for (const uint64_t key : keys) {
      prepare.partitions.push_back(
          server::KvPartitionOf(key, options_.num_partitions));
    }
    std::sort(prepare.partitions.begin(), prepare.partitions.end());
    prepare.partitions.erase(
        std::unique(prepare.partitions.begin(), prepare.partitions.end()),
        prepare.partitions.end());
    server::WireWriter args(&prepare.args);
    args.PutU16(static_cast<uint16_t>(keys.size()));
    for (const uint64_t key : keys) args.PutU64(key);
    std::vector<uint8_t> bytes;
    server::EncodePrepare(prepare, &bytes);
    Expectation expectation;
    expectation.reply = FrameType::kVote;
    expectation.gtid = txn->gtid;
    SendOnLink(loop, TwoPcLink(loop, shard), bytes, expectation);
    txn->unvoted.push_back(shard);
  }
}

void ShardRouter::HandleVote(RouterLoop* loop, ShardLink* link,
                             const server::Vote& vote) {
  // A transaction stays live while any vote expectation names it.
  auto it = loop->txns.find(vote.gtid);
  NEXT700_CHECK(it != loop->txns.end());
  CrossTxn* txn = it->second.get();
  std::erase(txn->unvoted, link->shard_id);
  if (txn->phase != CrossTxn::Phase::kVoting) {
    // A late vote: its transaction already aborted (deadline or another
    // shard's no). A yes-voter stays parked until told, so tell it now.
    if (vote.status == StatusCode::kOk) {
      SendDecision(loop, link, vote.gtid, /*commit=*/false);
    }
    MaybeRetireCrossTxn(loop, txn);
    return;
  }
  if (vote.status != StatusCode::kOk) {
    // The no-voter already rolled back; presumed abort needs no message.
    DecideCrossTxn(loop, txn, vote.status);
    return;
  }
  txn->yes_shards.push_back(link->shard_id);
  if (!txn->unvoted.empty()) return;
  if (options_.crash_after_votes_collected > 0 &&
      votes_collected_.fetch_add(1, std::memory_order_relaxed) + 1 ==
          options_.crash_after_votes_collected) {
    // Coordinator crash window: every branch is prepared, the decision is
    // not logged. Participants are left in doubt; recovery must abort
    // this gtid (presumed abort) without losing anything acked.
    std::fflush(nullptr);
    ::_exit(42);
  }
  // The commit point: the decision is durable in the coordinator log
  // before any reply or commit decision leaves this process (aborts are
  // never logged — presumed abort). The durable callback wakes this loop.
  uint8_t decision_body[8];
  server::StoreLE64(txn->gtid, decision_body);
  txn->decision_lsn = decision_log_->Append(
      LogRecordType::kCoordDecision, decision_body, sizeof(decision_body));
  txn->phase = CrossTxn::Phase::kLogging;
  loop->commits_waiting.fetch_add(1);
}

void ShardRouter::ReleaseDurableCommits(RouterLoop* loop) {
  const Lsn durable = decision_durable_lsn_.load();
  const bool failed = decision_log_failed_.load();
  std::vector<CrossTxn*> ready;
  for (const auto& [gtid, txn] : loop->txns) {
    if (txn->phase == CrossTxn::Phase::kLogging &&
        (txn->decision_lsn <= durable || failed)) {
      ready.push_back(txn.get());
    }
  }
  for (CrossTxn* txn : ready) {
    loop->commits_waiting.fetch_sub(1);
    // A failed decision log cannot hold the commit point, and there is no
    // commit without it: abort instead.
    DecideCrossTxn(loop, txn,
                   txn->decision_lsn <= durable ? StatusCode::kOk
                                                : StatusCode::kIOError);
  }
}

void ShardRouter::DecideCrossTxn(RouterLoop* loop, CrossTxn* txn,
                                 StatusCode status) {
  const bool commit = status == StatusCode::kOk;
  txn->status = status;
  {
    MutexLock lock(&committed_mu_);
    if (commit) committed_.insert(txn->gtid);
    active_gtids_.erase(txn->gtid);
  }
  // Phase two: the decision to every shard that voted yes. Commit acks are
  // awaited (bounded) so a committed transaction is visible on every
  // participant before the client hears about it. An abort also goes to
  // the shards whose vote is still out (no-voters already rolled back),
  // and its reply does not wait.
  txn->phase = CrossTxn::Phase::kDecided;
  txn->deadline_ms = ConnLoop::NowMs() + kAckTimeoutMs;
  for (const uint32_t shard : txn->yes_shards) {
    if (SendDecision(loop, TwoPcLink(loop, shard), txn->gtid, commit) &&
        commit) {
      ++txn->acks_pending;
    }
  }
  for (const uint32_t shard : txn->unvoted) {
    SendDecision(loop, TwoPcLink(loop, shard), txn->gtid, false);
  }
  if (txn->acks_pending == 0) ReplyCrossTxn(loop, txn);
}

void ShardRouter::HandleAck(RouterLoop* loop, uint64_t gtid) {
  // Only commit acks have a waiter.
  auto it = loop->txns.find(gtid);
  if (it != loop->txns.end() && !it->second->replied &&
      it->second->phase == CrossTxn::Phase::kDecided &&
      --it->second->acks_pending == 0) {
    ReplyCrossTxn(loop, it->second.get());
  }
}

bool ShardRouter::SendDecision(RouterLoop* loop, ShardLink* link,
                               uint64_t gtid, bool commit) {
  // A link resolving its in-doubt backlog has classified every gtid on its
  // list once the list arrived (skipping live ones): a decision then joins
  // the acks that handshake counts. A link that has not asked yet finds
  // the verdict in its own sweep.
  const bool resolving = link->state == ShardLink::State::kResolve &&
                         link->resolve_pending >= 0;
  if (link->state != ShardLink::State::kUp && !resolving) return false;
  server::Decision decision;
  decision.gtid = gtid;
  std::vector<uint8_t> bytes;
  server::EncodeDecision(
      commit ? FrameType::kCommitDecision : FrameType::kAbortDecision,
      decision, &bytes);
  if (resolving) {
    link->conn->EnqueueRaw(bytes.data(), bytes.size());
    loop->net->MarkDirty(link->conn);
    ++link->resolve_pending;
    return false;
  }
  Expectation expectation;
  expectation.reply = FrameType::kDecisionAck;
  expectation.gtid = gtid;
  SendOnLink(loop, link, bytes, expectation);
  return true;
}

void ShardRouter::ReplyCrossTxn(RouterLoop* loop, CrossTxn* txn) {
  txn->replied = true;
  const bool commit = txn->status == StatusCode::kOk;
  (commit ? stats_.cross_shard_commits : stats_.cross_shard_aborts)
      .fetch_add(1, std::memory_order_relaxed);
  Connection* session = loop->net->Find(txn->session_id);
  if (session != nullptr) {  // Else the session died mid-2PC.
    server::Response response;
    response.request_id = txn->request_id;
    response.status = txn->status;
    response.commit_lsn = commit ? txn->decision_lsn : 0;
    std::vector<uint8_t> encoded;
    server::EncodeResponse(response, &encoded);
    session->Complete(txn->ticket, std::move(encoded));
    loop->net->ReleaseReplies(session);
  }
  MaybeRetireCrossTxn(loop, txn);
}

void ShardRouter::MaybeRetireCrossTxn(RouterLoop* loop, CrossTxn* txn) {
  if (!txn->replied || !txn->unvoted.empty()) return;
  loop->txns.erase(txn->gtid);
  // Free the slot and wake the loops whose jobs wait for one; this loop
  // starts its own at the top of its next iteration.
  cross_in_flight_.fetch_sub(1);
  for (auto& other : loops_) {
    if (other.get() != loop && other->queued_jobs.load() > 0) {
      other->net->Wakeup();
    }
  }
}

}  // namespace shard
}  // namespace next700
