#include "server/conn_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace next700 {
namespace server {

namespace {

/// Completions reaped per batch; everything they make writable leaves in
/// one writev per connection at batch end.
constexpr int kMaxEvents = 256;
/// Socket read buffer per connection (one outstanding read each). 16 KiB
/// holds a few hundred pipelined kv frames; 64 KiB was no faster on
/// kv-mixed or shard-2pc.
constexpr size_t kReadBufBytes = 16 * 1024;

/// Accept-error backoff: the listener stays disarmed this long, doubling.
constexpr uint64_t kAcceptBackoffMinMs = 10;
constexpr uint64_t kAcceptBackoffMaxMs = 200;

/// user_data: connection ids start at 1, so (id << 1 | is_write) is always
/// >= 2 and never collides with the accept's cookie.
constexpr uint64_t kAcceptUd = 1;
uint64_t ReadUd(uint64_t id) { return id << 1; }
uint64_t WriteUd(uint64_t id) { return (id << 1) | 1; }

}  // namespace

Status ConnLoop::Create(io::IoBackendKind kind, Handler* handler,
                        Counters counters, std::unique_ptr<ConnLoop>* out) {
  std::unique_ptr<io::IoBackend> io;
  NEXT700_RETURN_IF_ERROR(io::CreateIoBackend(kind, &io));
  out->reset(new ConnLoop(std::move(io), handler, counters));
  return Status::OK();
}

ConnLoop::ConnLoop(std::unique_ptr<io::IoBackend> io, Handler* handler,
                   Counters counters)
    : io_(std::move(io)), handler_(handler), counters_(counters) {}

ConnLoop::~ConnLoop() {
  for (auto& entry : conns_) ::close(entry.second->fd());
  if (listen_fd_ >= 0) ::close(listen_fd_);
  MutexLock lock(&inbox_mu_);
  for (const int fd : inbox_) ::close(fd);
}

uint64_t ConnLoop::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status ConnLoop::Listen(const std::string& host, uint16_t port, int backlog,
                        std::vector<ConnLoop*> group, uint16_t* bound_port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, backlog) < 0) {
    return Status::IOError("bind/listen failed: " +
                           std::string(strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  *bound_port = ntohs(addr.sin_port);
  group_ = group.empty() ? std::vector<ConnLoop*>{this} : std::move(group);
  NEXT700_RETURN_IF_ERROR(io_->SubmitAccept(listen_fd_, kAcceptUd));
  accept_armed_ = true;
  return Status::OK();
}

Connection* ConnLoop::Adopt(int fd) {
  const uint64_t id = next_id_++;
  auto conn = std::make_unique<Connection>(fd, id);
  Connection* raw = conn.get();
  conns_.emplace(id, std::move(conn));
  return raw;
}

Connection* ConnLoop::Find(uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void ConnLoop::ArmRead(Connection* conn) {
  if (conn->read_inflight() || conn->read_paused() || conn->draining()) {
    return;
  }
  uint8_t* buf = conn->EnsureReadBuffer(kReadBufBytes);
  if (!io_->SubmitRead(conn->fd(), buf, kReadBufBytes, ReadUd(conn->id()))
           .ok()) {
    Close(conn);
    return;
  }
  conn->set_read_inflight(true);
}

void ConnLoop::MarkDirty(Connection* conn) {
  // An in-flight write resumes with whatever is queued when it completes.
  if (conn->flush_pending() || conn->write_inflight() ||
      !conn->has_pending_writes()) {
    return;
  }
  conn->set_flush_pending(true);
  dirty_.push_back(conn);
}

size_t ConnLoop::ReleaseReplies(Connection* conn) {
  const size_t released = conn->FlushOrdered();
  MarkDirty(conn);
  MaybeCloseDrained(conn);
  return released;
}

bool ConnLoop::MaybeCloseDrained(Connection* conn) {
  if (!conn->draining() || conn->closed() || conn->pending_responses() != 0 ||
      conn->has_pending_writes() || conn->write_inflight() ||
      conn->decoder()->buffered_bytes() != 0) {
    return false;
  }
  Close(conn);
  return true;
}

void ConnLoop::Close(Connection* conn) {
  if (conn->closed()) return;
  // Cancel before close: the fd number may be reused by the very next
  // socket, and the read buffer dies with the connection.
  io_->CancelFd(conn->fd());
  ::close(conn->fd());
  conn->set_closed();
  handler_->OnClosed(conn);
  auto it = conns_.find(conn->id());
  graveyard_.push_back(std::move(it->second));
  conns_.erase(it);
}

void ConnLoop::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (RunOnce(-1) < 0) break;  // Broken backend; the owner cleans up.
  }
}

void ConnLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  io_->Wakeup();
}

int ConnLoop::RunOnce(int max_wait_ms) {
  uint64_t deadline = handler_->OnTimers();
  if (listen_fd_ >= 0 && !accept_armed_) {
    if (accept_rearm_ms_ <= NowMs()) {
      accept_armed_ = io_->SubmitAccept(listen_fd_, kAcceptUd).ok();
      if (!accept_armed_) accept_rearm_ms_ = NowMs() + kAcceptBackoffMaxMs;
    }
    if (!accept_armed_) deadline = std::min(deadline, accept_rearm_ms_);
  }
  EndBatch();
  int timeout = max_wait_ms;
  if (deadline != kNoDeadline) {
    const uint64_t now = NowMs();
    const int until = deadline <= now ? 0
                                      : static_cast<int>(std::min<uint64_t>(
                                            deadline - now, 60 * 1000));
    timeout = timeout < 0 ? until : std::min(timeout, until);
  }
  io::IoEvent events[kMaxEvents];
  const int n = io_->Reap(events, kMaxEvents, timeout);
  for (int i = 0; i < n && !stop_.load(std::memory_order_acquire); ++i) {
    Dispatch(events[i]);
  }
  EndBatch();
  return n;
}

void ConnLoop::Dispatch(const io::IoEvent& event) {
  switch (event.op) {
    case io::IoEvent::Op::kWakeup: {
      std::vector<int> fds;
      {
        MutexLock lock(&inbox_mu_);
        fds.swap(inbox_);
      }
      for (const int fd : fds) AdoptAccepted(fd);
      handler_->OnWakeup();
      break;
    }
    case io::IoEvent::Op::kAccept:
      HandleAccept(event.result);
      break;
    case io::IoEvent::Op::kRead:
    case io::IoEvent::Op::kWrite: {
      Connection* conn = Find(event.user_data >> 1);
      if (conn == nullptr) break;  // Closed with the op in flight.
      if ((event.user_data & 1) != 0) {
        HandleWrite(conn, event.result);
      } else {
        HandleRead(conn, event.result);
      }
      break;
    }
    case io::IoEvent::Op::kFsync:
      break;  // Sockets only; the loop submits no fsyncs.
  }
}

void ConnLoop::HandleAccept(int32_t result) {
  if (result == -ECONNABORTED || result == -EAGAIN || result == -EINTR) {
    return;  // The peer gave up, or a spurious wake; the accept stays armed.
  }
  if (result < 0) {
    // EMFILE/ENFILE/ENOMEM...: a level-triggered listener would report
    // readiness forever, so disarm and re-arm after a growing backoff.
    counters_.accept_errors->fetch_add(1, std::memory_order_relaxed);
    io_->CancelFd(listen_fd_);
    accept_armed_ = false;
    accept_backoff_ms_ = accept_backoff_ms_ == 0
                             ? kAcceptBackoffMinMs
                             : std::min(accept_backoff_ms_ * 2,
                                        kAcceptBackoffMaxMs);
    accept_rearm_ms_ = NowMs() + accept_backoff_ms_;
    return;
  }
  accept_backoff_ms_ = 0;
  ConnLoop* target = group_[next_in_group_++ % group_.size()];
  if (target == this) {
    AdoptAccepted(result);
    return;
  }
  {
    MutexLock lock(&target->inbox_mu_);
    target->inbox_.push_back(result);
  }
  target->Wakeup();
}

void ConnLoop::AdoptAccepted(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Connection* conn = Adopt(fd);
  handler_->OnAccepted(conn);
  ArmRead(conn);
}

void ConnLoop::HandleRead(Connection* conn, int32_t result) {
  conn->set_read_inflight(false);
  if (result == -EAGAIN || result == -EINTR) {
    ArmRead(conn);  // Spurious readiness or a signal.
  } else if (result == 0) {
    // Peer half-closed: finish buffered work, flush replies, then close.
    conn->set_draining();
    handler_->OnEof(conn);
    MaybeCloseDrained(conn);
  } else if (result < 0) {
    Close(conn);
  } else {
    conn->decoder()->Feed(conn->read_buf(), static_cast<size_t>(result));
    handler_->OnFrames(conn);
    if (!conn->closed()) ArmRead(conn);
  }
}

void ConnLoop::HandleWrite(Connection* conn, int32_t result) {
  conn->set_write_inflight(false);
  if (result < 0 && result != -EAGAIN && result != -EINTR) {
    Close(conn);
    return;
  }
  if (result > 0) conn->ConsumeWritten(static_cast<size_t>(result));
  if (conn->has_pending_writes()) {
    // A short writev (socket buffer full mid-gather, or more than kMaxIov
    // frames queued), or a retry: resume from the first unsent byte.
    StartWrite(conn);
    return;
  }
  handler_->OnWriteDrained(conn);
  if (conn->closed()) return;
  ArmRead(conn);  // A connecting socket reads once its first write lands.
  MaybeCloseDrained(conn);
}

void ConnLoop::StartWrite(Connection* conn) {
  const int iovcnt = conn->BuildIovec(conn->iov());
  if (iovcnt == 0) return;
  if (!io_->SubmitWritev(conn->fd(), conn->iov(), iovcnt, WriteUd(conn->id()))
           .ok()) {
    Close(conn);
    return;
  }
  conn->set_write_inflight(true);
  counters_.writev_batches->fetch_add(1, std::memory_order_relaxed);
  counters_.frames_batched->fetch_add(static_cast<uint64_t>(iovcnt),
                                      std::memory_order_relaxed);
}

void ConnLoop::EndBatch() {
  // Closing a connection mid-flush can dirty others (an owner failing its
  // requests), so flush until nothing is owed.
  while (!dirty_.empty()) {
    flushing_.swap(dirty_);
    for (Connection* conn : flushing_) {
      conn->set_flush_pending(false);
      if (!conn->closed() && !conn->write_inflight()) StartWrite(conn);
    }
    flushing_.clear();
  }
  graveyard_.clear();
}

}  // namespace server
}  // namespace next700
