#ifndef NEXT700_SERVER_CONN_LOOP_H_
#define NEXT700_SERVER_CONN_LOOP_H_

/// \file
/// The network tier's one event loop: an io::IoBackend plus the id-keyed
/// table of framed Connections it drives. The transaction server runs one
/// loop, the shard router a group of N; each owner supplies only what its
/// connections mean, through Handler. The core does the rest, once:
///  - reads: one outstanding SubmitRead per connection, re-armed after
///    every completion unless the connection is read_paused() or
///    draining(); EAGAIN/EINTR re-arm, EOF goes to Handler::OnEof, errors
///    close;
///  - writes: MarkDirty() owes a connection a writev at batch end, which
///    gathers up to Connection::kMaxIov queued frames; a short write
///    resumes from the first unsent byte;
///  - close: CancelFd before close(2), so the next socket on the same fd
///    number never sees the old one's completions (stale completions are
///    dropped by connection id). The Connection object lives until the
///    batch ends, so callers test closed() instead of re-finding it;
///  - the listener: a persistent accept whose sockets are dealt round-robin
///    over the loop's group through each loop's fd inbox and Wakeup().
///    Accept errors (EMFILE and friends) disarm the listener for a
///    doubling backoff instead of spinning on level-triggered readiness.
///
/// Threading: Wakeup() and Stop() are thread-safe; everything else belongs
/// to the thread running Run()/RunOnce() (or, before that thread starts or
/// after it is joined, to whoever owns the loop).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "io/io_backend.h"
#include "server/connection.h"

namespace next700 {
namespace server {

class ConnLoop {
 public:
  static constexpr uint64_t kNoDeadline = UINT64_MAX;

  /// What a connection's events mean to its owner. Every callback runs on
  /// the loop thread and may close connections through the loop.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A socket from the group's listener joined this loop; its first read
    /// is armed when this returns.
    virtual void OnAccepted(Connection* conn) { (void)conn; }
    /// New bytes were fed to conn->decoder().
    virtual void OnFrames(Connection* conn) = 0;
    /// The peer half-closed; `conn` is already draining(). The default
    /// drains what is buffered; the loop then closes `conn` once its
    /// replies are written.
    virtual void OnEof(Connection* conn) { OnFrames(conn); }
    /// The write queue emptied.
    virtual void OnWriteDrained(Connection* conn) { (void)conn; }
    /// `conn` was closed (fd cancelled and closed); its state is still
    /// readable until the batch ends.
    virtual void OnClosed(Connection* conn) { (void)conn; }
    /// A Wakeup() arrived; the fd inbox has been drained.
    virtual void OnWakeup() {}
    /// Runs due timers at the top of every iteration and returns the next
    /// deadline on the NowMs() clock, or kNoDeadline.
    virtual uint64_t OnTimers() { return kNoDeadline; }
  };

  /// The owner's counters the loop bumps (relaxed).
  struct Counters {
    std::atomic<uint64_t>* writev_batches;  // writev submissions...
    std::atomic<uint64_t>* frames_batched;  // ...and the frames they gathered.
    std::atomic<uint64_t>* accept_errors;   // Accepts failed and backed off.
  };

  /// Builds the loop on a backend of `kind` (kUring fails where the kernel
  /// has no usable io_uring). `handler` and the counters must outlive it.
  static Status Create(io::IoBackendKind kind, Handler* handler,
                       Counters counters, std::unique_ptr<ConnLoop>* out);

  /// Closes every connection, the listener and unadopted inbox sockets,
  /// without callbacks. The loop thread must have been joined.
  ~ConnLoop();
  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  /// Binds and listens on host:port (0 = ephemeral; the bound port goes to
  /// *bound_port) and arms the accept. Accepted sockets are dealt
  /// round-robin over `group`, which must include this loop; empty means
  /// this loop alone. Call before the loop thread starts.
  Status Listen(const std::string& host, uint16_t port, int backlog,
                std::vector<ConnLoop*> group, uint16_t* bound_port);

  /// Registers a socket the owner opened (e.g. a nonblocking connect in
  /// progress). No read is armed until ArmRead() or its first completed
  /// write.
  Connection* Adopt(int fd);
  /// Null for an id that is closed or was never here.
  Connection* Find(uint64_t id);
  /// Calls `fn` on every open connection; `fn` may close connections.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    std::vector<Connection*> open;
    open.reserve(conns_.size());
    for (auto& entry : conns_) open.push_back(entry.second.get());
    for (Connection* conn : open) {
      if (!conn->closed()) fn(conn);
    }
  }

  /// Submits the connection's read unless one is in flight or it is
  /// paused or draining. Closes `conn` if the submission fails.
  void ArmRead(Connection* conn);
  /// Owes `conn` a gathered writev at batch end if it has frames queued.
  void MarkDirty(Connection* conn);
  /// Moves in-order replies to the outbound queue, marks the connection
  /// dirty, and closes it if it is draining and fully answered. Returns
  /// the number of replies released.
  size_t ReleaseReplies(Connection* conn);
  /// Closes a draining connection with nothing left to answer, write or
  /// decode; returns true if it closed `conn`.
  bool MaybeCloseDrained(Connection* conn);
  void Close(Connection* conn);

  /// Runs iterations until Stop().
  void Run();
  /// One iteration: timers, the pending flush, one reap (waiting at most
  /// `max_wait_ms`, -1 = until an event or timer), its completions, and the
  /// batch-end flush. Returns the events reaped, negative on a broken
  /// backend.
  int RunOnce(int max_wait_ms);
  /// Thread-safe: makes Run() return after the current event.
  void Stop();
  /// Thread-safe: wakes the loop; surfaces as Handler::OnWakeup.
  void Wakeup() { io_->Wakeup(); }

  const io::IoCounters& io_counters() const { return io_->counters(); }
  const char* backend_name() const { return io_->name(); }

  /// The clock of Handler::OnTimers deadlines (monotonic milliseconds).
  static uint64_t NowMs();

 private:
  ConnLoop(std::unique_ptr<io::IoBackend> io, Handler* handler,
           Counters counters);

  void Dispatch(const io::IoEvent& event);
  void HandleAccept(int32_t result);
  void HandleRead(Connection* conn, int32_t result);
  void HandleWrite(Connection* conn, int32_t result);
  void StartWrite(Connection* conn);
  /// Adopts a socket from the group's listener.
  void AdoptAccepted(int fd);
  /// Writes every dirty connection, then frees the batch's closed ones.
  void EndBatch();

  std::unique_ptr<io::IoBackend> io_;
  Handler* handler_;
  Counters counters_;
  std::atomic<bool> stop_{false};

  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  /// Connections owed a writev; `flushing_` is the batch being written.
  std::vector<Connection*> dirty_;
  std::vector<Connection*> flushing_;
  /// Closed this batch; freed by EndBatch.
  std::vector<std::unique_ptr<Connection>> graveyard_;

  int listen_fd_ = -1;
  std::vector<ConnLoop*> group_;
  uint32_t next_in_group_ = 0;
  bool accept_armed_ = false;
  uint64_t accept_backoff_ms_ = 0;
  uint64_t accept_rearm_ms_ = 0;

  /// Accepted sockets dealt to this loop by another loop of the group.
  Mutex inbox_mu_;
  std::vector<int> inbox_ GUARDED_BY(inbox_mu_);
};

}  // namespace server
}  // namespace next700

#endif  // NEXT700_SERVER_CONN_LOOP_H_
