#ifndef NEXT700_IO_IO_BACKEND_H_
#define NEXT700_IO_IO_BACKEND_H_

/// \file
/// The async I/O spine: a submission/completion-queue abstraction shared by
/// the network tier's event loop (server::ConnLoop, which runs every socket
/// of the server and the shard router) and the log-device flusher. Callers
/// *submit* operations (read, writev, accept, fsync) tagged with a
/// user_data cookie and later *reap* completions — the syscall-per-operation
/// readiness model is gone from the callers, which lets one backend amortize
/// many operations per kernel entry.
///
/// Two implementations:
///  - `uring`: a liburing-free raw io_uring ring (syscall wrappers + ring
///    mmap). Multishot accept is feature-probed at runtime, with a oneshot
///    fallback where the kernel lacks it. Write + fsync pairs can be linked
///    into a single submission (the log path's group-commit barrier).
///  - `epoll`: a portable fallback that keeps epoll underneath but
///    preserves the completion-queue surface: submitted writevs are
///    attempted immediately (one gather syscall for every frame queued on
///    a connection) and parked on EPOLLOUT only when the socket is full;
///    accepts and reads are drained per readiness event.
///
/// Threading contract: Submit*/Reap/CancelFd belong to one owner thread
/// (an event loop, or the log flusher — each owner builds its own backend).
/// Wakeup() is the only thread-safe entry point; it surfaces as an
/// Op::kWakeup completion in the owner's Reap. A group of loops (the shard
/// router's) hands accepted descriptors to another loop through that
/// loop's inbox and Wakeup() — fds and submissions never migrate between
/// live backends.
///
/// Buffer lifetime: buffers and iovec arrays handed to Submit* must stay
/// valid (and un-moved) until the matching completion is reaped or the fd
/// is cancelled — both backends may hold raw pointers to them.

#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace next700 {
namespace io {

enum class IoBackendKind : uint8_t {
  kAuto = 0,   // uring if the kernel allows it, else epoll.
  kUring = 1,  // io_uring, failing loudly where unsupported.
  kEpoll = 2,  // portable batched-epoll fallback.
};

const char* IoBackendKindName(IoBackendKind kind);

/// Parses "auto" / "uring" / "epoll"; returns false on anything else.
bool ParseIoBackendKind(const std::string& name, IoBackendKind* out);

/// One reaped completion.
struct IoEvent {
  enum class Op : uint8_t { kRead, kWrite, kAccept, kFsync, kWakeup };
  uint64_t user_data = 0;
  Op op = Op::kRead;
  /// Bytes transferred (read/write), the new fd (accept), 0 (fsync), or a
  /// negated errno on failure — io_uring CQE conventions in both backends.
  int32_t result = 0;
};

/// Monotonic relaxed counters, readable from any thread. `syscalls` counts
/// actual kernel entries (read/write/accept/fsync/epoll_wait/io_uring_enter),
/// so ops/syscalls is the batching ratio the async spine exists to improve.
struct IoCounters {
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> write_ops{0};    // write + writev completions.
  std::atomic<uint64_t> accept_ops{0};
  std::atomic<uint64_t> fsync_ops{0};
  std::atomic<uint64_t> submissions{0};  // Operations submitted.
  std::atomic<uint64_t> syscalls{0};     // Kernel entries issued.
  std::atomic<uint64_t> waits{0};        // Blocking reap waits (wakeups).
};

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual IoBackendKind kind() const = 0;
  const char* name() const { return IoBackendKindName(kind()); }

  /// Arms a persistent (multishot) accept on `listen_fd`: every accepted
  /// socket arrives as an Op::kAccept completion carrying the new fd,
  /// already nonblocking and close-on-exec. Re-arming is internal.
  virtual Status SubmitAccept(int listen_fd, uint64_t user_data) = 0;

  /// One outstanding read of up to `len` bytes into `buf`. Completes with
  /// bytes read (0 = peer EOF) or a negated errno.
  virtual Status SubmitRead(int fd, uint8_t* buf, size_t len,
                            uint64_t user_data) = 0;

  /// Gather-write. Completes with bytes written, possibly short — the
  /// caller resumes by consuming and resubmitting the remainder. `link`
  /// orders the *next* submitted op on this backend after this one where
  /// the backend supports linking (uring); the epoll backend executes
  /// submissions in order anyway.
  virtual Status SubmitWritev(int fd, const struct iovec* iov, int iovcnt,
                              uint64_t user_data, bool link = false) = 0;

  virtual Status SubmitWrite(int fd, const uint8_t* buf, size_t len,
                             uint64_t user_data, bool link = false) = 0;

  /// Durability barrier (fdatasync when `datasync`). The epoll backend
  /// performs it synchronously at submit and queues the completion.
  virtual Status SubmitFsync(int fd, bool datasync, uint64_t user_data) = 0;

  /// Forgets/cancels every pending operation on `fd`. Call before
  /// close(2): a ring holds a reference to the file, and the epoll backend
  /// holds per-fd state, so closing without cancelling leaks both.
  /// Completions already reaped into the caller's batch may still mention
  /// the fd; callers drop those by cookie lookup.
  virtual void CancelFd(int fd) = 0;

  /// Reaps up to `max_events` completions. timeout_ms: -1 blocks until at
  /// least one completion (or a Wakeup), 0 polls, >0 bounds the wait.
  /// Returns the number of events written, 0 on timeout, or a negated
  /// errno on a broken backend.
  virtual int Reap(IoEvent* events, int max_events, int timeout_ms) = 0;

  /// Thread-safe: wakes a blocked Reap, surfacing one Op::kWakeup event.
  virtual void Wakeup() = 0;

  const IoCounters& counters() const { return counters_; }

 protected:
  IoCounters counters_;
};

/// True if this kernel/sandbox lets us set up an io_uring ring.
bool UringSupported();

/// Builds the backend for `kind`. kAuto probes io_uring and falls back to
/// epoll (the fallback is recorded in *out's kind()); kUring fails with
/// kUnavailable where the kernel or sandbox denies io_uring_setup, so CI
/// can skip loudly instead of silently testing the wrong backend.
/// `queue_depth` sizes the ring / pending tables (tests shrink it to
/// exercise the short-submission retry path).
Status CreateIoBackend(IoBackendKind kind, std::unique_ptr<IoBackend>* out,
                       unsigned queue_depth = 256);

}  // namespace io
}  // namespace next700

#endif  // NEXT700_IO_IO_BACKEND_H_
