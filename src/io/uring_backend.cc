/// \file
/// Raw io_uring backend — no liburing. Ring setup, mmap layout, and
/// submission/completion bookkeeping are done directly against the kernel
/// ABI (syscall numbers + <linux/io_uring.h> structs), so the repo carries
/// no new dependency. Feature posture:
///  - requires IORING_FEAT_EXT_ARG (5.11+) so Reap timeouts are native;
///    anything older reports unsupported and kAuto falls back to epoll;
///  - multishot accept (5.19+) is probed at runtime: the first -EINVAL
///    completion flips the listener to oneshot-with-resubmit.
///
/// Ring head/tail words are shared with the kernel; they are accessed with
/// __atomic acquire/release builtins (TSan-visible, fence-free on x86).

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/macros.h"
#include "io/backend_internal.h"
#include "io/io_backend.h"

// Constants newer than some build environments' headers; values are kernel
// ABI and therefore stable.
#ifndef IORING_ACCEPT_MULTISHOT
#define IORING_ACCEPT_MULTISHOT (1U << 0)
#endif
#ifndef IORING_CQE_F_MORE
#define IORING_CQE_F_MORE (1U << 1)
#endif
#ifndef IORING_ASYNC_CANCEL_ALL
#define IORING_ASYNC_CANCEL_ALL (1U << 0)
#endif
#ifndef IORING_ASYNC_CANCEL_FD
#define IORING_ASYNC_CANCEL_FD (1U << 1)
#endif
#ifndef IORING_FEAT_EXT_ARG
#define IORING_FEAT_EXT_ARG (1U << 8)
#endif
#ifndef IORING_ENTER_EXT_ARG
#define IORING_ENTER_EXT_ARG (1U << 3)
#endif

namespace next700 {
namespace io {

namespace {

int SysIoUringSetup(unsigned entries, struct io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags, const void* arg, size_t arg_sz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, arg_sz));
}

// Local mirrors of post-5.11 uapi structs so older headers still compile;
// layouts are kernel ABI.
struct KernelTimespec {
  int64_t tv_sec;
  long long tv_nsec;
};
struct GetEventsArg {
  uint64_t sigmask;
  uint32_t sigmask_sz;
  uint32_t pad;
  uint64_t ts;
};

/// Cookies reserved for backend-internal operations. Documented contract:
/// callers keep their user_data below this range.
constexpr uint64_t kWakeCookie = ~uint64_t{0};
constexpr uint64_t kCancelCookie = ~uint64_t{0} - 1;

class UringBackend final : public IoBackend {
 public:
  ~UringBackend() override {
    if (sq_ring_ptr_ != nullptr) ::munmap(sq_ring_ptr_, sq_ring_bytes_);
    if (cq_ring_ptr_ != nullptr && cq_ring_ptr_ != sq_ring_ptr_) {
      ::munmap(cq_ring_ptr_, cq_ring_bytes_);
    }
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init(unsigned queue_depth) {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    ring_fd_ = SysIoUringSetup(queue_depth < 2 ? 2 : queue_depth, &params);
    if (ring_fd_ < 0) {
      return Status::Unavailable("io_uring_setup denied: " +
                                 std::string(std::strerror(errno)));
    }
    if ((params.features & IORING_FEAT_EXT_ARG) == 0) {
      return Status::Unavailable(
          "io_uring lacks EXT_ARG (kernel < 5.11); using the epoll path");
    }
    sq_entries_ = params.sq_entries;
    cq_entries_ = params.cq_entries;

    sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(__u32);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
    const bool single_mmap =
        (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap && cq_ring_bytes_ > sq_ring_bytes_) {
      sq_ring_bytes_ = cq_ring_bytes_;
    }
    sq_ring_ptr_ =
        ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ptr_ == MAP_FAILED) {
      sq_ring_ptr_ = nullptr;
      return Status::IOError("io_uring sq ring mmap failed");
    }
    if (single_mmap) {
      cq_ring_ptr_ = sq_ring_ptr_;
    } else {
      cq_ring_ptr_ =
          ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ptr_ == MAP_FAILED) {
        cq_ring_ptr_ = nullptr;
        return Status::IOError("io_uring cq ring mmap failed");
      }
    }
    sqes_bytes_ = params.sq_entries * sizeof(struct io_uring_sqe);
    sqes_ = static_cast<struct io_uring_sqe*>(
        ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      return Status::IOError("io_uring sqe array mmap failed");
    }

    auto* sq_base = static_cast<uint8_t*>(sq_ring_ptr_);
    sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
    sq_mask_ =
        *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
    auto* cq_base = static_cast<uint8_t*>(cq_ring_ptr_);
    cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
    cq_mask_ =
        *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq_base +
                                                   params.cq_off.cqes);
    sq_tail_local_ = __atomic_load_n(sq_tail_, __ATOMIC_RELAXED);

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return Status::IOError("eventfd failed");
    SubmitWakeRead();
    return Status::OK();
  }

  IoBackendKind kind() const override { return IoBackendKind::kUring; }

  Status SubmitAccept(int listen_fd, uint64_t user_data) override {
    listen_fd_ = listen_fd;
    accept_ud_ = user_data;
    counters_.submissions.fetch_add(1, std::memory_order_relaxed);
    return ArmAccept();
  }

  Status SubmitRead(int fd, uint8_t* buf, size_t len,
                    uint64_t user_data) override {
    struct io_uring_sqe* sqe = nullptr;
    NEXT700_RETURN_IF_ERROR(GetSqe(&sqe));
    sqe->opcode = IORING_OP_READ;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(buf);
    sqe->len = static_cast<uint32_t>(len);
    sqe->off = static_cast<uint64_t>(-1);
    sqe->user_data = user_data;
    pending_[user_data] = PendingOp{IoEvent::Op::kRead, fd};
    counters_.submissions.fetch_add(1, std::memory_order_relaxed);
    PushSqe();
    return Status::OK();
  }

  Status SubmitWritev(int fd, const struct iovec* iov, int iovcnt,
                      uint64_t user_data, bool link) override {
    struct io_uring_sqe* sqe = nullptr;
    NEXT700_RETURN_IF_ERROR(GetSqe(&sqe));
    sqe->opcode = IORING_OP_WRITEV;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(iov);
    sqe->len = static_cast<uint32_t>(iovcnt);
    sqe->off = static_cast<uint64_t>(-1);
    if (link) sqe->flags |= IOSQE_IO_LINK;
    sqe->user_data = user_data;
    pending_[user_data] = PendingOp{IoEvent::Op::kWrite, fd};
    counters_.submissions.fetch_add(1, std::memory_order_relaxed);
    PushSqe();
    return Status::OK();
  }

  Status SubmitWrite(int fd, const uint8_t* buf, size_t len,
                     uint64_t user_data, bool link) override {
    struct io_uring_sqe* sqe = nullptr;
    NEXT700_RETURN_IF_ERROR(GetSqe(&sqe));
    sqe->opcode = IORING_OP_WRITE;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(buf);
    sqe->len = static_cast<uint32_t>(len);
    sqe->off = static_cast<uint64_t>(-1);
    if (link) sqe->flags |= IOSQE_IO_LINK;
    sqe->user_data = user_data;
    pending_[user_data] = PendingOp{IoEvent::Op::kWrite, fd};
    counters_.submissions.fetch_add(1, std::memory_order_relaxed);
    PushSqe();
    return Status::OK();
  }

  Status SubmitFsync(int fd, bool datasync, uint64_t user_data) override {
    struct io_uring_sqe* sqe = nullptr;
    NEXT700_RETURN_IF_ERROR(GetSqe(&sqe));
    sqe->opcode = IORING_OP_FSYNC;
    sqe->fd = fd;
    sqe->fsync_flags = datasync ? IORING_FSYNC_DATASYNC : 0;
    sqe->user_data = user_data;
    pending_[user_data] = PendingOp{IoEvent::Op::kFsync, fd};
    counters_.submissions.fetch_add(1, std::memory_order_relaxed);
    PushSqe();
    return Status::OK();
  }

  void CancelFd(int fd) override {
    bool had_pending = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.fd == fd) {
        had_pending = true;
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (fd == listen_fd_) {
      listen_fd_ = -1;
      had_pending = accept_armed_ || had_pending;
      accept_armed_ = false;
    }
    if (!had_pending) return;
    struct io_uring_sqe* sqe = nullptr;
    if (!GetSqe(&sqe).ok()) return;  // Ring broken; close() wins anyway.
    sqe->opcode = IORING_OP_ASYNC_CANCEL;
    sqe->fd = fd;
    sqe->cancel_flags = IORING_ASYNC_CANCEL_FD | IORING_ASYNC_CANCEL_ALL;
    sqe->user_data = kCancelCookie;
    PushSqe();
    // Flush before the caller closes (and the kernel could reuse) the fd:
    // the cancel must target *this* fd's ops, not a successor's.
    (void)FlushSq();
  }

  int Reap(IoEvent* events, int max_events, int timeout_ms) override {
    const Status flushed = FlushSq();
    if (!flushed.ok()) return -EIO;
    PumpCq();
    if (ready_.empty() && timeout_ms != 0) {
      counters_.waits.fetch_add(1, std::memory_order_relaxed);
      counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
      int rc;
      if (timeout_ms < 0) {
        rc = SysIoUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS,
                             nullptr, 0);
      } else {
        KernelTimespec ts;
        ts.tv_sec = timeout_ms / 1000;
        ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1000000;
        GetEventsArg arg;
        std::memset(&arg, 0, sizeof(arg));
        arg.ts = reinterpret_cast<uint64_t>(&ts);
        rc = SysIoUringEnter(ring_fd_, 0, 1,
                             IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                             &arg, sizeof(arg));
      }
      if (rc < 0 && errno != ETIME && errno != EINTR && errno != EBUSY &&
          errno != EAGAIN) {
        return -errno;
      }
      PumpCq();
    }
    int out = 0;
    while (out < max_events && !ready_.empty()) {
      events[out++] = ready_.front();
      ready_.pop_front();
    }
    return out;
  }

  void Wakeup() override {
    const uint64_t one = 1;
    counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

 private:
  struct PendingOp {
    IoEvent::Op op;
    int fd;
  };

  /// Hands out the next free SQE, flushing (with bounded retry) when the
  /// ring is full — the short-submission path: a full SQ or a backed-up CQ
  /// is drained and retried instead of failing the submit.
  Status GetSqe(struct io_uring_sqe** out) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
      if (sq_tail_local_ - head < sq_entries_) {
        struct io_uring_sqe* sqe = &sqes_[sq_tail_local_ & sq_mask_];
        std::memset(sqe, 0, sizeof(*sqe));
        *out = sqe;
        return Status::OK();
      }
      NEXT700_RETURN_IF_ERROR(FlushSq());
    }
    return Status::IOError("io_uring submission queue stayed full");
  }

  void PushSqe() {
    sq_array_[sq_tail_local_ & sq_mask_] = sq_tail_local_ & sq_mask_;
    ++sq_tail_local_;
    ++unsubmitted_;
  }

  Status FlushSq() {
    if (unsubmitted_ == 0) return Status::OK();
    __atomic_store_n(sq_tail_, sq_tail_local_, __ATOMIC_RELEASE);
    int busy_retries = 0;
    while (unsubmitted_ > 0) {
      counters_.syscalls.fetch_add(1, std::memory_order_relaxed);
      const int rc =
          SysIoUringEnter(ring_fd_, unsubmitted_, 0, 0, nullptr, 0);
      if (rc >= 0) {
        unsubmitted_ -= static_cast<unsigned>(rc);
        if (rc == 0) {
          if (++busy_retries > 64) {
            return Status::IOError("io_uring_enter made no progress");
          }
          PumpCq();  // A full CQ blocks submission; make room.
        }
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EBUSY || errno == EAGAIN) {
        if (++busy_retries > 64) {
          return Status::IOError("io_uring_enter kept returning EBUSY");
        }
        PumpCq();
        continue;
      }
      return Status::IOError(std::string("io_uring_enter failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  /// Moves every available CQE into ready_, handling internal cookies and
  /// multishot-accept re-arming.
  void PumpCq() {
    unsigned head = __atomic_load_n(cq_head_, __ATOMIC_RELAXED);
    for (;;) {
      const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      if (head == tail) break;
      bool rearm_accept = false;
      bool rearm_wake = false;
      while (head != tail) {
        const struct io_uring_cqe* cqe = &cqes_[head & cq_mask_];
        HandleCqe(*cqe, &rearm_accept, &rearm_wake);
        ++head;
      }
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      // Re-arm only after the CQ slots are released: the resubmission may
      // complete inline into the slots we just freed.
      if (rearm_wake) SubmitWakeRead();
      if (rearm_accept && listen_fd_ >= 0) (void)ArmAccept();
    }
  }

  void HandleCqe(const struct io_uring_cqe& cqe, bool* rearm_accept,
                 bool* rearm_wake) {
    if (cqe.user_data == kCancelCookie) return;
    if (cqe.user_data == kWakeCookie) {
      *rearm_wake = true;
      ready_.push_back(IoEvent{0, IoEvent::Op::kWakeup, 0});
      return;
    }
    if (accept_armed_ && cqe.user_data == accept_ud_) {
      if (cqe.res == -EINVAL && multishot_ok_ && !accept_completed_once_) {
        // Kernel too old for IORING_ACCEPT_MULTISHOT: fall back to oneshot
        // accepts resubmitted per completion. No event surfaces.
        multishot_ok_ = false;
        accept_armed_ = false;
        *rearm_accept = true;
        return;
      }
      accept_completed_once_ = true;
      if (!multishot_ok_ || (cqe.flags & IORING_CQE_F_MORE) == 0) {
        accept_armed_ = false;
        *rearm_accept = true;
      }
      if (cqe.res >= 0) {
        counters_.accept_ops.fetch_add(1, std::memory_order_relaxed);
      }
      ready_.push_back(
          IoEvent{cqe.user_data, IoEvent::Op::kAccept, cqe.res});
      return;
    }
    auto it = pending_.find(cqe.user_data);
    if (it == pending_.end()) return;  // Cancelled op's residue.
    const IoEvent::Op op = it->second.op;
    pending_.erase(it);
    switch (op) {
      case IoEvent::Op::kRead:
        counters_.read_ops.fetch_add(1, std::memory_order_relaxed);
        break;
      case IoEvent::Op::kWrite:
        counters_.write_ops.fetch_add(1, std::memory_order_relaxed);
        break;
      case IoEvent::Op::kFsync:
        counters_.fsync_ops.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
    ready_.push_back(IoEvent{cqe.user_data, op, cqe.res});
  }

  Status ArmAccept() {
    struct io_uring_sqe* sqe = nullptr;
    NEXT700_RETURN_IF_ERROR(GetSqe(&sqe));
    sqe->opcode = IORING_OP_ACCEPT;
    sqe->fd = listen_fd_;
    sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    if (multishot_ok_) sqe->ioprio = IORING_ACCEPT_MULTISHOT;
    sqe->user_data = accept_ud_;
    accept_armed_ = true;
    PushSqe();
    return Status::OK();
  }

  void SubmitWakeRead() {
    struct io_uring_sqe* sqe = nullptr;
    if (!GetSqe(&sqe).ok()) return;
    sqe->opcode = IORING_OP_READ;
    sqe->fd = wake_fd_;
    sqe->addr = reinterpret_cast<uint64_t>(&wake_buf_);
    sqe->len = sizeof(wake_buf_);
    sqe->off = static_cast<uint64_t>(-1);
    sqe->user_data = kWakeCookie;
    PushSqe();
  }

  int ring_fd_ = -1;
  int wake_fd_ = -1;
  uint64_t wake_buf_ = 0;

  void* sq_ring_ptr_ = nullptr;
  void* cq_ring_ptr_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  size_t cq_ring_bytes_ = 0;
  struct io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;

  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned sq_tail_local_ = 0;
  unsigned unsubmitted_ = 0;

  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;
  unsigned cq_mask_ = 0;
  unsigned cq_entries_ = 0;

  int listen_fd_ = -1;
  uint64_t accept_ud_ = 0;
  bool accept_armed_ = false;
  bool accept_completed_once_ = false;
  bool multishot_ok_ = true;

  std::unordered_map<uint64_t, PendingOp> pending_;
  std::deque<IoEvent> ready_;
};

}  // namespace

bool UringSupported() {
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = SysIoUringSetup(2, &params);
  if (fd < 0) return false;
  const bool ok = (params.features & IORING_FEAT_EXT_ARG) != 0;
  ::close(fd);
  return ok;
}

Status CreateUringBackend(std::unique_ptr<IoBackend>* out,
                          unsigned queue_depth) {
  auto backend = std::make_unique<UringBackend>();
  NEXT700_RETURN_IF_ERROR(backend->Init(queue_depth));
  *out = std::move(backend);
  return Status::OK();
}

}  // namespace io
}  // namespace next700
