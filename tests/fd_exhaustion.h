#ifndef NEXT700_TESTS_FD_EXHAUSTION_H_
#define NEXT700_TESTS_FD_EXHAUSTION_H_

/// Test helper: runs this process out of file descriptors, the way a
/// server meets EMFILE in production, without touching any other process.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

namespace next700 {

/// Lowers the process's own soft RLIMIT_NOFILE to at most 1024. Construct
/// it before the server under test arms its accept: io_uring reads the
/// limit when an accept is submitted, not when it completes. Fill() then
/// opens /dev/null until the limit is reached and frees `spare`
/// descriptors; Restore() (or the destructor) closes the fillers and puts
/// the limit back.
class FdExhaustion {
 public:
  FdExhaustion() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min<rlim_t>(saved_.rlim_cur, 1024);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
  }
  ~FdExhaustion() { Restore(); }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  void Fill(int spare) {
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) break;
      fillers_.push_back(fd);
    }
    for (int i = 0; i < spare && !fillers_.empty(); ++i) {
      ::close(fillers_.back());
      fillers_.pop_back();
    }
  }

  void Restore() {
    for (const int fd : fillers_) ::close(fd);
    fillers_.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }

 private:
  rlimit saved_{};
  std::vector<int> fillers_;
};

}  // namespace next700

#endif  // NEXT700_TESTS_FD_EXHAUSTION_H_
