/// Unit tests for the network tier's event-loop core, on both io backends,
/// driven one RunOnce at a time from the test thread over socketpairs:
/// gathered writes of more frames than one writev carries, against a peer
/// that lets the socket buffer fill, and teardown with a read and a write
/// in flight followed by a new connection on the same fd number.

#include "server/conn_loop.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "io/io_backend.h"
#include "server/protocol.h"

namespace next700 {
namespace server {
namespace {

/// Records what the loop reports: every decoded frame's request id by
/// connection, and each EOF and close.
struct Recorder : ConnLoop::Handler {
  struct Seen {
    uint64_t conn_id;
    uint64_t request_id;
  };
  std::vector<Seen> frames;
  std::vector<uint64_t> eofs;
  std::vector<uint64_t> closed;

  void OnFrames(Connection* conn) override {
    Frame frame;
    bool have = false;
    while (conn->decoder()->Next(&frame, &have).ok() && have) {
      Request request;
      ASSERT_TRUE(DecodeRequest(frame.body, frame.body_len, &request).ok());
      frames.push_back(Seen{conn->id(), request.request_id});
    }
  }
  void OnEof(Connection* conn) override { eofs.push_back(conn->id()); }
  void OnClosed(Connection* conn) override { closed.push_back(conn->id()); }
};

/// A Response frame whose payload is `bytes` copies of a byte derived from
/// `id`, so a lost, duplicated or misordered byte range shows.
std::vector<uint8_t> NumberedFrame(uint64_t id, size_t bytes) {
  Response response;
  response.request_id = id;
  response.payload.assign(bytes, static_cast<uint8_t>(id * 7 + 1));
  std::vector<uint8_t> out;
  EncodeResponse(response, &out);
  return out;
}

/// Moves whatever `fd` has buffered into `decoder` without blocking.
void ReadAvailable(int fd, FrameDecoder* decoder) {
  uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) return;
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

class ConnLoopTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
    const Status created = ConnLoop::Create(
        GetParam(), &recorder_,
        {&writev_batches_, &frames_batched_, &accept_errors_}, &loop_);
    ASSERT_TRUE(created.ok()) << created.ToString();
  }

  /// A nonblocking socketpair whose send side holds little, so a few
  /// frames fill it. [0] goes to the loop, [1] is the test's peer.
  static void SmallPair(int fds[2]) {
    ASSERT_EQ(::socketpair(AF_UNIX,
                           SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds),
              0);
    const int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  }

  Recorder recorder_;
  std::atomic<uint64_t> writev_batches_{0};
  std::atomic<uint64_t> frames_batched_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::unique_ptr<ConnLoop> loop_;
};

TEST_P(ConnLoopTest, GatheredWriteBeyondMaxIovResumesAfterShortWrites) {
  int fds[2];
  SmallPair(fds);
  Connection* conn = loop_->Adopt(fds[0]);
  constexpr uint64_t kFrames = 3 * Connection::kMaxIov + 7;
  constexpr size_t kPayload = 1000;
  for (uint64_t i = 0; i < kFrames; ++i) {
    const std::vector<uint8_t> frame = NumberedFrame(i, kPayload);
    conn->EnqueueRaw(frame.data(), frame.size());
  }
  loop_->MarkDirty(conn);

  // The peer reads nothing yet: the first gather fills the socket buffer
  // and the rest stays queued.
  for (int i = 0; i < 5; ++i) ASSERT_GE(loop_->RunOnce(/*max_wait_ms=*/5), 0);
  EXPECT_TRUE(conn->has_pending_writes());
  EXPECT_LT(frames_batched_.load(), kFrames);

  FrameDecoder decoder;
  uint64_t next = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (next < kFrames && std::chrono::steady_clock::now() < deadline) {
    ReadAvailable(fds[1], &decoder);
    Frame frame;
    bool have = false;
    while (decoder.Next(&frame, &have).ok() && have) {
      Response response;
      ASSERT_TRUE(DecodeResponse(frame.body, frame.body_len, &response).ok());
      ASSERT_EQ(response.request_id, next) << "frame lost or duplicated";
      ASSERT_EQ(response.payload,
                std::vector<uint8_t>(kPayload,
                                     static_cast<uint8_t>(next * 7 + 1)));
      ++next;
    }
    ASSERT_GE(loop_->RunOnce(/*max_wait_ms=*/5), 0);
  }
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // No stray bytes after the last.
  EXPECT_FALSE(conn->has_pending_writes());
  EXPECT_FALSE(conn->closed());
  // More frames than one writev carries: at least four gathers, and a
  // frame cut by a short write is submitted again from its unsent byte.
  EXPECT_GE(writev_batches_.load(), 4u);
  EXPECT_GT(frames_batched_.load(), kFrames);
  ::close(fds[1]);
}

TEST_P(ConnLoopTest, FdReuseAfterCloseSeesNoStaleCompletions) {
  int a[2];
  SmallPair(a);
  Connection* old_conn = loop_->Adopt(a[0]);
  loop_->ArmRead(old_conn);
  for (uint64_t i = 0; i < 64; ++i) {
    const std::vector<uint8_t> frame = NumberedFrame(i, 4000);
    old_conn->EnqueueRaw(frame.data(), frame.size());
  }
  loop_->MarkDirty(old_conn);
  for (int i = 0; i < 3; ++i) ASSERT_GE(loop_->RunOnce(/*max_wait_ms=*/5), 0);
  ASSERT_TRUE(old_conn->read_inflight());
  ASSERT_TRUE(old_conn->write_inflight());

  const int old_fd = old_conn->fd();
  const uint64_t old_id = old_conn->id();
  loop_->Close(old_conn);
  ASSERT_EQ(recorder_.closed, std::vector<uint64_t>{old_id});

  // The next socket takes the lowest free descriptor: the old number.
  int b[2];
  SmallPair(b);
  ASSERT_EQ(b[0], old_fd);
  Connection* conn = loop_->Adopt(b[0]);
  loop_->ArmRead(conn);
  // Give the old peer something that would complete the old read and
  // room that would complete the old write.
  Request request;
  request.request_id = 5;
  std::vector<uint8_t> bytes;
  EncodeRequest(request, &bytes);
  (void)::send(a[1], bytes.data(), bytes.size(), MSG_NOSIGNAL);
  FrameDecoder drained;
  ReadAvailable(a[1], &drained);

  request.request_id = 777;
  bytes.clear();
  EncodeRequest(request, &bytes);
  ASSERT_EQ(::send(b[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  const std::vector<uint8_t> reply = NumberedFrame(778, 100);
  conn->EnqueueRaw(reply.data(), reply.size());
  loop_->MarkDirty(conn);

  FrameDecoder decoder;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((recorder_.frames.empty() || decoder.buffered_bytes() < reply.size())
         && std::chrono::steady_clock::now() < deadline) {
    ASSERT_GE(loop_->RunOnce(/*max_wait_ms=*/5), 0);
    ReadAvailable(b[1], &decoder);
  }
  // The new connection got its own frame, once, and nothing else; its
  // peer got exactly its reply, none of the old connection's bytes.
  ASSERT_EQ(recorder_.frames.size(), 1u);
  EXPECT_EQ(recorder_.frames[0].conn_id, conn->id());
  EXPECT_EQ(recorder_.frames[0].request_id, 777u);
  Frame frame;
  bool have = false;
  ASSERT_TRUE(decoder.Next(&frame, &have).ok() && have);
  Response response;
  ASSERT_TRUE(DecodeResponse(frame.body, frame.body_len, &response).ok());
  EXPECT_EQ(response.request_id, 778u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_TRUE(recorder_.eofs.empty());
  EXPECT_EQ(recorder_.closed, std::vector<uint64_t>{old_id});
  EXPECT_FALSE(conn->closed());
  EXPECT_TRUE(conn->read_inflight());
  ::close(a[1]);
  ::close(b[1]);
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ConnLoopTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

}  // namespace
}  // namespace server
}  // namespace next700
