/// Loopback integration tests for the networked transaction service:
/// real sockets against a real engine, covering pipelined reply ordering,
/// group-commit-gated replies, admission control, and hostile input.

#include "server/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "faultlog/fault_injection.h"
#include "fd_exhaustion.h"
#include "io/io_backend.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/procs.h"

namespace next700 {
namespace server {
namespace {

constexpr uint64_t kRecords = 4096;

/// Every case runs against both async-I/O backends: the io_uring ring and
/// the batched-epoll fallback must be behaviorally identical at the
/// protocol level. Set by the fixture, read by StartService (gtest runs
/// cases serially, so a file-scope knob is race-free).
io::IoBackendKind g_io_backend = io::IoBackendKind::kAuto;

class ServerTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
    g_io_backend = GetParam();
  }
};

struct Service {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

/// Log directories must be unique per test *instance*, not just per CC
/// scheme: `ctest -j` runs the epoll and uring instantiations of the same
/// case as concurrent processes, and a shared directory means one
/// process's RemoveLogDir races the other's open log ("cannot open log"
/// aborts).
std::string CurrentTestSlug() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string slug = std::string(info->name());
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  return slug;
}

Service StartService(CcScheme scheme, LoggingKind logging,
                     ServerOptions srv = {}, int partitions = 2,
                     std::function<void(EngineOptions&)> tweak = {}) {
  EngineOptions eng;
  eng.cc_scheme = scheme;
  eng.max_threads = srv.num_workers;
  eng.num_partitions = static_cast<uint32_t>(partitions);
  eng.logging = logging;
  eng.log_dir = std::string(::testing::TempDir()) + "/next700_server_" +
                CurrentTestSlug() + "_" + CcSchemeName(scheme) + ".logd";
  RemoveLogDir(eng.log_dir);  // Logs accumulate across runs; start clean.
  eng.log_io_backend = g_io_backend;
  srv.io_backend = g_io_backend;
  if (tweak) tweak(eng);
  Service service;
  service.engine = std::make_unique<Engine>(eng);
  KvServiceOptions kv;
  kv.num_records = kRecords;
  RegisterKvService(service.engine.get(), kv);
  service.server = std::make_unique<Server>(service.engine.get(), srv);
  EXPECT_TRUE(service.server->Start().ok());
  return service;
}

Request GetRequest(uint64_t request_id, uint64_t key,
                   bool declare_partition = false, int partitions = 2) {
  Request request;
  request.request_id = request_id;
  request.proc_id = kKvGet;
  WireWriter args(&request.args);
  args.PutU64(key);
  if (declare_partition) {
    request.partitions.push_back(
        KvPartitionOf(key, static_cast<uint32_t>(partitions)));
  }
  return request;
}

Request RmwRequest(uint64_t request_id, uint64_t key) {
  Request request;
  request.request_id = request_id;
  request.proc_id = kKvRmw;
  WireWriter args(&request.args);
  args.PutU16(1);
  args.PutU64(key);
  return request;
}

TEST_P(ServerTest, GetReturnsRowPayload) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 42), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.payload.size(), 64u);  // KvServiceOptions value_size.
}

TEST_P(ServerTest, PipelinedRepliesArriveInRequestOrder) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());

  // A burst of pipelined requests, mixing reads and writes; replies must
  // come back in exactly the order sent.
  constexpr int kBurst = 200;
  Rng rng(1);
  for (int i = 0; i < kBurst; ++i) {
    const uint64_t key = rng.NextUint64(kRecords);
    const Request request = (i % 3 == 0) ? RmwRequest(1000 + i, key)
                                         : GetRequest(1000 + i, key);
    ASSERT_TRUE(client.Send(request).ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    Response response;
    ASSERT_TRUE(client.Recv(&response).ok());
    EXPECT_EQ(response.request_id, static_cast<uint64_t>(1000 + i));
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_P(ServerTest, RepliesAreOrderedEvenWhenRequestIdsRepeat) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  // The server orders replies by arrival, not by client-chosen ids — ids
  // may repeat and must be echoed back in arrival order regardless.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Send(GetRequest(7, static_cast<uint64_t>(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    Response response;
    ASSERT_TRUE(client.Recv(&response).ok());
    EXPECT_EQ(response.request_id, 7u);
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_P(ServerTest, CommittedRepliesAreDurableWhenValueLogged) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue);
  LogManager* log = service.engine->log_manager();
  ASSERT_NE(log, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());

  for (int i = 0; i < 100; ++i) {
    Response response;
    ASSERT_TRUE(
        client.Call(RmwRequest(static_cast<uint64_t>(i), 5), &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    // The group-commit contract: by the time the client holds the reply,
    // the commit record is on disk. durable_lsn is read *after* receipt,
    // so this would race only if the server released the reply early.
    EXPECT_GT(response.commit_lsn, 0u);
    EXPECT_LE(response.commit_lsn, log->durable_lsn());
  }
  EXPECT_GT(service.server->stats().replies_held_durable.load(), 0u);
}

TEST_P(ServerTest, GroupCommitDurabilityIsBackedByRealBarriers) {
  // The counting backend proves durable_lsn is advanced by actual
  // fdatasync barriers, not a sleep-based stand-in.
  FaultInjector injector;  // No faults registered: pure observation.
  Service service = StartService(
      CcScheme::kOcc, LoggingKind::kValue, {}, 2, [&](EngineOptions& eng) {
        eng.log_sync = LogSyncPolicy::kFdatasync;
        eng.log_file_factory = injector.factory();
      });
  LogManager* log = service.engine->log_manager();
  ASSERT_NE(log, nullptr);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  for (int i = 0; i < 50; ++i) {
    Response response;
    ASSERT_TRUE(
        client.Call(RmwRequest(static_cast<uint64_t>(i), 9), &response)
            .ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_GT(response.commit_lsn, 0u);
    EXPECT_LE(response.commit_lsn, log->durable_lsn());
  }
  EXPECT_GT(injector.syncs(), 0u);
  EXPECT_GT(injector.writes(), 0u);
  EXPECT_EQ(log->sync_count(), injector.syncs());
  service.server->Stop();
}

TEST_P(ServerTest, HstoreCompositionUsesPartitionedDispatch) {
  ServerOptions srv;
  srv.num_workers = 2;
  Service service =
      StartService(CcScheme::kHstore, LoggingKind::kNone, srv);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  for (uint64_t i = 0; i < 50; ++i) {
    Response response;
    ASSERT_TRUE(
        client.Call(GetRequest(i, i, /*declare_partition=*/true), &response)
            .ok());
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
}

TEST_P(ServerTest, UnknownProcedureAnswersNotFound) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request;
  request.request_id = 1;
  request.proc_id = 9999;
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kNotFound);
}

TEST_P(ServerTest, OutOfRangePartitionAnswersInvalidArgument) {
  Service service = StartService(CcScheme::kHstore, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request = GetRequest(1, 0);
  request.partitions = {1000};  // Engine has 2 partitions.
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
}

TEST_P(ServerTest, MalformedArgsAnswerInvalidArgumentAndConnectionSurvives) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Request request;
  request.request_id = 1;
  request.proc_id = kKvGet;  // kKvGet expects a u64 key; send 2 bytes.
  request.args = {1, 2};
  Response response;
  ASSERT_TRUE(client.Call(request, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  // The framing was intact, so the connection must still work.
  ASSERT_TRUE(client.Call(GetRequest(2, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_P(ServerTest, CorruptFramingClosesConnectionWithoutCrashing) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    // Oversized frame header: unrecoverable, server must drop us.
    std::vector<uint8_t> wire;
    WireWriter writer(&wire);
    writer.PutU32(kMaxFrameBody + 1);
    writer.PutU8(static_cast<uint8_t>(FrameType::kRequest));
    ASSERT_TRUE(client.SendRaw(wire.data(), wire.size()).ok());
    Response response;
    const Status s = client.Recv(&response, /*deadline_ms=*/5000);
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  }
  // The server survives and accepts new connections.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_GE(service.server->stats().connections_dropped.load(), 1u);
}

TEST_P(ServerTest, GarbageBytesNeverCrashTheServer) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  Rng rng(20260806);
  for (int round = 0; round < 20; ++round) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
    uint8_t garbage[512];
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)client.SendRaw(garbage, sizeof(garbage));
    // Whatever happens — error response or drop — must not kill the server.
  }
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_P(ServerTest, OverloadAnswersResourceExhaustedWithoutCrashing) {
  ServerOptions srv;
  srv.num_workers = 1;
  srv.max_inflight = 4;
  srv.queue_capacity = 2;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone, srv);

  LoadGenOptions load;
  load.port = service.server->port();
  load.connections = 4;
  load.pipeline_depth = 32;
  load.seconds = 0.5;
  load.num_records = kRecords;
  load.get_fraction = 0.0;
  load.put_fraction = 0.0;  // All RMW: keeps the lone worker busy.
  load.rmw_keys = 4;
  const LoadGenStats stats = RunLoadGen(load);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_GT(stats.ok, 0u);
  // With a budget of 4 and 128 requests in flight, backpressure must have
  // engaged; overflowing the depth-2 queue also rejects some cleanly.
  const ServerStats& server_stats = service.server->stats();
  EXPECT_EQ(stats.resource_exhausted,
            server_stats.admission_rejects.load());

  // The server still works afterwards.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 1), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_P(ServerTest, LoadGenAgainstBothCompositions) {
  for (const CcScheme scheme : {CcScheme::kHstore, CcScheme::kOcc}) {
    ServerOptions srv;
    srv.num_workers = 2;
    Service service = StartService(scheme, LoggingKind::kValue, srv);
    LoadGenOptions load;
    load.port = service.server->port();
    load.connections = 2;
    load.pipeline_depth = 8;
    load.seconds = 0.5;
    load.num_records = kRecords;
    load.num_partitions = 2;
    load.declare_partitions = scheme == CcScheme::kHstore;
    load.get_fraction = 0.4;
    load.put_fraction = 0.3;
    load.rmw_keys = 2;
    const LoadGenStats stats = RunLoadGen(load);
    EXPECT_EQ(stats.transport_errors, 0u) << CcSchemeName(scheme);
    EXPECT_EQ(stats.other_errors, 0u) << CcSchemeName(scheme);
    EXPECT_GT(stats.ok, 0u) << CcSchemeName(scheme);
  }
}

TEST_P(ServerTest, StopWithConnectedClientsIsClean) {
  Service service = StartService(CcScheme::kOcc, LoggingKind::kValue);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.server->port()).ok());
  Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, 1), &response).ok());
  service.server->Stop();
  service.server->Stop();  // Idempotent.
}

// Regression: at the descriptor limit every accept fails with EMFILE while
// the pending connection keeps the listener readable, and an event loop
// that ignores the failure polls again at once, spinning a whole core
// until an fd frees. The loop must back off instead, then accept the
// waiting client as soon as descriptors are available again.
TEST_P(ServerTest, AcceptErrorsBackOffInsteadOfSpinning) {
  FdExhaustion exhausted;
  Service service = StartService(CcScheme::kOcc, LoggingKind::kNone);
  const uint16_t port = service.server->port();
  const ServerStats& stats = service.server->stats();
  exhausted.Fill(/*spare=*/1);
  // The client's socket takes the last descriptor, so the server's accept
  // has none left. Its handshake waits until the server accepts it.
  Client client;
  Status connected = Status::Unavailable("not run");
  std::thread connector([&] { connected = client.Connect("127.0.0.1", port); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stats.accept_errors.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(stats.accept_errors.load(), 0u);
  const uint64_t before = service.server->io_counters()->syscalls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t spent =
      service.server->io_counters()->syscalls.load() - before;
  // A backoff of 10..200 ms costs a few syscalls per retry; a spinning
  // loop makes hundreds of thousands in the same 300 ms.
  EXPECT_LT(spent, 1000u) << "event loop spins at the fd limit";

  exhausted.Restore();
  connector.join();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 7), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ServerTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

// Regression for the blocking-read deadline audit: a peer that sends part
// of a frame and then stalls must NOT park RecvFrame forever — the
// deadline applies to frame completion, not just to the first byte. (The
// original implementation armed poll() only while the decoder was empty,
// so a half-delivered header waited indefinitely.)
TEST(ClientDeadlineTest, HalfFrameThenStallHonorsRecvDeadline) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread peer([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    uint8_t scratch[256];
    ASSERT_GT(::read(fd, scratch, sizeof(scratch)), 0);  // Client's Hello.
    std::vector<uint8_t> ack;
    EncodeHelloAck(HelloAck{}, &ack);
    ASSERT_EQ(::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ack.size()));
    // Half a response frame, then silence: the header promises more bytes
    // than will ever arrive.
    Response response;
    response.request_id = 1;
    std::vector<uint8_t> frame;
    EncodeResponse(response, &frame);
    const size_t half = frame.size() / 2;
    ASSERT_EQ(::send(fd, frame.data(), half, MSG_NOSIGNAL),
              static_cast<ssize_t>(half));
    // Hold the socket open (stalled, not closed) until the client gives
    // up; its Close() surfaces here as EOF.
    ::read(fd, scratch, 1);
    ::close(fd);
  });

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  FrameType type;
  std::vector<uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  const Status stalled = client.RecvFrame(&type, &body, 200);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(stalled.IsDeadlineExceeded()) << stalled.ToString();
  EXPECT_GE(elapsed_ms, 150);   // Deadline honored, not an instant error...
  EXPECT_LT(elapsed_ms, 5000);  // ...and not an unbounded stall.
  // The decoder distinguishes "peer idle" from "peer stalled mid-frame".
  EXPECT_GT(client.buffered_bytes(), 0u);
  client.Close();
  peer.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace server
}  // namespace next700
