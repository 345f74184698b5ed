/// In-process shard-topology integration tests: two real shard servers
/// (each owning keys where key % 2 == shard_id) behind a real ShardRouter
/// over loopback sockets, parameterized over both io backends (uring
/// skipped where the kernel/sandbox denies rings). Covers the single-shard
/// fast path (verbatim forwarding, counters), cross-shard 2PC atomicity,
/// the in-flight 2PC budget, a late vote against a scripted participant,
/// the kUnavailable error path when a shard is down mid-batch, router
/// restart replaying its durable decision log, and the event-loop
/// lifecycle: session churn must not grow live-session state (the old
/// thread-per-session tier leaked a session + thread handle per dead
/// client) and Stop() must return promptly even with a down shard (the old
/// reconnect path slept a blind 200 ms ignoring stop_).

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fd_exhaustion.h"
#include "io/io_backend.h"
#include "server/client.h"
#include "server/procs.h"
#include "server/protocol.h"
#include "server/server.h"

namespace next700 {
namespace shard {
namespace {

constexpr uint32_t kNumShards = 2;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kRecords = 1024;

struct Topology {
  std::unique_ptr<Engine> engines[kNumShards];
  std::unique_ptr<server::Server> servers[kNumShards];
  std::unique_ptr<ShardRouter> router;

  ~Topology() {
    if (router != nullptr) router->Stop();
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
  }
};

class ShardRouterTest : public ::testing::TestWithParam<io::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == io::IoBackendKind::kUring && !io::UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel/sandbox";
    }
  }
};

/// Log directories must be unique per test *instance*, not just per case:
/// `ctest -j` runs the epoll and uring instantiations of the same case as
/// concurrent processes, and a shared directory means one process's
/// RemoveLogDir races the other's open log. The test-info name carries the
/// param suffix ("Case/epoll").
std::string TempBase() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string slug = std::string(info->name());
  for (char& c : slug) {
    if (c == '/') c = '_';
  }
  return std::string(::testing::TempDir()) + "/next700_shardtest_" + slug;
}

void StartShard(Topology* topo, uint32_t shard_id, const std::string& dir) {
  EngineOptions eng;
  eng.cc_scheme = CcScheme::kOcc;
  eng.max_threads = 2;
  eng.num_partitions = kPartitions;
  eng.logging = LoggingKind::kValue;
  RemoveLogDir(dir);
  eng.log_dir = dir;
  topo->engines[shard_id] = std::make_unique<Engine>(eng);
  server::KvServiceOptions kv;
  kv.num_records = kRecords;
  kv.num_shards = kNumShards;
  kv.shard_id = shard_id;
  server::RegisterKvService(topo->engines[shard_id].get(), kv);
  server::ServerOptions srv;
  srv.num_workers = 2;
  topo->servers[shard_id] = std::make_unique<server::Server>(
      topo->engines[shard_id].get(), srv);
  ASSERT_TRUE(topo->servers[shard_id]->Start().ok());
}

void StartTopology(Topology* topo, const std::string& base_dir,
                   io::IoBackendKind io_backend) {
  ShardRouterOptions ropts;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    StartShard(topo, i, base_dir + "_s" + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
    ropts.shards.push_back(
        "127.0.0.1:" + std::to_string(topo->servers[i]->port()));
  }
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base_dir + "_rt";
  ropts.vote_timeout_ms = 2000;
  ropts.io_backend = io_backend;
  topo->router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo->router->Start().ok());
  ASSERT_TRUE(topo->router->WaitShardsConnected(15000));
}

server::Request GetRequest(uint64_t request_id, uint64_t key) {
  server::Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvGet;
  server::WireWriter args(&request.args);
  args.PutU64(key);
  return request;
}

server::Request RmwRequest(uint64_t request_id,
                           const std::vector<uint64_t>& keys) {
  server::Request request;
  request.request_id = request_id;
  request.proc_id = server::kKvRmw;
  server::WireWriter args(&request.args);
  args.PutU16(static_cast<uint16_t>(keys.size()));
  for (const uint64_t key : keys) args.PutU64(key);
  return request;
}

/// The kv row's counter lives in the first 8 payload bytes, seeded = key.
uint64_t CounterOf(const server::Response& response) {
  EXPECT_GE(response.payload.size(), sizeof(uint64_t));
  uint64_t counter = 0;
  std::memcpy(&counter, response.payload.data(), sizeof(counter));
  return counter;
}

TEST_P(ShardRouterTest, SingleShardFastPathForwardsBothShards) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Keys on both shards route to their owner and read the seeded counter.
  for (const uint64_t key : {0ull, 1ull, 42ull, 43ull}) {
    server::Response response;
    ASSERT_TRUE(client.Call(GetRequest(key, key), &response).ok());
    EXPECT_EQ(response.status, StatusCode::kOk) << "key " << key;
    EXPECT_EQ(CounterOf(response), key);
  }
  // A single-shard rmw (both keys on shard 0) commits without 2PC.
  server::Response response;
  ASSERT_TRUE(client.Call(RmwRequest(100, {2, 4}), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
  EXPECT_GE(topo.router->stats().forwarded.load(), 5u);
}

TEST_P(ShardRouterTest, CrossShardRmwCommitsAtomically) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Keys 6 and 7 live on different shards: this is a distributed txn.
  server::Response response;
  ASSERT_TRUE(client.Call(RmwRequest(1, {6, 7}), &response).ok());
  ASSERT_EQ(response.status, StatusCode::kOk);
  // The reply's commit_lsn is the coordinator's durable decision LSN.
  EXPECT_GT(response.commit_lsn, 0u);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 1u);
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), 0u);

  // Both halves of the increment are visible through the fast path.
  ASSERT_TRUE(client.Call(GetRequest(2, 6), &response).ok());
  EXPECT_EQ(CounterOf(response), 6u + 1);
  ASSERT_TRUE(client.Call(GetRequest(3, 7), &response).ok());
  EXPECT_EQ(CounterOf(response), 7u + 1);
}

TEST_P(ShardRouterTest, PipelinedMixedTrafficKeepsRequestOrder) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  // Pipeline a burst that alternates shards and includes a cross-shard
  // txn in the middle; the reorder buffer must deliver replies in
  // request order even though they complete on different shards (and the
  // cross-shard one only after its votes, decision and acks).
  constexpr uint64_t kBurst = 20;
  for (uint64_t i = 0; i < kBurst; ++i) {
    if (i == 10) {
      ASSERT_TRUE(client.Send(RmwRequest(i, {8, 9})).ok());
    } else {
      ASSERT_TRUE(client.Send(GetRequest(i, i % 8)).ok());
    }
  }
  for (uint64_t i = 0; i < kBurst; ++i) {
    server::Response response;
    ASSERT_TRUE(client.Recv(&response, 10000).ok()) << "reply " << i;
    EXPECT_EQ(response.request_id, i);  // FIFO across shards.
    EXPECT_EQ(response.status, StatusCode::kOk);
  }
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 1u);
}

// Every prepared branch parks a shard worker until its decision arrives.
// With 2-worker shards and the default in-flight budget, 8 clients that
// each pipeline 50 cross-shard rmws must all commit with no vote timeout;
// without the budget, parked branches starve the prepares they wait for
// until the vote timeout breaks the cycle.
TEST_P(ShardRouterTest, InFlightBudgetKeepsPipelinedCrossShardLive) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  constexpr uint64_t kClients = 8;
  constexpr uint64_t kPerClient = 50;
  std::atomic<uint64_t> committed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (uint64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect("127.0.0.1", topo.router->port()).ok()) return;
      for (uint64_t i = 0; i < kPerClient; ++i) {
        // Keys {2j, 2j+1} live on different shards; no two rmws share one.
        const uint64_t j = c * kPerClient + i;
        if (!client.Send(RmwRequest(i, {2 * j, 2 * j + 1})).ok()) return;
      }
      for (uint64_t i = 0; i < kPerClient; ++i) {
        server::Response response;
        if (!client.Recv(&response, 30000).ok()) return;
        if (response.request_id == i && response.status == StatusCode::kOk) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  const ShardRouterStats& stats = topo.router->stats();
  EXPECT_EQ(committed.load(), kClients * kPerClient);
  EXPECT_EQ(stats.cross_shard_commits.load(), kClients * kPerClient);
  EXPECT_EQ(stats.vote_timeouts.load(), 0u);
  EXPECT_LT(elapsed.count(), 2000) << "vote_timeout_ms is 2000";
}

/// A scripted participant: a loopback listener that answers each router
/// link's handshake (HelloAck, then an empty in-doubt list) and hands every
/// later frame to the test, which answers by hand.
class FakeShard {
 public:
  FakeShard() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    NEXT700_CHECK(listen_fd_ >= 0 &&
                  ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0 &&
                  ::listen(listen_fd_, 8) == 0 &&
                  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0);
    port_ = ntohs(addr.sin_port);
  }
  ~FakeShard() {
    for (const Link& link : links_) ::close(link.fd);
    ::close(listen_fd_);
  }
  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  uint16_t port() const { return port_; }

  /// Accepts `n` router links and answers each handshake.
  bool AcceptLinks(size_t n, int timeout_ms) {
    while (links_.size() < n) {
      if (!WaitReadable(listen_fd_, timeout_ms)) return false;
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) return false;
      links_.emplace_back();
      links_.back().fd = fd;
      ++accepts_;
      const size_t i = links_.size() - 1;
      server::FrameType type;
      std::vector<uint8_t> body;
      if (!Recv(i, &type, &body, timeout_ms) ||
          type != server::FrameType::kHello ||
          !Recv(i, &type, &body, timeout_ms) ||
          type != server::FrameType::kInDoubtQuery) {
        return false;
      }
      std::vector<uint8_t> out;
      server::EncodeHelloAck(server::HelloAck{}, &out);
      server::EncodeInDoubtList(server::InDoubtList{}, &out);
      if (!Send(i, out)) return false;
    }
    return true;
  }

  /// Next frame on link `i`.
  bool Recv(size_t i, server::FrameType* type, std::vector<uint8_t>* body,
            int timeout_ms) {
    for (;;) {
      server::Frame frame;
      bool have = false;
      if (!links_[i].decoder.Next(&frame, &have).ok()) return false;
      if (have) {
        *type = frame.type;
        body->assign(frame.body, frame.body + frame.body_len);
        return true;
      }
      if (!WaitReadable(links_[i].fd, timeout_ms)) return false;
      uint8_t buf[4096];
      const ssize_t n = ::recv(links_[i].fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      links_[i].decoder.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Next frame on any link; *i is the link it came on.
  bool RecvAny(size_t* i, server::FrameType* type,
               std::vector<uint8_t>* body, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (*i = 0; *i < links_.size(); ++*i) {
        if (links_[*i].decoder.buffered_bytes() > 0 ||
            WaitReadable(links_[*i].fd, 1)) {
          return Recv(*i, type, body, timeout_ms);
        }
      }
    }
    return false;
  }

  bool Send(size_t i, const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(links_[i].fd, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Connections accepted so far, plus any still queued on the listener.
  int accepts() {
    while (WaitReadable(listen_fd_, 0)) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;
      ::close(fd);
      ++accepts_;
    }
    return accepts_;
  }

 private:
  struct Link {
    int fd = -1;
    server::FrameDecoder decoder;
  };

  static bool WaitReadable(int fd, int timeout_ms) {
    pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    return ::poll(&p, 1, timeout_ms) == 1;
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int accepts_ = 0;
  std::deque<Link> links_;
};

/// Router options for one loop over a real shard 0 and a fake shard 1.
ShardRouterOptions FakeTopologyOptions(const Topology& topo,
                                       const FakeShard& fake,
                                       const std::string& base,
                                       io::IoBackendKind io_backend) {
  ShardRouterOptions ropts;
  ropts.shards = {"127.0.0.1:" + std::to_string(topo.servers[0]->port()),
                  "127.0.0.1:" + std::to_string(fake.port())};
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base + "_rt";
  RemoveLogDir(ropts.log_dir);
  ropts.io_backend = io_backend;
  ropts.num_loops = 1;
  return ropts;
}

// A vote that misses its deadline aborts the transaction (presumed abort,
// kDeadlineExceeded to the client) without tearing a link down: the
// participant gets abort decisions on its 2PC link, and forwards keep
// being answered.
TEST_P(ShardRouterTest, LateVoteIsAbortedOnTheSameLink) {
  const std::string base = TempBase();
  Topology topo;
  StartShard(&topo, 0, base + "_s0");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  FakeShard fake;
  ShardRouterOptions ropts =
      FakeTopologyOptions(topo, fake, base, GetParam());
  ropts.vote_timeout_ms = 300;
  topo.router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo.router->Start().ok());
  ASSERT_TRUE(fake.AcceptLinks(2, 10000));  // Forward and 2PC links.
  ASSERT_TRUE(topo.router->WaitShardsConnected(15000));

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  // Key 0 is on the real shard, keys 1 and 3 on the fake one.
  ASSERT_TRUE(client.Send(RmwRequest(1, {0, 1})).ok());
  ASSERT_TRUE(client.Send(GetRequest(2, 3)).ok());

  size_t twopc = 0;
  size_t fwd = 0;
  server::Prepare prepare;
  server::Request forward;
  for (int k = 0; k < 2; ++k) {
    size_t i = 0;
    server::FrameType type;
    std::vector<uint8_t> body;
    ASSERT_TRUE(fake.RecvAny(&i, &type, &body, 10000));
    if (type == server::FrameType::kPrepare) {
      twopc = i;
      ASSERT_TRUE(
          server::DecodePrepare(body.data(), body.size(), &prepare).ok());
    } else {
      ASSERT_EQ(type, server::FrameType::kRequest);
      fwd = i;
      ASSERT_TRUE(
          server::DecodeRequest(body.data(), body.size(), &forward).ok());
    }
  }
  ASSERT_NE(twopc, fwd);
  EXPECT_EQ(forward.request_id, 2u);

  // The vote deadline passes: presumed abort.
  server::Response response;
  ASSERT_TRUE(client.Recv(&response, 10000).ok());
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(topo.router->stats().vote_timeouts.load(), 1u);

  // The fake shard is told to abort on the prepare's link: at the deadline
  // (its branch may have prepared with the vote stuck behind other
  // replies), and again when its late yes arrives.
  server::FrameType type;
  std::vector<uint8_t> body;
  server::Decision decision;
  ASSERT_TRUE(fake.Recv(twopc, &type, &body, 10000));
  ASSERT_EQ(type, server::FrameType::kAbortDecision);
  ASSERT_TRUE(
      server::DecodeDecision(body.data(), body.size(), &decision).ok());
  EXPECT_EQ(decision.gtid, prepare.gtid);
  server::Vote vote;
  vote.gtid = prepare.gtid;
  vote.prepare_lsn = 1;
  std::vector<uint8_t> out;
  server::EncodeVote(vote, &out);
  ASSERT_TRUE(fake.Send(twopc, out));
  ASSERT_TRUE(fake.Recv(twopc, &type, &body, 10000));
  ASSERT_EQ(type, server::FrameType::kAbortDecision);
  ASSERT_TRUE(
      server::DecodeDecision(body.data(), body.size(), &decision).ok());
  EXPECT_EQ(decision.gtid, prepare.gtid);
  server::DecisionAck ack;
  ack.gtid = prepare.gtid;
  out.clear();
  server::EncodeDecisionAck(ack, &out);
  server::EncodeDecisionAck(ack, &out);
  ASSERT_TRUE(fake.Send(twopc, out));

  // The forward is answered on its own link.
  server::Response get;
  get.request_id = 2;
  get.payload.assign(sizeof(uint64_t), 0);
  out.clear();
  server::EncodeResponse(get, &out);
  ASSERT_TRUE(fake.Send(fwd, out));
  ASSERT_TRUE(client.Recv(&response, 10000).ok());
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.status, StatusCode::kOk);

  // The real participant's branch was aborted too, and no link to the
  // fake shard reconnected.
  ASSERT_TRUE(client.Call(GetRequest(3, 0), &response).ok());
  EXPECT_EQ(CounterOf(response), 0u);
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), 1u);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
  EXPECT_EQ(fake.accepts(), 2);
}

// A no vote aborts at once, and the abort also goes to a participant whose
// vote is still out: its branch may have prepared with the vote queued
// behind replies that wait on the branch's own locks.
TEST_P(ShardRouterTest, NoVoteAbortsUnvotedParticipantAtOnce) {
  const std::string base = TempBase();
  Topology topo;
  StartShard(&topo, 0, base + "_s0");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  FakeShard fake;
  ShardRouterOptions ropts =
      FakeTopologyOptions(topo, fake, base, GetParam());
  ropts.vote_timeout_ms = 10000;
  topo.router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo.router->Start().ok());
  ASSERT_TRUE(fake.AcceptLinks(2, 10000));
  ASSERT_TRUE(topo.router->WaitShardsConnected(15000));

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", topo.router->port()).ok());
  // Key 2 * kRecords is on the real shard but past its table: a no vote.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Send(RmwRequest(1, {2 * kRecords, 1})).ok());
  server::Response response;
  ASSERT_TRUE(client.Recv(&response, 10000).ok());
  EXPECT_NE(response.status, StatusCode::kOk);
  EXPECT_NE(response.status, StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            5000);

  size_t twopc = 0;
  server::FrameType type;
  std::vector<uint8_t> body;
  ASSERT_TRUE(fake.RecvAny(&twopc, &type, &body, 10000));
  ASSERT_EQ(type, server::FrameType::kPrepare);
  server::Prepare prepare;
  ASSERT_TRUE(
      server::DecodePrepare(body.data(), body.size(), &prepare).ok());
  ASSERT_TRUE(fake.Recv(twopc, &type, &body, 10000));
  ASSERT_EQ(type, server::FrameType::kAbortDecision);
  server::Decision decision;
  ASSERT_TRUE(
      server::DecodeDecision(body.data(), body.size(), &decision).ok());
  EXPECT_EQ(decision.gtid, prepare.gtid);
  EXPECT_EQ(topo.router->stats().cross_shard_aborts.load(), 1u);
  EXPECT_EQ(topo.router->stats().vote_timeouts.load(), 0u);
}

TEST_P(ShardRouterTest, DownShardAnswersUnavailableAndRecovers) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  topo.servers[1]->Stop();

  // Requests for the dead shard answer kUnavailable (connection survives);
  // the live shard keeps serving. The router notices the dead shard
  // asynchronously, so poll until the error surfaces.
  server::Response response;
  bool saw_unavailable = false;
  StatusCode last = StatusCode::kOk;
  for (int attempt = 0; attempt < 100 && !saw_unavailable; ++attempt) {
    const Status got = client.Call(GetRequest(1, 1), &response, 10000);
    ASSERT_TRUE(got.ok()) << got.ToString();
    last = response.status;
    if (response.status == StatusCode::kUnavailable) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable) << "last status " << static_cast<int>(last);
  ASSERT_TRUE(client.Call(GetRequest(2, 0), &response, 10000).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);

  // A cross-shard txn with a dead participant must abort, not hang.
  ASSERT_TRUE(client.Call(RmwRequest(3, {0, 1}), &response, 30000).ok());
  EXPECT_NE(response.status, StatusCode::kOk);
  EXPECT_EQ(topo.router->stats().cross_shard_commits.load(), 0u);
}

TEST_P(ShardRouterTest, RouterRestartReplaysDecisionLog) {
  const std::string base = TempBase();
  Topology topo;
  StartTopology(&topo, base, GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  {
    server::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", topo.router->port()).ok());
    server::Response response;
    ASSERT_TRUE(client.Call(RmwRequest(1, {10, 11}), &response).ok());
    ASSERT_EQ(response.status, StatusCode::kOk);
  }
  topo.router->Stop();

  // A new router over the same decision log reconnects, finds no in-doubt
  // backlog (the decision was delivered), and keeps serving; the committed
  // increments are still visible.
  ShardRouterOptions ropts;
  for (uint32_t i = 0; i < kNumShards; ++i) {
    ropts.shards.push_back(
        "127.0.0.1:" + std::to_string(topo.servers[i]->port()));
  }
  ropts.num_partitions = kPartitions;
  ropts.log_dir = base + "_rt";
  ropts.io_backend = GetParam();
  topo.router = std::make_unique<ShardRouter>(ropts);
  ASSERT_TRUE(topo.router->Start().ok());
  ASSERT_TRUE(topo.router->WaitShardsConnected(15000));

  server::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", topo.router->port()).ok());
  server::Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 10), &response).ok());
  EXPECT_EQ(CounterOf(response), 10u + 1);
  ASSERT_TRUE(client.Call(GetRequest(2, 11), &response).ok());
  EXPECT_EQ(CounterOf(response), 11u + 1);
  ASSERT_TRUE(client.Call(RmwRequest(3, {10, 11}), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

// Lifecycle regression: the old AcceptLoop pushed a ClientSession and a
// thread handle per connection and never reaped either, so a
// connect/disconnect storm grew both without bound. The event-loop tier
// must free every closed session: after the churn, closed catches up with
// accepted (disconnect handling is asynchronous, so poll briefly).
TEST_P(ShardRouterTest, SessionChurnReapsClosedSessions) {
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  constexpr int kCycles = 40;
  for (int i = 0; i < kCycles; ++i) {
    server::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", topo.router->port()).ok());
    server::Response response;
    ASSERT_TRUE(client.Call(GetRequest(i, i % 8), &response).ok());
    EXPECT_EQ(response.status, StatusCode::kOk);
    client.Close();
  }

  const ShardRouterStats& stats = topo.router->stats();
  EXPECT_GE(stats.sessions_accepted.load(), static_cast<uint64_t>(kCycles));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats.sessions_closed.load() < stats.sessions_accepted.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.sessions_closed.load(), stats.sessions_accepted.load())
      << "live sessions leaked after disconnects";
}

// Lifecycle regression: the old ShardLoop slept a blind 200 ms between
// reconnect attempts ignoring stop_, and WaitShardsConnected poll-slept.
// With every shard down (nothing listening on the target ports) Stop()
// must still return promptly — the loops park in Reap with a backoff
// deadline and a Wakeup unparks them.
TEST_P(ShardRouterTest, StopIsPromptWithDownShards) {
  ShardRouterOptions ropts;
  // Port 1 is privileged and never has a listener in these sandboxes:
  // connects fail fast with ECONNREFUSED and the links sit in backoff.
  ropts.shards = {"127.0.0.1:1", "127.0.0.1:1"};
  ropts.num_partitions = kPartitions;
  ropts.log_dir = TempBase() + "_rt";
  RemoveLogDir(ropts.log_dir);
  ropts.io_backend = GetParam();
  ShardRouter router(ropts);
  ASSERT_TRUE(router.Start().ok());
  EXPECT_FALSE(router.WaitShardsConnected(150));

  // Let a few reconnect cycles run so Stop lands mid-backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  router.Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 100) << "Stop() took " << elapsed.count()
                                  << " ms with down shards";
}

// At the descriptor limit the router's listener must back off rather than
// spin on EMFILE, and accept the waiting client once descriptors free up.
TEST_P(ShardRouterTest, AcceptErrorsBackOffInsteadOfSpinning) {
  FdExhaustion exhausted;
  Topology topo;
  StartTopology(&topo, TempBase(), GetParam());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const uint16_t port = topo.router->port();
  const ShardRouterStats& stats = topo.router->stats();
  exhausted.Fill(/*spare=*/1);
  server::Client client;
  Status connected = Status::Unavailable("not run");
  std::thread connector([&] { connected = client.Connect("127.0.0.1", port); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stats.accept_errors.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(stats.accept_errors.load(), 0u);
  const uint64_t before = topo.router->io_syscalls();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(topo.router->io_syscalls() - before, 1000u)
      << "router loop spins at the fd limit";

  exhausted.Restore();
  connector.join();
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  server::Response response;
  ASSERT_TRUE(client.Call(GetRequest(1, 7), &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
}

INSTANTIATE_TEST_SUITE_P(
    IoBackends, ShardRouterTest,
    ::testing::Values(io::IoBackendKind::kEpoll, io::IoBackendKind::kUring),
    [](const ::testing::TestParamInfo<io::IoBackendKind>& info) {
      return std::string(io::IoBackendKindName(info.param));
    });

}  // namespace
}  // namespace shard
}  // namespace next700
