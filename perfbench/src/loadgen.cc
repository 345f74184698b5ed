#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "server/client.h"

namespace perfbench {
namespace {

using next700::Rng;
using next700::StatusCode;
using next700::server::Client;
using next700::server::DecodeResponse;
using next700::server::EncodeRequest;
using next700::server::Frame;
using next700::server::FrameDecoder;
using next700::server::FrameType;
using next700::server::Response;

/// A reply that never came, or came back non-OK, still occupies a latency
/// sample: it missed every latency limit.
constexpr uint64_t kFailedLatencyNs = 60ull * 1000 * 1000 * 1000;
/// How long the drain after a phase waits for outstanding replies.
constexpr uint64_t kDrainTimeoutNs = 10ull * 1000 * 1000 * 1000;
/// A request the engine aborts (a SILO validation conflict, which leaves
/// no effect) is sent again, up to this many attempts in all, the way
/// engine-2pl retries with RunWithRetry; only then does it count as failed.
constexpr uint32_t kMaxAttempts = 16;

struct Pending {
  uint64_t request_id = 0;
  uint64_t start_ns = 0;  // Due time (open loop) or send time (closed).
  Rng rng;                // Generator state that produced the request.
  uint32_t attempts = 1;
  int kind = 0;
  uint32_t increments = 0;
  uint64_t get_key = UINT64_MAX;
  bool traced = false;
};

struct Conn {
  int fd = -1;
  bool broken = false;
  FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::deque<Pending> pending;
  uint64_t next_request_id = 1;
};

class Generator {
 public:
  Generator(const LoadSpec& spec, const RequestSource& source,
            SpanBuffer* spans)
      : spec_(spec), source_(source), spans_(spans), rng_(spec.seed),
        arrivals_(spec.seed ^ 0x5bd1e995u) {
    result_.latencies_ns.resize(spec.kind_spans.size());
  }

  LoadResult Run();

 private:
  bool Connect();
  void Issue(Conn* c, uint64_t start_ns, bool traced);
  /// Sends an aborted request again, regenerated from its saved state; it
  /// keeps its start time, so the latency covers every attempt.
  void Retry(Conn* c, const Pending& p);
  /// Encodes `gen_` on `c` and queues its Pending entry.
  void Send(Conn* c, const Pending& p);
  void Flush(Conn* c);
  void OnReadable(Conn* c);
  void Complete(const Pending& p, const Response* response, uint64_t now);
  void Fail(Conn* c);
  /// One poll round; `timeout_ns` < 0 waits up to 50 ms.
  void PollOnce(int64_t timeout_ns);
  size_t Outstanding() const;
  double NextGapNs();
  /// Closed loop: records the throughput window ending at `now`.
  void EndWindow(uint64_t now);

  const LoadSpec& spec_;
  const RequestSource& source_;
  SpanBuffer* spans_;
  Rng rng_;
  Rng arrivals_;
  std::vector<Conn> conns_;
  LoadResult result_;
  bool closed_loop_issuing_ = true;
  bool window_traced_ = false;
  uint64_t window_start_ = 0;
  uint64_t window_ok_ = 0;
  GenRequest gen_;
  std::vector<pollfd> pfds_;
  std::vector<Conn*> pfd_owners_;
  std::vector<uint8_t> read_buf_ = std::vector<uint8_t>(64 * 1024);
};

bool Generator::Connect() {
  conns_.resize(static_cast<size_t>(spec_.connections));
  for (Conn& c : conns_) {
    Client client;
    if (!client.Connect("127.0.0.1", spec_.port).ok()) return false;
    c.fd = client.ReleaseFd();
    const int fl = ::fcntl(c.fd, F_GETFL, 0);
    if (fl < 0 || ::fcntl(c.fd, F_SETFL, fl | O_NONBLOCK) < 0) return false;
  }
  return true;
}

double Generator::NextGapNs() {
  // Exponential inter-arrival; 1 - u keeps log() away from 0.
  return -std::log(1.0 - arrivals_.NextDouble()) * 1e9 / spec_.rate;
}

void Generator::Send(Conn* c, const Pending& p) {
  gen_.request.request_id = c->next_request_id++;
  EncodeRequest(gen_.request, &c->out);
  c->pending.push_back(p);
  Pending& sent = c->pending.back();
  sent.request_id = gen_.request.request_id;
  sent.kind = gen_.kind;
  sent.increments = gen_.increments;
  sent.get_key = gen_.get_key;
  // An attempt may apply even when its reply is lost, so the audit's upper
  // bound counts every attempt.
  result_.increments_attempted += gen_.increments;
}

void Generator::Issue(Conn* c, uint64_t start_ns, bool traced) {
  Pending p;
  p.start_ns = start_ns;
  p.rng = rng_;
  p.traced = traced;
  source_(&rng_, &gen_);
  Send(c, p);
  ++result_.attempted;
}

void Generator::Retry(Conn* c, const Pending& p) {
  Pending again = p;
  ++again.attempts;
  Rng rng = p.rng;
  source_(&rng, &gen_);
  Send(c, again);
  ++result_.retries;
}

void Generator::Flush(Conn* c) {
  while (!c->broken && c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      Fail(c);
      return;
    }
  }
  c->out.clear();
  c->out_off = 0;
}

void Generator::Complete(const Pending& p, const Response* response,
                         uint64_t now) {
  const bool ok = response != nullptr && response->status == StatusCode::kOk;
  if (ok) {
    ++result_.ok;
    ++window_ok_;
    result_.increments_acked += p.increments;
    if (p.get_key != UINT64_MAX) {
      uint64_t counter = 0;
      if (response->payload.size() != spec_.value_size) {
        ++result_.bad_replies;
      } else {
        std::memcpy(&counter, response->payload.data(), sizeof(counter));
        // Seed counters equal the key and only grow (rmw) or are reset to
        // the key (put).
        if (counter < p.get_key) ++result_.bad_replies;
      }
    }
  } else {
    ++result_.failed;
    ++result_.failures[response == nullptr
                           ? std::string("transport")
                           : "status " + std::to_string(static_cast<int>(
                                             response->status))];
  }
  if (spec_.rate > 0) {
    result_.latencies_ns[static_cast<size_t>(p.kind)].push_back(
        ok ? now - p.start_ns : kFailedLatencyNs);
  }
  if (p.traced && spans_ != nullptr) {
    spans_->Record(spec_.kind_spans[static_cast<size_t>(p.kind)], p.start_ns,
                   now);
  }
}

void Generator::Fail(Conn* c) {
  const uint64_t now = NowNs();
  for (const Pending& p : c->pending) Complete(p, nullptr, now);
  c->pending.clear();
  c->broken = true;
  ::close(c->fd);
  c->fd = -1;
}

void Generator::OnReadable(Conn* c) {
  for (;;) {
    const ssize_t n = ::read(c->fd, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      c->decoder.Feed(read_buf_.data(), static_cast<size_t>(n));
      if (static_cast<size_t>(n) < read_buf_.size()) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Fail(c);
    return;
  }
  const uint64_t now = NowNs();
  for (;;) {
    Frame frame;
    bool have = false;
    if (!c->decoder.Next(&frame, &have).ok()) return Fail(c);
    if (!have) break;
    Response response;
    if (frame.type != FrameType::kResponse ||
        !DecodeResponse(frame.body, frame.body_len, &response).ok() ||
        c->pending.empty() ||
        response.request_id != c->pending.front().request_id) {
      return Fail(c);  // Replies must come back in request order.
    }
    const Pending p = c->pending.front();
    c->pending.pop_front();
    if (response.status == StatusCode::kAborted &&
        p.attempts < kMaxAttempts) {
      Retry(c, p);  // Keeps the request's pipeline slot.
      continue;
    }
    Complete(p, &response, now);
    if (spec_.rate == 0 && closed_loop_issuing_) {
      Issue(c, NowNs(), window_traced_);
    }
  }
  Flush(c);
}

void Generator::PollOnce(int64_t timeout_ns) {
  pfds_.clear();
  pfd_owners_.clear();
  for (Conn& c : conns_) {
    if (c.broken) continue;
    short events = POLLIN;
    if (c.out_off < c.out.size()) events |= POLLOUT;
    pfds_.push_back(pollfd{c.fd, events, 0});
    pfd_owners_.push_back(&c);
  }
  if (pfds_.empty()) return;
  timespec ts{};
  const int64_t wait = timeout_ns < 0 ? 50'000'000 : timeout_ns;
  ts.tv_sec = wait / 1'000'000'000;
  ts.tv_nsec = wait % 1'000'000'000;
  if (::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr) <= 0) return;
  for (size_t i = 0; i < pfds_.size(); ++i) {
    Conn* c = pfd_owners_[i];
    if (c->broken || pfds_[i].revents == 0) continue;
    if (pfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) OnReadable(c);
    if (!c->broken && (pfds_[i].revents & POLLOUT)) Flush(c);
  }
}

size_t Generator::Outstanding() const {
  size_t n = 0;
  for (const Conn& c : conns_) n += c.pending.size();
  return n;
}

void Generator::EndWindow(uint64_t now) {
  const double elapsed_s = static_cast<double>(now - window_start_) / 1e9;
  // A sliver left at the end of the phase would give a noisy rate.
  if (elapsed_s >= spec_.window_s / 2) {
    (window_traced_ ? result_.traced_rates : result_.rates)
        .push_back(static_cast<double>(window_ok_) / elapsed_s);
  }
  if (spec_.trace) window_traced_ = !window_traced_;
  window_ok_ = 0;
  window_start_ = now;
}

LoadResult Generator::Run() {
  // Open-loop sends are timed to the microsecond; the default 50 us timer
  // slack would add that much lateness to every poll wake-up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const ProcUsage usage0 = ThreadUsage();
  if (!Connect()) {
    ++result_.failed;
    ++result_.attempted;
    ++result_.failures["transport"];
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    return result_;
  }
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(spec_.seconds * 1e9);
  window_start_ = start;
  if (spec_.rate == 0) {
    for (Conn& c : conns_) {
      for (int i = 0; i < spec_.depth; ++i) Issue(&c, NowNs(), false);
      Flush(&c);
    }
    const uint64_t window_ns = static_cast<uint64_t>(spec_.window_s * 1e9);
    uint64_t now = start;
    for (; now < end; now = NowNs()) {
      if (now - window_start_ >= window_ns) EndWindow(now);
      PollOnce(std::min<int64_t>(50'000'000, end - now));
    }
    EndWindow(now);
    closed_loop_issuing_ = false;
  } else {
    size_t next_conn = 0;
    double due = static_cast<double>(start) + NextGapNs();
    for (uint64_t now = start; now < end; now = NowNs()) {
      while (due <= static_cast<double>(now) &&
             due < static_cast<double>(end)) {
        Conn* c = &conns_[next_conn];
        next_conn = (next_conn + 1) % conns_.size();
        if (!c->broken) {
          const uint64_t due_ns = static_cast<uint64_t>(due);
          Issue(c, due_ns, spec_.trace);
          result_.late_ns.push_back(now - due_ns);
        }
        due += NextGapNs();
      }
      for (Conn& c : conns_) Flush(&c);
      const double wait = due - static_cast<double>(NowNs());
      PollOnce(wait > 0 ? static_cast<int64_t>(wait) : 0);
    }
  }
  const uint64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  while (Outstanding() > 0 && NowNs() < drain_deadline) PollOnce(-1);
  for (Conn& c : conns_) {
    if (!c.broken) {
      const uint64_t now = NowNs();
      for (const Pending& p : c.pending) Complete(p, nullptr, now);
      ::close(c.fd);
    }
  }
  const ProcUsage usage1 = ThreadUsage();
  result_.generator.cpu_us = usage1.cpu_us - usage0.cpu_us;
  result_.generator.vcsw = usage1.vcsw - usage0.vcsw;
  return std::move(result_);
}

}  // namespace

LoadResult RunLoad(const LoadSpec& spec, const RequestSource& source,
                   SpanBuffer* spans) {
  LoadResult result;
  std::thread thread([&] {
    Generator generator(spec, source, spans);
    result = generator.Run();
  });
  thread.join();
  return result;
}

}  // namespace perfbench
