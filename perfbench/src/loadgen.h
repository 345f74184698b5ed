#ifndef NEXT700_PERFBENCH_LOADGEN_H_
#define NEXT700_PERFBENCH_LOADGEN_H_

/// \file
/// The benchmark's own client: one generator thread multiplexing a few
/// pipelined connections over poll(), speaking the wire protocol through
/// server::Client (handshake) and the protocol encoders/decoders.
///
/// Closed loop (rate == 0): each connection keeps `depth` requests in
/// flight and sends the next one when a response arrives; throughput is
/// sampled per window. Open loop (rate > 0): requests are due at seeded
/// exponential inter-arrival times regardless of replies, and each is
/// timed from when it was due, so a stall is charged to every request it
/// delays; how late the generator itself sent is reported separately.
///
/// A request the engine answers with kAborted had no effect; it is sent
/// again on the same connection and counts once, as a client of an OLTP
/// engine retries a conflict.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "server/protocol.h"
#include "trace.h"

namespace perfbench {

/// One generated request and what it means for the audit.
struct GenRequest {
  next700::server::Request request;
  int kind = 0;  // Workload-defined index into LoadSpec::kind_spans.
  uint32_t increments = 0;      // Counter increments it applies on commit.
  uint64_t get_key = UINT64_MAX;  // kKvGet: the key read (reply checked).
};

using RequestSource = std::function<void(next700::Rng*, GenRequest*)>;

struct LoadSpec {
  uint16_t port = 0;
  int connections = 4;
  int depth = 1;       // Closed loop: in flight per connection.
  double rate = 0;     // Open loop: requests per second; 0 = closed loop.
  double seconds = 1;
  double window_s = 0.5;  // Closed loop: throughput sampling window.
  /// Closed loop: odd windows record spans. Open loop: every request does.
  bool trace = false;
  uint64_t seed = 1;
  /// Span name per request kind (used when tracing).
  std::vector<SpanName> kind_spans;
  uint32_t value_size = 64;  // kKvGet replies must carry this many bytes.
};

struct LoadResult {
  std::vector<double> rates;         // Closed loop: ok/s per window.
  std::vector<double> traced_rates;  // Closed loop: windows with spans on.
  /// Open loop: latency of every request, by request kind.
  std::vector<std::vector<uint64_t>> latencies_ns;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // Non-OK replies, timeouts and lost connections.
  uint64_t retries = 0;  // Aborted attempts sent again (not failures).
  uint64_t increments_acked = 0;
  uint64_t increments_attempted = 0;
  uint64_t bad_replies = 0;  // Replies whose payload failed the check.
  /// Failed requests by cause: a StatusCode name, or "transport".
  std::map<std::string, uint64_t> failures;
  std::vector<uint64_t> late_ns;  // Open loop: send time minus due time.
  ProcUsage generator;            // Generator thread's own CPU / switches.
};

/// Runs one phase on a fresh set of connections and returns once every
/// request has been answered or timed out. Spans go to `spans` (may be
/// null when not tracing).
LoadResult RunLoad(const LoadSpec& spec, const RequestSource& source,
                   SpanBuffer* spans);

}  // namespace perfbench

#endif  // NEXT700_PERFBENCH_LOADGEN_H_
