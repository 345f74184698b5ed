/// next700_perfbench: one workload per invocation.
///
///   next700_perfbench --workload engine-2pl|kv-mixed|shard-2pc --seed N
///       --seconds S --trace 0|1 --run-dir DIR [--tiny] [--source-id ID]
///
/// Prints a human-readable line per metric (value, unit, sample count), a
/// fingerprint line, and as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
/// Exits 1 when a correctness gate fails, 2 on bad usage.

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "next700_perfbench: %s\nusage: next700_perfbench --workload "
               "engine-2pl|kv-mixed|shard-2pc --seed N --seconds S "
               "--trace 0|1 --run-dir DIR [--tiny] [--source-id ID]\n",
               why);
  std::exit(2);
}

/// Every per-layer metric, in the traced result of every workload. A layer
/// a workload does not exercise reports 0 with 0 samples (see NOTES.md).
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"txn.begin_ns", "ns"},
    {"txn.read_ns", "ns"},
    {"txn.rmw_ns", "ns"},
    {"txn.commit_ns", "ns"},
    {"txn.abort_ns", "ns"},
    {"txn.self_ns", "ns"},
    {"cc.abort_frac", "ratio"},
    {"cc.attempts_per_commit", "ratio"},
    {"cc.lock_waits_per_txn", "count"},
    {"storage.rss_growth_mb", "MB"},
    {"client.p90_us", "us"},
    {"client.p99_us", "us"},
    {"client.get_p50_us", "us"},
    {"client.get_p99_us", "us"},
    {"client.put_p50_us", "us"},
    {"client.rmw_p50_us", "us"},
    {"client.rmw_p99_us", "us"},
    {"log.flushes_per_txn", "count"},
    {"log.syncs_per_txn", "count"},
    {"log.bytes_per_txn", "B"},
    {"server.held_frac", "ratio"},
    {"io.syscalls_per_txn", "count"},
    {"server.frames_per_writev", "count"},
    {"server.admission_rejects", "count"},
    {"client.single_p50_us", "us"},
    {"client.single_p99_us", "us"},
    {"client.cross_p50_us", "us"},
    {"client.cross_p99_us", "us"},
    {"shard.cross_commit_frac", "ratio"},
    {"shard.vote_timeouts", "count"},
    {"shard.router_syscalls_per_txn", "count"},
    {"shard.frames_per_writev", "count"},
    {"shard.prepares_per_cross", "count"},
    {"shard.decision_log_bytes_per_cross", "B"},
    {"proc.cpu_us_per_txn", "us"},
    {"proc.vcsw_per_txn", "count"},
    {"loadgen.late_p99_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

/// Fills the layers this workload does not exercise, and rejects a metric
/// the table above does not name (a typo would otherwise go unnoticed).
void CompletePerLayer(Report* report) {
  for (const auto& [name, m] : report->per_layer) {
    bool known = false;
    for (const auto& [n, unit] : kPerLayer) {
      known |= name == n && m.unit == unit;
    }
    if (!known) report->Fail("unlisted per-layer metric " + name);
  }
  for (const auto& [name, unit] : kPerLayer) {
    if (report->per_layer.count(name) == 0) report->Layer(name, 0, unit);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AddHostFingerprint(const RunOptions& options, const std::string& source,
                        Report* report) {
  utsname u{};
  ::uname(&u);
  auto& fp = report->fingerprint;
  fp["workload"] = options.workload;
  fp["seed"] = std::to_string(options.seed);
  fp["seconds"] = JsonNumber(options.seconds);
  fp["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  fp["kernel"] = std::string(u.sysname) + " " + u.release;
  fp["compiler"] = __VERSION__;
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["source"] = source;
  fp["tiny"] = options.tiny ? "1" : "0";
}

void Print(const RunOptions& options, const Report& report) {
  auto line = [](const char* group, const std::string& name,
                 const Metric& m) {
    std::printf("%-9s %-36s %16.6f %-6s samples=%llu\n", group, name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  };
  for (const auto& [name, m] : report.end_to_end) line("e2e", name, m);
  for (const auto& [name, m] : report.per_layer) line("layer", name, m);
  std::printf("%-9s %-36s %16.6f %-6s (%llu of %llu)\n", "e2e",
              "failed_frac",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "ratio", static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("%-9s %-36s %16llu\n", "retried", "aborted requests",
              static_cast<unsigned long long>(report.retried));
  for (const auto& [cause, n] : report.failed_by_cause) {
    std::printf("failed    %-36s %16llu\n", cause.c_str(),
                static_cast<unsigned long long>(n));
  }
  for (const std::string& why : report.gate_failures) {
    std::printf("CORRECTNESS FAILURE: %s\n", why.c_str());
  }

  std::string fp = "fingerprint {";
  bool first = true;
  for (const auto& [k, v] : report.fingerprint) {
    fp += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  std::printf("%s}\n", fp.c_str());

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::RunOptions options;
  std::string source = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
      options.trace = t == "1";
    } else if (arg == "--run-dir") {
      options.run_dir = value();
    } else if (arg == "--source-id") {
      source = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (options.run_dir.empty()) Usage("--run-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(options.run_dir, ec);
  if (ec) Usage("cannot create --run-dir");

  perfbench::Report report;
  if (options.workload == "engine-2pl") {
    perfbench::RunEngine2pl(options, &report);
  } else if (options.workload == "kv-mixed") {
    perfbench::RunKvMixed(options, &report);
  } else if (options.workload == "shard-2pc") {
    perfbench::RunShard2pc(options, &report);
  } else {
    Usage("unknown workload");
  }
  if (options.trace) perfbench::CompletePerLayer(&report);
  for (const auto* group : {&report.end_to_end, &report.per_layer}) {
    for (const auto& [name, m] : *group) {
      if (!std::isfinite(m.value)) report.Fail(name + " is not a number");
    }
  }
  perfbench::AddHostFingerprint(options, source, &report);
  perfbench::Print(options, report);
  return report.correct ? 0 : 1;
}
