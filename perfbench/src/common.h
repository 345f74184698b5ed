#ifndef NEXT700_PERFBENCH_COMMON_H_
#define NEXT700_PERFBENCH_COMMON_H_

/// \file
/// Shared pieces of the end-to-end benchmark: run options, the metric
/// report every workload fills, and process-level probes (RSS, rusage).
/// The benchmark drives the library only through its public API and
/// reads counters only through public accessors.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: small tables, short phases. Same code paths.
  bool tiny = false;
  /// Scratch directory (log segments, span dumps); inside the checkout.
  std::string run_dir;
};

/// One reported number. `samples` is what a percentile or mean was taken
/// over (0 for a plain count or ratio of counters).
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct Report {
  bool correct = true;
  std::vector<std::string> gate_failures;  // Why `correct` is false.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Served workloads: engine aborts the client sent again (see loadgen.h).
  uint64_t retried = 0;
  std::map<std::string, uint64_t> failed_by_cause;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Resolved configuration recorded beside the result.
  std::map<std::string, std::string> fingerprint;

  void Fail(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
  void E2e(const std::string& name, double value, const char* unit,
           uint64_t samples = 0) {
    end_to_end[name] = Metric{value, unit, samples};
  }
  void Layer(const std::string& name, double value, const char* unit,
             uint64_t samples = 0) {
    per_layer[name] = Metric{value, unit, samples};
  }
};

uint64_t NowNs();

/// Exact percentile (nearest rank) of `v`; sorts in place. 0 if empty.
double Percentile(std::vector<uint64_t>* v, double q);
double Median(std::vector<double> v);

/// Interference from other tenants of a shared host (CPU steal, disk
/// stalls) only ever slows a window down, so the faster windows estimate
/// the program's own speed. A quartile rather than the extreme keeps one
/// lucky window from setting the number.
/// The 75th percentile of per-window rates.
double UndisturbedRate(std::vector<double> rates);
/// The 25th percentile of per-window latencies.
double UndisturbedLatency(std::vector<double> latencies);

/// Current resident set in MB (/proc/self/statm).
double CurrentRssMb();
/// Peak resident set in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Process-wide CPU time and voluntary context switches.
struct ProcUsage {
  double cpu_us = 0;
  uint64_t vcsw = 0;
};
ProcUsage SelfUsage();
ProcUsage ThreadUsage();  // The calling thread only.

/// Median of `repeats` timed `setup()` calls, in seconds. `teardown()`
/// runs untimed between calls; the last call's state is kept.
template <typename Setup, typename Teardown>
double TimeSetup(int repeats, Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) teardown();
    const uint64_t t0 = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(times);
}

// Workload entry points (one per workload; each fills `report`).
void RunEngine2pl(const RunOptions& options, Report* report);
void RunKvMixed(const RunOptions& options, Report* report);
void RunShard2pc(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // NEXT700_PERFBENCH_COMMON_H_
