#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(rank),
                   v->end());
  return static_cast<double>((*v)[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank];
}

}  // namespace

double UndisturbedRate(std::vector<double> rates) {
  return Quantile(std::move(rates), 0.75);
}

double UndisturbedLatency(std::vector<double> latencies) {
  return Quantile(std::move(latencies), 0.25);
}

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

ProcUsage Usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  ProcUsage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.vcsw = static_cast<uint64_t>(ru.ru_nvcsw);
  return u;
}

}  // namespace

ProcUsage SelfUsage() { return Usage(RUSAGE_SELF); }
ProcUsage ThreadUsage() { return Usage(RUSAGE_THREAD); }

}  // namespace perfbench
