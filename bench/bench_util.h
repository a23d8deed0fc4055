#ifndef COSTPERF_BENCH_BENCH_UTIL_H_
#define COSTPERF_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <string>

#include "common/clock.h"
#include "core/caching_store.h"
#include "core/kv_store.h"
#include "workload/workload.h"

namespace costperf::bench {

// Prints a banner naming the paper artifact a binary reproduces.
inline void Banner(const char* experiment, const char* claim) {
  printf("\n================================================================\n");
  printf("%s\n", experiment);
  printf("%s\n", claim);
  printf("================================================================\n");
}

// Measures CPU nanoseconds of `fn` via thread CPU time (the paper's
// performance measure: core execution time, excluding I/O waits).
template <typename Fn>
double CpuSeconds(Fn&& fn) {
  const uint64_t start = ThreadCpuNanos();
  fn();
  return static_cast<double>(ThreadCpuNanos() - start) * 1e-9;
}

// Writes `"store": {"<name>": <value>, ...}` over every KvStoreStats
// metric and then the derived ones, so bench JSON rows carry the names
// wire STATS exports as store.<name>. Non-finite derived values (a
// breakeven that never crosses) are written as null.
inline void PrintStoreJson(FILE* out, const core::KvStoreStats& s) {
  const char* sep = "";
  fprintf(out, "\"store\": {");
  s.ForEachMetric([&](const core::MetricInfo& m, const auto& v) {
    fprintf(out, "%s\"%s\": %llu", sep, m.name, (unsigned long long)v);
    sep = ", ";
  });
  s.ForEachDerivedMetric([&](const core::DerivedMetricInfo& m, double v) {
    if (std::isfinite(v)) {
      fprintf(out, "%s\"%s\": %.6g", sep, m.name, v);
    } else {
      fprintf(out, "%s\"%s\": null", sep, m.name);
    }
  });
  fprintf(out, "}");
}

// Prints " <name>=<value>" for every non-zero KvStoreStats metric.
inline void PrintNonZeroStoreMetrics(const core::KvStoreStats& s) {
  s.ForEachMetric([](const core::MetricInfo& m, const auto& v) {
    if (static_cast<uint64_t>(v) != 0) {
      printf(" %s=%llu", m.name, (unsigned long long)v);
    }
  });
}

// Standard store configuration for the figure benches: unthrottled
// simulated SSD (we measure CPU cost; the IOPS limit is modeled in the
// cost analysis), 4K max pages as in the paper's Deuteronomy setup.
inline core::CachingStoreOptions FigureStoreOptions() {
  core::CachingStoreOptions o;
  o.memory_budget_bytes = 0;          // explicit eviction control
  o.maintenance_interval_ops = 0;     // no background interference
  o.device.capacity_bytes = 2ull << 30;
  o.device.max_iops = 0;
  o.tree.max_page_bytes = 4096;
  return o;
}

}  // namespace costperf::bench

#endif  // COSTPERF_BENCH_BENCH_UTIL_H_
