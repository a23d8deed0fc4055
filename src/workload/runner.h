#ifndef COSTPERF_WORKLOAD_RUNNER_H_
#define COSTPERF_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "core/kv_store.h"
#include "workload/workload.h"

namespace costperf::workload {

struct RunnerOptions {
  int threads = 1;
  uint64_t ops_per_thread = 10'000;
  // LoadAndRun(): partition the `record_count` keys across worker threads
  // and load in parallel before the measured phase.
  bool parallel_load = true;
  // Per-op wall latency into per-thread histograms (merged in the
  // report). Costs one clock read per op; off for pure-throughput runs.
  bool record_latencies = true;
  // Record only every Nth op's latency (per thread). Two clock reads per
  // sample are a measurable slice of an in-cache op, so throughput runs
  // sample; 1 = time every op.
  uint32_t latency_sample = 1;
};

// Merged result of a multi-threaded run. CPU seconds follow the paper's
// performance measure (core execution time); the wall clock covers only
// the measured phase — the phase barrier keeps load time out of it.
struct RunReport {
  int threads = 0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  // Generated op mix, indexed by OpType (kRead..kReadModifyWrite).
  // Deterministic for a given (spec, threads, ops_per_thread).
  uint64_t op_counts[5] = {};
  uint64_t batch_calls = 0;  // MultiGet/WriteBatch calls issued

  double wall_seconds = 0;
  double cpu_seconds_total = 0;  // summed over worker threads
  double cpu_seconds_max = 0;    // slowest worker's CPU time
  double ops_per_wall_sec = 0;   // measured on this host
  double ops_per_cpu_sec = 0;    // ops / cpu_seconds_total (efficiency)
  // ops / cpu_seconds_max: throughput if every worker had its own core —
  // the cost model's view (ops per CPU-second scaled to T cores), and the
  // honest scaling number on core-limited CI hosts.
  double modeled_parallel_ops_per_sec = 0;

  // Merged per-op wall latency (microseconds). In batched mode each
  // MultiGet/WriteBatch call contributes one sample.
  Histogram latency_micros;
  double p50_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;

  // Per-op-class latency split: ops completed purely in memory (MM) vs
  // ops that needed at least one secondary-storage read (SS), classified
  // by the store's thread-local op-class publication. Both empty for
  // stores that don't classify (e.g. MemoryStore) or when latency
  // recording is off.
  Histogram mm_latency_micros;
  Histogram ss_latency_micros;
  double mm_p50_micros = 0;
  double mm_p99_micros = 0;
  double ss_p50_micros = 0;
  double ss_p99_micros = 0;

  // The store's metrics over the run: KvStoreStats::Delta of Stats()
  // around it (LoadAndRun includes the load phase). For example
  // store.foreground_maintenance_ops == 0 means no application thread
  // paid for eviction/GC/consolidation.
  core::KvStoreStats store;

  std::string ToString() const;
};

// Drives any KvStore with T worker threads, each consuming an
// independent deterministic op stream (Workload(spec, thread_seed_offset))
// — the multi-core harness the paper's ops/CPU-second comparisons assume.
//
// LoadAndRun() runs both phases on the same worker threads with a barrier
// between them: every thread finishes its load partition before any
// thread's measured op executes, so the timed phase sees a fully loaded
// store and no load traffic.
class Runner {
 public:
  Runner(core::KvStore* store, WorkloadSpec spec, RunnerOptions options = {});

  // Load phase only: partitions [0, record_count) across threads.
  Status Load();

  // Measured phase only (store must already be loaded).
  RunReport Run();

  // Load, barrier, run.
  RunReport LoadAndRun();

 private:
  core::KvStore* store_;
  WorkloadSpec spec_;
  RunnerOptions options_;
};

}  // namespace costperf::workload

#endif  // COSTPERF_WORKLOAD_RUNNER_H_
