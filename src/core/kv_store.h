#ifndef COSTPERF_CORE_KV_STORE_H_
#define COSTPERF_CORE_KV_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_checker.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/batch.h"

namespace costperf::core {

// Store health. kDegraded means the store has shed write availability
// after persistent device write failures: reads still serve resident and
// previously flushed data, writes fail fast with the original IoError.
// An aggregate (ShardedStore) is degraded when any shard is.
enum class HealthStatus {
  kHealthy = 0,
  kDegraded = 1,
};

inline const char* HealthStatusName(HealthStatus h) {
  return h == HealthStatus::kHealthy ? "healthy" : "degraded";
}

// A counter only grows, so an interval's share is after - before; a
// gauge is a level, so an interval keeps the after value.
enum class MetricKind { kCounter, kGauge };
// How shards combine (ShardedStore::Stats): summed, or the worst wins.
enum class MetricMerge { kSum, kWorst };

struct MetricInfo {
  const char* name;
  MetricKind kind;
  MetricMerge merge;
  const char* unit;
  const char* doc;
};
struct DerivedMetricInfo {
  const char* name;
  const char* unit;
  const char* doc;
};

// The store metric schema, one row per KvStoreStats member:
//   X(name, type, kind, merge, unit, doc)
// The members, operator+= (shard merge), Delta (run intervals), ToString
// and ForEachMetric are generated from it; wire STATS (store.<name>),
// RunReport and the bench JSON rows export through ForEachMetric. A new
// metric is one row here plus the line in a store's Stats() filling it.
// hits/misses are the paper's MM/SS ops: a miss read flash at least once.
#define COSTPERF_KV_STORE_METRICS(X)                                        \
  X(reads, uint64_t, kCounter, kSum, "ops", "Get + Scan operations")        \
  X(writes, uint64_t, kCounter, kSum, "ops", "Put + Delete operations")     \
  X(hits, uint64_t, kCounter, kSum, "ops", "ops served without flash read") \
  X(misses, uint64_t, kCounter, kSum, "ops", "ops that read flash")         \
  X(io_reads, uint64_t, kCounter, kSum, "ios", "device read I/Os")          \
  X(io_writes, uint64_t, kCounter, kSum, "ios", "device write I/Os")        \
  X(bytes_read, uint64_t, kCounter, kSum, "B", "device bytes read")         \
  X(bytes_written, uint64_t, kCounter, kSum, "B", "device bytes written")   \
  X(memory_bytes, uint64_t, kGauge, kSum, "B", "resident DRAM footprint")   \
  X(io_retries, uint64_t, kCounter, kSum, "ios", "transient errors retried")\
  X(health, HealthStatus, kGauge, kWorst, "state", "0 healthy, 1 degraded") \
  X(cache_touches, uint64_t, kCounter, kSum, "touches", "lock-free touches")\
  X(cache_touches_sampled, uint64_t, kCounter, kSum, "touches",             \
    "of which ref-bit-only")                                                \
  X(epoch_reclaim_batches, uint64_t, kCounter, kSum, "passes",              \
    "epoch reclaim passes that freed memory")                               \
  X(epoch_reclaimed_items, uint64_t, kCounter, kSum, "items",               \
    "retired deleters run")                                                 \
  X(log_append_groups, uint64_t, kCounter, kSum, "groups",                  \
    "log append fill groups")                                               \
  X(log_groups_1, uint64_t, kCounter, kSum, "groups", "groups of 1 append") \
  X(log_groups_2, uint64_t, kCounter, kSum, "groups", "groups of 2")        \
  X(log_groups_3_4, uint64_t, kCounter, kSum, "groups", "groups of 3-4")    \
  X(log_groups_5_8, uint64_t, kCounter, kSum, "groups", "groups of 5-8")    \
  X(log_groups_9_16, uint64_t, kCounter, kSum, "groups", "groups of 9-16")  \
  X(log_groups_17_up, uint64_t, kCounter, kSum, "groups", "groups of 17+")  \
  X(multiget_batches, uint64_t, kCounter, kSum, "calls", "MultiGet calls")  \
  X(multiget_keys, uint64_t, kCounter, kSum, "keys", "keys in those calls") \
  X(multiget_shard_groups, uint64_t, kCounter, kSum, "visits",              \
    "per-shard group visits")                                               \
  X(writebatch_batches, uint64_t, kCounter, kSum, "calls", "WriteBatch calls")\
  X(writebatch_entries, uint64_t, kCounter, kSum, "entries", "in those")    \
  X(writebatch_shard_groups, uint64_t, kCounter, kSum, "visits",            \
    "per-shard group visits")                                               \
  X(foreground_maintenance_ops, uint64_t, kCounter, kSum, "passes",         \
    "maintenance passes run on an application thread")                      \
  X(background_maintenance_steps, uint64_t, kCounter, kSum, "steps",        \
    "scheduler worker steps")                                               \
  X(background_pages_evicted, uint64_t, kCounter, kSum, "pages",            \
    "pages evicted by worker steps")                                        \
  X(background_gc_segments, uint64_t, kCounter, kSum, "segments",           \
    "log segments collected by the GC step (either mode)")                  \
  X(background_consolidations, uint64_t, kCounter, kSum, "pages",           \
    "delta chains consolidated by housekeeping")                            \
  X(background_leaf_flushes, uint64_t, kCounter, kSum, "pages",             \
    "dirty leaves flushed by housekeeping")                                 \
  X(write_stalls, uint64_t, kCounter, kSum, "stalls",                       \
    "bounded write stalls under eviction debt")                             \
  X(stall_micros_total, uint64_t, kCounter, kSum, "us", "time stalled")     \
  X(tier_dram_pages, uint64_t, kGauge, kSum, "pages", "pages in DRAM")      \
  X(tier_dram_bytes, uint64_t, kGauge, kSum, "B", "bytes in DRAM")          \
  X(tier_css_pages, uint64_t, kGauge, kSum, "pages", "pages in CSS")        \
  X(tier_css_bytes, uint64_t, kGauge, kSum, "B", "stored bytes in CSS")     \
  X(tier_css_hits, uint64_t, kCounter, kSum, "loads", "loads from CSS")     \
  X(tier_demotions, uint64_t, kCounter, kSum, "pages", "DRAM -> CSS")       \
  X(tier_promotions, uint64_t, kCounter, kSum, "pages", "CSS -> DRAM")      \
  X(tier_demotion_refusals, uint64_t, kCounter, kSum, "pages",              \
    "demotions the policy refused as a loss")                               \
  X(tier_css_fallthroughs, uint64_t, kCounter, kSum, "pages",               \
    "CSS -> plain SS on budget overflow")                                   \
  X(css_raw_bytes, uint64_t, kCounter, kSum, "B", "raw bytes demoted")      \
  X(css_stored_bytes, uint64_t, kCounter, kSum, "B", "stored bytes demoted")\
  X(tier_dram_interval_nanos, uint64_t, kCounter, kSum, "ns",               \
    "sum of DRAM touch gaps")                                               \
  X(tier_dram_interval_samples, uint64_t, kCounter, kSum, "gaps",           \
    "DRAM touch gaps summed")                                               \
  X(tier_css_interval_nanos, uint64_t, kCounter, kSum, "ns",                \
    "sum of CSS reheat gaps")                                               \
  X(tier_css_interval_samples, uint64_t, kCounter, kSum, "gaps",            \
    "CSS reheat gaps summed")                                               \
  X(background_pages_demoted, uint64_t, kCounter, kSum, "pages",            \
    "demotions by maintenance (either mode)")                               \
  X(background_pages_promoted, uint64_t, kCounter, kSum, "pages",           \
    "promotions by background maintenance")

// Derived metrics, Y(name, method, unit, doc): computed from the fields
// above and never stored, so an aggregate recomputes them from its sums.
#define COSTPERF_KV_STORE_DERIVED(Y)                                        \
  Y(miss_fraction, MissFraction, "ratio", "the paper's F")                  \
  Y(compression_ratio, MeasuredCompressionRatio, "ratio", "stored / raw")   \
  Y(mean_dram_interval_seconds, MeanDramIntervalSeconds, "s", "DRAM gap")   \
  Y(mean_css_interval_seconds, MeanCssIntervalSeconds, "s", "CSS gap")      \
  Y(modeled_t_i_seconds, ModeledTiSeconds, "s", "Eq. 6 T_i, modeled")       \
  Y(measured_t_i_seconds, MeasuredTiSeconds, "s", "Eq. 6 T_i, measured")    \
  Y(modeled_css_breakeven_ops, ModeledCssBreakevenOps, "1/s", "CSS/SS, mod.")\
  Y(measured_css_breakeven_ops, MeasuredCssBreakevenOps, "1/s", "CSS/SS")

// Structured counters common to every KvStore, declared by
// COSTPERF_KV_STORE_METRICS. Benches and tests read the fields directly
// instead of parsing DebugString().
struct KvStoreStats {
#define COSTPERF_KV_METRIC_MEMBER(name, type, kind, merge, unit, doc) \
  type name{};
  COSTPERF_KV_STORE_METRICS(COSTPERF_KV_METRIC_MEMBER)
#undef COSTPERF_KV_METRIC_MEMBER

#define COSTPERF_KV_METRIC_COUNT(...) +1
  static constexpr size_t kMetricCount =
      0 COSTPERF_KV_STORE_METRICS(COSTPERF_KV_METRIC_COUNT);
#undef COSTPERF_KV_METRIC_COUNT

  // Calls f(const MetricInfo&, field&) for every metric in declaration
  // order (field is const on const stats): exporters read through it,
  // tests write through it.
  template <typename F>
  void ForEachMetric(F&& f) { VisitMetrics(*this, f); }
  template <typename F>
  void ForEachMetric(F&& f) const { VisitMetrics(*this, f); }
  // Calls f(const DerivedMetricInfo&, double) for every derived metric.
  template <typename F>
  void ForEachDerivedMetric(F&& f) const {
#define COSTPERF_KV_DERIVED_VISIT(name, method, unit, doc) \
  f(DerivedMetricInfo{#name, unit, doc}, method());
    COSTPERF_KV_STORE_DERIVED(COSTPERF_KV_DERIVED_VISIT)
#undef COSTPERF_KV_DERIVED_VISIT
  }

  // The paper's F; 0 when the store classified nothing.
  double MissFraction() const;
  // Compressed / raw bytes across all demotions (1.0 before any).
  double MeasuredCompressionRatio() const;
  // Mean measured inter-access gap per tier, seconds (0 with no samples).
  double MeanDramIntervalSeconds() const;
  double MeanCssIntervalSeconds() const;
  // Eq. 6 breakeven T_i and the Fig. 8 CSS-vs-SS crossover, modeled at
  // the paper's §4.1 constants and measured at the mean demoted page size
  // (css_raw_bytes / tier_demotions) and compression ratio; the measured
  // values are 0 before any demotion.
  double ModeledTiSeconds() const;
  double MeasuredTiSeconds() const;
  double ModeledCssBreakevenOps() const;
  double MeasuredCssBreakevenOps() const;

  // Merges another shard's stats in, each metric by its merge rule.
  KvStoreStats& operator+=(const KvStoreStats& other);
  // The interval between two snapshots of one store, by metric kind.
  static KvStoreStats Delta(const KvStoreStats& before,
                            const KvStoreStats& after);
  // "kv: <name>=<value> ..." then "derived: ..."; the canonical body of
  // DebugString().
  std::string ToString() const;

 private:
  template <typename Stats, typename F>
  static void VisitMetrics(Stats& s, F& f) {
#define COSTPERF_KV_METRIC_VISIT(name, type, kind, merge, unit, doc) \
  f(MetricInfo{#name, MetricKind::kind, MetricMerge::merge, unit, doc},  \
    s.name);
    COSTPERF_KV_STORE_METRICS(COSTPERF_KV_METRIC_VISIT)
#undef COSTPERF_KV_METRIC_VISIT
  }
};

namespace internal {
// Converts to any member type, so the number of them an aggregate
// accepts as initializers is its member count.
struct AnyField {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};
template <typename T, typename... Fields>
constexpr size_t AggregateFieldCount() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return AggregateFieldCount<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}
}  // namespace internal

// A KvStoreStats member declared outside COSTPERF_KV_STORE_METRICS would
// be skipped by the merge, the delta and every export; it fails here.
static_assert(internal::AggregateFieldCount<KvStoreStats>() ==
                  KvStoreStats::kMetricCount,
              "declare KvStoreStats members in COSTPERF_KV_STORE_METRICS");

// The library's public key-value abstraction. Implemented by
// CachingStore (Bw-tree over LLAMA over the simulated SSD — the paper's
// data caching system), MemoryStore (MassTree — the paper's main
// memory system), and ShardedStore (hash-partitioned composition of
// either, the concurrent execution substrate). Workload generators and
// benches target this interface so all systems run identical workloads.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(const Slice& key, const Slice& value) = 0;
  virtual Result<std::string> Get(const Slice& key) = 0;
  // Out-param read: copies the value into *value_out, whose capacity
  // survives across calls — a read-heavy loop pays one memcpy per hit
  // instead of a fresh heap allocation per Result<std::string>. The
  // default adapts the Result overload; hot-path stores override it.
  virtual Status Get(const Slice& key, std::string* value_out);
  virtual Status Delete(const Slice& key) = 0;
  virtual Status Scan(
      const Slice& start, size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) = 0;

  // Batched point lookups, the canonical batch read surface: fills
  // out->statuses[i]/out->values[i] for keys[i], reusing the result's
  // value buffers across calls (no per-key allocation in steady state).
  // The returned Status is out->FirstError(): Ok unless some key hit a
  // real error — NotFound is reported per key, not as a call failure.
  // The default loops over the out-param Get(); ShardedStore overrides
  // it to group keys per shard (one shard visit per touched shard
  // instead of one per key).
  virtual Status MultiGet(std::span<const std::string> keys,
                          const ReadOptions& options, BatchReadResult* out);
  Status MultiGet(std::span<const std::string> keys, BatchReadResult* out) {
    return MultiGet(keys, ReadOptions(), out);
  }

  // Lowest-level batched read surface: each op names a key and the
  // caller-owned value/status slots it fills (see BatchGetOp). MultiGet
  // routes through this. Index-backed stores override it with the
  // miss-interleaved batch probe (Bw-tree MultiGetBatch / MassTree
  // LookupBatch) so a group of point reads overlaps its descent cache
  // misses instead of serializing them; the default loops the
  // out-param Get(). NotFound is a per-op status, never a call failure.
  virtual void BatchGet(BatchGetOp* ops, size_t count);

  // Batched upserts, the canonical batch write surface: one status per
  // entry in input order via *out (nothing is swallowed after the first
  // failure — that was the old contract's flaw). Returns
  // out->FirstError() for callers that only need the old single-status
  // view. The default loops over Put(); ShardedStore groups entries per
  // shard and merges per-shard outcomes back into input order.
  virtual Status WriteBatch(std::span<const KvEntry> entries,
                            const WriteOptions& options,
                            BatchWriteResult* out);
  Status WriteBatch(std::span<const KvEntry> entries, BatchWriteResult* out) {
    return WriteBatch(entries, WriteOptions(), out);
  }

  // True when Get/MultiGet may be called concurrently with any other
  // operation on this store without external locking. CachingStore's
  // read path is latch-free end to end (Bw-tree mapping table, lock-free
  // cache touches, epoch-protected memory), so it returns true;
  // compositions like ShardedStore use this to skip their per-shard
  // latch on reads.
  virtual bool ConcurrentSafe() const { return false; }

  // Resident DRAM footprint of the store (data + index + bookkeeping).
  virtual uint64_t MemoryFootprintBytes() const = 0;

  // Structured counters for reports and cost-model calibration.
  virtual KvStoreStats Stats() const = 0;

  // Health of each independent failure domain, in stable shard order.
  // Single-shard stores report one entry (their Stats().health);
  // compositions like ShardedStore report one per shard so a serving
  // layer can tell "one shard lost its log device" from "everything is
  // down" and degrade write availability per key subset.
  virtual std::vector<HealthStatus> PerShardHealth() const {
    return {Stats().health};
  }

  // Human-readable counters for reports and debug dumps. The base
  // rendering is Stats().ToString(); implementations append component
  // detail (tree/device/cache lines). Display-only by contract: it is
  // not a format — parse nothing out of it, consume Stats() instead.
  // (The old StatsString() name, which callers had started parsing, is
  // gone; this replacement makes the display-only contract part of the
  // name.)
  virtual std::string DebugString() const { return Stats().ToString(); }

  // Gives the store a chance to run maintenance (eviction, GC, epoch
  // reclamation). Called periodically by workload runners.
  virtual void Maintain() {}

  // Debug hook into the analysis layer (src/analysis/): runs every
  // structural invariant checker the implementation supports and returns
  // the violations found — empty means healthy. Assumes the store is
  // quiescent; meant for tests and debug sweeps, never the hot path. The
  // base implementation has no structure to check.
  virtual std::vector<analysis::Violation> CheckInvariants() { return {}; }
};

}  // namespace costperf::core

#endif  // COSTPERF_CORE_KV_STORE_H_
