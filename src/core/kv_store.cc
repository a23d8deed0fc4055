#include "core/kv_store.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "costmodel/cost_params.h"
#include "costmodel/five_minute_rule.h"

namespace costperf::core {

namespace {

template <MetricMerge kMerge, typename T>
void MergeMetric(T& into, const T& from) {
  if constexpr (kMerge == MetricMerge::kWorst) {
    into = std::max(into, from);
  } else {
    into += from;
  }
}

template <MetricKind kKind, typename T>
T DeltaMetric(const T& before, const T& after) {
  if constexpr (kKind == MetricKind::kCounter) {
    return after - before;
  } else {
    return after;
  }
}

double Ratio(uint64_t num, uint64_t den, double if_empty) {
  return den == 0 ? if_empty
                  : static_cast<double>(num) / static_cast<double>(den);
}

// The §4.1 constants with the mean page size a store demoted.
costmodel::CostParams MeasuredParams(const KvStoreStats& s) {
  costmodel::CostParams p = costmodel::CostParams::PaperDefaults();
  p.page_size_bytes = Ratio(s.css_raw_bytes, s.tier_demotions, 0.0);
  return p;
}

}  // namespace

KvStoreStats& KvStoreStats::operator+=(const KvStoreStats& other) {
#define COSTPERF_KV_METRIC_MERGE(name, type, kind, merge, unit, doc) \
  MergeMetric<MetricMerge::merge>(name, other.name);
  COSTPERF_KV_STORE_METRICS(COSTPERF_KV_METRIC_MERGE)
#undef COSTPERF_KV_METRIC_MERGE
  return *this;
}

KvStoreStats KvStoreStats::Delta(const KvStoreStats& before,
                                 const KvStoreStats& after) {
  KvStoreStats d;
#define COSTPERF_KV_METRIC_DELTA(name, type, kind, merge, unit, doc) \
  d.name = DeltaMetric<MetricKind::kind>(before.name, after.name);
  COSTPERF_KV_STORE_METRICS(COSTPERF_KV_METRIC_DELTA)
#undef COSTPERF_KV_METRIC_DELTA
  return d;
}

double KvStoreStats::MissFraction() const {
  return Ratio(misses, hits + misses, 0.0);
}

double KvStoreStats::MeasuredCompressionRatio() const {
  return Ratio(css_stored_bytes, css_raw_bytes, 1.0);
}

double KvStoreStats::MeanDramIntervalSeconds() const {
  return Ratio(tier_dram_interval_nanos, tier_dram_interval_samples, 0.0) *
         1e-9;
}

double KvStoreStats::MeanCssIntervalSeconds() const {
  return Ratio(tier_css_interval_nanos, tier_css_interval_samples, 0.0) *
         1e-9;
}

double KvStoreStats::ModeledTiSeconds() const {
  return costmodel::BreakevenIntervalSeconds(
      costmodel::CostParams::PaperDefaults());
}

double KvStoreStats::ModeledCssBreakevenOps() const {
  return costmodel::CssSsBreakevenOpsPerSec(
      costmodel::CostParams::PaperDefaults(), costmodel::CompressionParams{});
}

double KvStoreStats::MeasuredTiSeconds() const {
  if (tier_demotions == 0 || css_raw_bytes == 0) return 0.0;
  return costmodel::BreakevenIntervalSeconds(MeasuredParams(*this));
}

double KvStoreStats::MeasuredCssBreakevenOps() const {
  if (tier_demotions == 0 || css_raw_bytes == 0) return 0.0;
  costmodel::CompressionParams ratio;
  ratio.compression_ratio = MeasuredCompressionRatio();
  return costmodel::CssSsBreakevenOpsPerSec(MeasuredParams(*this), ratio);
}

std::string KvStoreStats::ToString() const {
  std::string out = "kv:";
  ForEachMetric([&out](const MetricInfo& m, const auto& v) {
    out.append(" ").append(m.name).append("=");
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, HealthStatus>) {
      out.append(HealthStatusName(v));
    } else {
      out.append(std::to_string(v));
    }
  });
  out.append("\nderived:");
  ForEachDerivedMetric([&out](const DerivedMetricInfo& m, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), " %s=%.6g", m.name, v);
    out.append(buf);
  });
  return out;
}

Status KvStore::Get(const Slice& key, std::string* value_out) {
  Result<std::string> r = Get(key);
  if (!r.ok()) return r.status();
  *value_out = std::move(*r);
  return Status::Ok();
}

void KvStore::BatchGet(BatchGetOp* ops, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    *ops[i].status = Get(ops[i].key, ops[i].value);
  }
}

Status KvStore::MultiGet(std::span<const std::string> keys,
                         const ReadOptions& options, BatchReadResult* out) {
  out->Reset(keys.size());
  // Route through BatchGet so a store that overrides only the batch
  // probe (CachingStore, MemoryStore) serves MultiGet through it too.
  // Scratch is per thread: the op array is rebuilt each call but its
  // capacity survives, so a steady-state batch loop does not allocate.
  thread_local std::vector<BatchGetOp> ops;
  ops.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].key = Slice(keys[i]);
    ops[i].value = &out->values[i];
    ops[i].status = &out->statuses[i];
  }
  BatchGet(ops.data(), ops.size());
  if (options.max_value_bytes != 0) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (out->statuses[i].ok() &&
          out->values[i].size() > options.max_value_bytes) {
        out->statuses[i] =
            Status::ResourceExhausted("value exceeds max_value_bytes");
      }
    }
  }
  return out->FirstError();
}

Status KvStore::WriteBatch(std::span<const KvEntry> entries,
                           const WriteOptions& options,
                           BatchWriteResult* out) {
  out->Reset(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    Status s = Put(Slice(entries[i].first), Slice(entries[i].second));
    const bool failed = !s.ok();
    if (s.ok()) ++out->ok_count;
    out->statuses[i] = std::move(s);
    if (failed && options.fail_fast) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        out->statuses[j] = Status::Aborted("not attempted (fail_fast)");
      }
      break;
    }
  }
  return out->FirstError();
}

}  // namespace costperf::core
