// Schema guard for KvStoreStats: every metric declared in
// COSTPERF_KV_STORE_METRICS merges by its rule, deltas by its kind, and
// is exported exactly once by ToString() and by a live server's STATS.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/kv_store.h"
#include "server/client.h"
#include "server/server.h"

namespace costperf::core {
namespace {

// Gives every metric a distinct value through the visitor: `first`,
// first + 1, ... in declaration order, and health degraded.
KvStoreStats Distinct(uint64_t first) {
  KvStoreStats s;
  uint64_t next = first;
  s.ForEachMetric([&next](const MetricInfo&, auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, HealthStatus>) {
      v = HealthStatus::kDegraded;
    } else {
      v = next++;
    }
  });
  return s;
}

std::vector<MetricInfo> Schema() {
  std::vector<MetricInfo> out;
  KvStoreStats().ForEachMetric(
      [&out](const MetricInfo& m, const auto&) { out.push_back(m); });
  return out;
}

std::vector<uint64_t> Values(const KvStoreStats& s) {
  std::vector<uint64_t> out;
  s.ForEachMetric([&out](const MetricInfo&, const auto& v) {
    out.push_back(static_cast<uint64_t>(v));
  });
  return out;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(KvStoreStatsSchemaTest, EveryMetricIsDeclaredOnceWithUnitAndDoc) {
  const std::vector<MetricInfo> schema = Schema();
  EXPECT_EQ(schema.size(), KvStoreStats::kMetricCount);
  std::set<std::string> names;
  for (const MetricInfo& m : schema) {
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    EXPECT_NE(std::string(m.unit), "") << m.name;
    EXPECT_NE(std::string(m.doc), "") << m.name;
    // Only health merges by worst-of; everything else sums.
    EXPECT_EQ(m.merge == MetricMerge::kWorst, std::string(m.name) == "health")
        << m.name;
  }
  // The distinct fill reached every member (no two share a value).
  const std::vector<uint64_t> v = Values(Distinct(100));
  EXPECT_EQ(std::set<uint64_t>(v.begin(), v.end()).size(), v.size());
}

TEST(KvStoreStatsSchemaTest, MergeSumsEveryMetricAndTakesWorstHealth) {
  KvStoreStats a = Distinct(100);
  a.health = HealthStatus::kHealthy;
  const KvStoreStats b = Distinct(10'000);
  KvStoreStats sum = a;
  sum += b;
  const std::vector<MetricInfo> schema = Schema();
  const std::vector<uint64_t> va = Values(a), vb = Values(b), vs = Values(sum);
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].merge == MetricMerge::kSum) {
      EXPECT_EQ(vs[i], va[i] + vb[i]) << schema[i].name;
    } else {
      EXPECT_EQ(vs[i], std::max(va[i], vb[i])) << schema[i].name;
    }
  }
  EXPECT_EQ(sum.health, HealthStatus::kDegraded);
  // Worst-of does not depend on which side is degraded.
  KvStoreStats reverse = b;
  reverse += a;
  EXPECT_EQ(reverse.health, HealthStatus::kDegraded);
  KvStoreStats healthy;
  healthy += a;
  EXPECT_EQ(healthy.health, HealthStatus::kHealthy);
}

TEST(KvStoreStatsSchemaTest, DeltaSubtractsCountersAndKeepsGauges) {
  const KvStoreStats before = Distinct(100);
  const KvStoreStats after = Distinct(10'000);
  const KvStoreStats d = KvStoreStats::Delta(before, after);
  const std::vector<MetricInfo> schema = Schema();
  const std::vector<uint64_t> vb = Values(before), va = Values(after),
                              vd = Values(d);
  size_t counters = 0, gauges = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].kind == MetricKind::kCounter) {
      ++counters;
      EXPECT_EQ(vd[i], va[i] - vb[i]) << schema[i].name;
    } else {
      ++gauges;
      EXPECT_EQ(vd[i], va[i]) << schema[i].name;
    }
  }
  EXPECT_GT(counters, 0u);
  EXPECT_GT(gauges, 0u);
}

TEST(KvStoreStatsSchemaTest, ToStringNamesEveryMetricOnce) {
  const KvStoreStats s = Distinct(100);
  // Newlines separate groups; flatten so every value ends in a space.
  std::string text = s.ToString() + " ";
  std::replace(text.begin(), text.end(), '\n', ' ');
  s.ForEachMetric([&text](const MetricInfo& m, const auto& v) {
    EXPECT_EQ(CountOccurrences(text, " " + std::string(m.name) + "="), 1u)
        << m.name;
    if constexpr (!std::is_same_v<std::decay_t<decltype(v)>, HealthStatus>) {
      EXPECT_NE(text.find(" " + std::string(m.name) + "=" +
                          std::to_string(v) + " "),
                std::string::npos)
          << m.name;
    }
  });
  s.ForEachDerivedMetric([&text](const DerivedMetricInfo& m, double) {
    EXPECT_EQ(CountOccurrences(text, " " + std::string(m.name) + "="), 1u)
        << m.name;
  });
  EXPECT_NE(text.find(" health=degraded"), std::string::npos);
}

// A store whose Stats() is a fixed snapshot; it holds no data.
class FixedStatsStore : public KvStore {
 public:
  explicit FixedStatsStore(KvStoreStats stats) : stats_(stats) {}
  Status Put(const Slice&, const Slice&) override { return Status::Ok(); }
  Result<std::string> Get(const Slice&) override {
    return Status::NotFound("empty");
  }
  Status Delete(const Slice&) override { return Status::Ok(); }
  Status Scan(const Slice&, size_t,
              std::vector<std::pair<std::string, std::string>>*) override {
    return Status::Ok();
  }
  uint64_t MemoryFootprintBytes() const override { return 0; }
  KvStoreStats Stats() const override { return stats_; }

 private:
  KvStoreStats stats_;
};

TEST(KvStoreStatsSchemaTest, ServerStatsExportsEveryMetricOnce) {
  const KvStoreStats expected = Distinct(100);
  FixedStatsStore store(expected);
  server::ServerOptions opts;
  opts.io_threads = 1;
  server::Server srv(&store, opts);
  ASSERT_TRUE(srv.Start().ok());

  server::SyncClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  client.QueueStats();
  ASSERT_TRUE(client.Flush().ok());
  server::SyncClient::Response r;
  ASSERT_TRUE(client.ReadResponse(&r).ok());
  ASSERT_FALSE(r.is_error()) << r.text;
  const std::string text = "\n" + r.text;
  srv.Stop();

  expected.ForEachMetric([&text](const MetricInfo& m, const auto& v) {
    const std::string key = "\nstore." + std::string(m.name) + "=";
    EXPECT_EQ(CountOccurrences(text, key), 1u) << m.name;
    EXPECT_NE(text.find(key + std::to_string(static_cast<uint64_t>(v)) + "\n"),
              std::string::npos)
        << m.name;
  });
  // The pre-schema key stays for existing STATS readers.
  EXPECT_NE(text.find("\nstore.health_degraded=1\n"), std::string::npos);
}

}  // namespace
}  // namespace costperf::core
