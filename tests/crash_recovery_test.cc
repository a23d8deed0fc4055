#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "core/caching_store.h"
#include "fault/fault_injector.h"

namespace costperf {
namespace {

// Crash-recovery torture: run a random workload, checkpoint, crash the
// device at a random write with a random torn fraction, reboot, recover,
// and verify the durability contract against a shadow model:
//
//   - zero invariant-checker violations after recovery,
//   - every key present at the last successful Checkpoint() is readable
//     and returns its checkpoint value or a post-checkpoint value,
//   - NotFound only for keys never checkpointed or deleted after the
//     checkpoint,
//   - values are never garbage (only values the workload actually wrote).
//
// Every iteration derives from one printed base seed, so any failure
// reproduces exactly. COSTPERF_TORTURE_ITERS overrides the crash-point
// count (the asan lane in scripts/check.sh runs a reduced loop; the
// default exercises >= 200 seeded crash points).

int TortureIters() {
  const char* env = std::getenv("COSTPERF_TORTURE_ITERS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

struct Accept {
  std::set<std::string> values;
  bool not_found_ok = false;
};

TEST(CrashRecoveryTortureTest, RandomCrashPointsNeverLoseCheckpointedData) {
  const uint64_t base_seed = 0xc4a55eedull;
  const int iters = TortureIters();
  printf("torture: %d crash points, base seed %llu\n", iters,
         (unsigned long long)base_seed);
  int crashes_fired = 0;
  int salvages = 0;
  uint64_t total_demotions = 0;

  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = Hash64(base_seed + static_cast<uint64_t>(iter));
    SCOPED_TRACE("iter " + std::to_string(iter) + " seed " +
                 std::to_string(seed));
    Random rng(seed);

    storage::SsdOptions dev_opts;
    dev_opts.capacity_bytes = 16ull << 20;
    dev_opts.max_iops = 0;
    auto device = std::make_unique<storage::SsdDevice>(dev_opts);
    fault::FaultInjector fi(seed ^ 0x5a5a5a5aull);
    fi.Attach(device.get());

    core::CachingStoreOptions opts;
    opts.external_device = device.get();
    opts.memory_budget_bytes = 0;  // no eviction churn; crash is the fault
    opts.log.segment_bytes = 32 << 10;  // frequent device writes
    opts.tree.max_page_bytes = 4 << 10;
    opts.tree.io_retry.max_attempts = 1;  // crash errors are not transient
    opts.degrade_after_write_failures = 0;
    // CSS tier armed with a zero idle floor: every Maintain() demotes a
    // batch of pages compressed, so seeded crash points regularly land
    // mid-compressed-record. Recovery must stay lossless through both
    // record forms.
    opts.tier.css_budget_bytes = 4ull << 20;
    opts.tier.demote_idle_seconds = 0.0;

    std::map<std::string, std::string> shadow;
    auto key_of = [&rng]() { return "key" + std::to_string(rng.Uniform(400)); };
    uint64_t value_counter = 0;
    auto next_value = [&](const std::string& key) {
      return key + ":" + std::to_string(value_counter++);
    };

    std::map<std::string, std::string> committed;
    std::map<std::string, Accept> accept;
    {
      auto store = std::make_unique<core::CachingStore>(opts);

      // Phase 1: healthy workload, then a checkpoint that must succeed.
      const int phase1_ops = 100 + static_cast<int>(rng.Uniform(400));
      for (int op = 0; op < phase1_ops; ++op) {
        std::string key = key_of();
        if (rng.Bernoulli(0.8)) {
          std::string val = next_value(key);
          ASSERT_TRUE(store->Put(key, val).ok());
          shadow[key] = val;
        } else {
          ASSERT_TRUE(store->Delete(key).ok());
          shadow.erase(key);
        }
      }
      ASSERT_TRUE(store->Checkpoint().ok());
      committed = shadow;
      for (const auto& [k, v] : committed) accept[k].values.insert(v);

      // Phase 2: arm the crash, keep working until the device dies.
      // Periodic checkpoints drive device writes (the budget is unbounded,
      // so plain puts stay memory-only) until the scheduled crash fires —
      // usually mid-flush, tearing a segment write.
      fi.ScheduleCrash(/*writes=*/rng.Uniform(6),
                       /*torn_fraction=*/rng.NextDouble());
      for (int op = 0; op < 4000 && !fi.crashed(); ++op) {
        std::string key = key_of();
        Accept& a = accept[key];
        if (committed.count(key) == 0) a.not_found_ok = true;
        if (rng.Bernoulli(0.8)) {
          std::string val = next_value(key);
          // Applied or not (the crash may interrupt it), the value is now
          // a legal post-recovery answer; the checkpoint value stays one.
          a.values.insert(val);
          (void)store->Put(key, val);
        } else {
          // A post-checkpoint delete may or may not be durable, and the
          // durability contract allows it to resurface as the checkpoint
          // value — so NotFound and every older accepted value stay legal.
          a.not_found_ok = true;
          (void)store->Delete(key);
        }
        if (op % 16 == 7) store->Maintain();  // drives CSS demotions
        if (op % 16 == 15) (void)store->Checkpoint();
      }
      if (fi.crashed()) ++crashes_fired;
      total_demotions += store->Stats().tier_demotions;
      // The store dies with the machine; nothing else reaches media.
    }

    // Phase 3: reboot onto healthy media and recover.
    fi.ClearCrash();
    auto store = std::make_unique<core::CachingStore>(opts);
    uint64_t salvages_before = store->tree()->stats().salvage_recoveries;
    Status rs = store->Recover();
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    if (store->tree()->stats().salvage_recoveries > salvages_before) {
      ++salvages;
    }

    auto violations = store->CheckInvariants();
    ASSERT_TRUE(violations.empty())
        << violations.size() << " violations; first: "
        << violations[0].ToString();

    // Verify the durability contract for every key the workload touched.
    for (const auto& [key, a] : accept) {
      auto r = store->Get(key);
      if (r.status().IsNotFound()) {
        ASSERT_TRUE(a.not_found_ok)
            << key << " lost: present at checkpoint, never deleted after";
        continue;
      }
      ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
      ASSERT_TRUE(a.values.count(*r))
          << key << " returned a value the workload never wrote (or one "
          << "older than the checkpoint): " << *r;
    }

    // The recovered store must be fully writable again.
    ASSERT_TRUE(store->Put("post-recovery-probe", "alive").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(*store->Get("post-recovery-probe"), "alive");
  }

  printf("torture: %d/%d crash points fired, %d salvage recoveries, "
         "%llu CSS demotions\n",
         crashes_fired, iters, salvages,
         (unsigned long long)total_demotions);
  // The plan must actually bite: most iterations reach their crash point,
  // and the compressed tier is live enough that crash points land among
  // compressed records too.
  EXPECT_GT(crashes_fired, iters / 4);
  EXPECT_GT(total_demotions, 0u);
}

// Same durability contract, but with background maintenance active and a
// memory budget small enough that scheduler workers are continuously
// evicting, flushing, and log-collecting while the crash fires — so the
// device regularly dies mid-background-GC/flush, on a thread the
// foreground never sees. Recovery must still satisfy the contract and
// the invariant checkers.
TEST(CrashRecoveryTortureTest, CrashMidBackgroundMaintenanceRecovers) {
  const uint64_t base_seed = 0xbadc0ffeull;
  const int iters = std::max(TortureIters() / 4, 10);
  printf("bg torture: %d crash points, base seed %llu\n", iters,
         (unsigned long long)base_seed);
  int crashes_fired = 0;
  uint64_t total_demotions = 0;

  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t seed = Hash64(base_seed + static_cast<uint64_t>(iter));
    SCOPED_TRACE("iter " + std::to_string(iter) + " seed " +
                 std::to_string(seed));
    Random rng(seed);

    storage::SsdOptions dev_opts;
    dev_opts.capacity_bytes = 16ull << 20;
    dev_opts.max_iops = 0;
    auto device = std::make_unique<storage::SsdDevice>(dev_opts);
    fault::FaultInjector fi(seed ^ 0xa5a5a5a5ull);
    fi.Attach(device.get());

    core::CachingStoreOptions opts;
    opts.external_device = device.get();
    opts.memory_budget_bytes = 64 << 10;  // constant eviction pressure
    opts.log.segment_bytes = 32 << 10;
    opts.tree.max_page_bytes = 4 << 10;
    opts.tree.io_retry.max_attempts = 1;
    opts.degrade_after_write_failures = 0;
    opts.background.workers = 1;
    opts.background.log_dead_trigger = 0.2;  // aggressive background GC
    // Short stall bound: post-crash evictions all fail, so backpressure
    // must not turn the remaining (unstallable) debt into long waits.
    opts.background.stall_max_wait_micros = 2000;
    // Zero idle floor: background eviction demotes its victims to the
    // compressed tier until the CSS budget fills, so the crash also
    // lands mid-compressed-record on scheduler threads.
    opts.tier.css_budget_bytes = 1ull << 20;
    opts.tier.demote_idle_seconds = 0.0;

    std::map<std::string, std::string> shadow;
    auto key_of = [&rng]() { return "key" + std::to_string(rng.Uniform(300)); };
    uint64_t value_counter = 0;
    auto next_value = [&](const std::string& key) {
      return key + ":" + std::to_string(value_counter++);
    };

    std::map<std::string, std::string> committed;
    std::map<std::string, Accept> accept;
    {
      auto store = std::make_unique<core::CachingStore>(opts);
      std::string value_pad(256, 'p');

      // Phase 1: healthy workload with enough churn that background
      // eviction and GC are active, then a checkpoint that must succeed.
      const int phase1_ops = 200 + static_cast<int>(rng.Uniform(600));
      for (int op = 0; op < phase1_ops; ++op) {
        std::string key = key_of();
        std::string val = next_value(key) + value_pad;
        ASSERT_TRUE(store->Put(key, val).ok());
        shadow[key] = val;
      }
      // Background flush/GC can race the checkpoint on the healthy
      // device; drain workers first so the checkpoint is a stable line.
      store->maintenance_scheduler()->Quiesce();
      ASSERT_TRUE(store->Checkpoint().ok());
      committed = shadow;
      for (const auto& [k, v] : committed) accept[k].values.insert(v);

      // Phase 2: arm the crash and keep writing. With the tiny budget,
      // most device writes come from scheduler workers (evict flushes,
      // GC relocations), so the crash usually lands mid-background-step.
      fi.ScheduleCrash(/*writes=*/rng.Uniform(12),
                       /*torn_fraction=*/rng.NextDouble());
      for (int op = 0; op < 3000 && !fi.crashed(); ++op) {
        std::string key = key_of();
        Accept& a = accept[key];
        if (committed.count(key) == 0) a.not_found_ok = true;
        std::string val = next_value(key) + value_pad;
        a.values.insert(val);
        (void)store->Put(key, val);
      }
      if (fi.crashed()) ++crashes_fired;
      total_demotions += store->Stats().tier_demotions;
      // Store destruction deregisters from the scheduler, waiting out
      // any step that is mid-GC on the now-dead device.
    }

    // Phase 3: reboot onto healthy media, recover without background
    // workers (recovery is single-threaded by contract).
    fi.ClearCrash();
    core::CachingStoreOptions recover_opts = opts;
    recover_opts.background = {};
    auto store = std::make_unique<core::CachingStore>(recover_opts);
    Status rs = store->Recover();
    ASSERT_TRUE(rs.ok()) << rs.ToString();

    auto violations = store->CheckInvariants();
    ASSERT_TRUE(violations.empty())
        << violations.size() << " violations; first: "
        << violations[0].ToString();

    for (const auto& [key, a] : accept) {
      auto r = store->Get(key);
      if (r.status().IsNotFound()) {
        ASSERT_TRUE(a.not_found_ok)
            << key << " lost: present at checkpoint, never deleted after";
        continue;
      }
      ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
      ASSERT_TRUE(a.values.count(*r))
          << key << " returned a value the workload never wrote (or one "
          << "older than the checkpoint): " << *r;
    }

    ASSERT_TRUE(store->Put("post-recovery-probe", "alive").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(*store->Get("post-recovery-probe"), "alive");
  }

  printf("bg torture: %d/%d crash points fired, %llu CSS demotions\n",
         crashes_fired, iters, (unsigned long long)total_demotions);
  EXPECT_GT(crashes_fired, iters / 4);
  EXPECT_GT(total_demotions, 0u);
}

}  // namespace
}  // namespace costperf
