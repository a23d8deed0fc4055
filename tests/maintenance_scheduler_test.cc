#include "maintenance/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/caching_store.h"
#include "core/sharded_store.h"
#include "workload/runner.h"

namespace costperf {
namespace {

using maintenance::BackgroundMaintainer;
using maintenance::MaintenanceQuota;
using maintenance::MaintenanceScheduler;

// Spin-waits (with sleeps) for cond() to hold; generous bound so slow
// sanitizer lanes don't flake.
template <typename Cond>
bool WaitFor(Cond cond, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class CountingMaintainer : public BackgroundMaintainer {
 public:
  // Returns true ("more work") while steps taken < more_until.
  explicit CountingMaintainer(int more_until = 0)
      : more_until_(more_until) {}

  bool MaintenanceStep(const MaintenanceQuota&) override {
    const int n = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    return n < more_until_;
  }

  int steps() const { return steps_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> steps_{0};
  const int more_until_;
};

// Blocks inside MaintenanceStep until Release() so tests can observe
// in-flight-step behavior (Deregister/Quiesce races).
class BlockingMaintainer : public BackgroundMaintainer {
 public:
  bool MaintenanceStep(const MaintenanceQuota&) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    steps_++;
    return false;
  }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int steps() {
    std::unique_lock<std::mutex> lock(mu_);
    return steps_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  int steps_ = 0;
};

TEST(MaintenanceSchedulerTest, SignalDrivesStepAndQuiesceDrains) {
  MaintenanceScheduler sched;
  CountingMaintainer m;
  auto h = sched.Register(&m);
  sched.Signal(h);
  sched.Quiesce();
  EXPECT_GE(m.steps(), 1);
  sched.Deregister(h);
}

TEST(MaintenanceSchedulerTest, CoalescesBurstsToFewSteps) {
  MaintenanceScheduler sched;
  BlockingMaintainer m;
  auto h = sched.Register(&m);
  sched.Signal(h);
  m.AwaitEntered();
  // The worker is mid-step: these all land on the pending flag and must
  // collapse into at most one follow-up step.
  for (int i = 0; i < 1000; ++i) sched.Signal(h);
  m.Release();
  sched.Quiesce();
  EXPECT_LE(m.steps(), 2);
  const auto stats = sched.stats();
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(stats.steps, static_cast<uint64_t>(m.steps()));
  sched.Deregister(h);
}

TEST(MaintenanceSchedulerTest, RequeuesWhileStepReportsMoreWork) {
  MaintenanceScheduler sched;
  CountingMaintainer m(/*more_until=*/7);
  auto h = sched.Register(&m);
  sched.Signal(h);  // one signal; the requeue path does the rest
  sched.Quiesce();
  EXPECT_EQ(m.steps(), 7);
  EXPECT_EQ(sched.stats().requeues, 6u);
  sched.Deregister(h);
}

TEST(MaintenanceSchedulerTest, DeregisterWaitsForInflightStep) {
  MaintenanceScheduler sched;
  BlockingMaintainer m;
  auto h = sched.Register(&m);
  sched.Signal(h);
  m.AwaitEntered();

  std::atomic<bool> deregistered{false};
  std::thread t([&] {
    sched.Deregister(h);
    deregistered.store(true, std::memory_order_release);
  });
  // Deregister must block while the step is inside the maintainer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(deregistered.load(std::memory_order_acquire));
  m.Release();
  t.join();
  EXPECT_TRUE(deregistered.load(std::memory_order_acquire));
  // A late signal on a tombstoned handle must be a safe no-op (and must
  // not wedge Quiesce on an unclaimable pending flag).
  sched.Signal(h);
  sched.Quiesce();
  EXPECT_EQ(m.steps(), 1);
}

TEST(MaintenanceSchedulerTest, QuiesceWaitsForInflightStep) {
  MaintenanceScheduler sched;
  BlockingMaintainer m;
  auto h = sched.Register(&m);
  sched.Signal(h);
  m.AwaitEntered();

  std::atomic<bool> quiesced{false};
  std::thread t([&] {
    sched.Quiesce();
    quiesced.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(quiesced.load(std::memory_order_acquire));
  m.Release();
  t.join();
  EXPECT_TRUE(quiesced.load(std::memory_order_acquire));
  sched.Deregister(h);
}

TEST(MaintenanceSchedulerTest, StopJoinsWorkersAndDropsQueuedWork) {
  auto sched = std::make_unique<MaintenanceScheduler>();
  CountingMaintainer m;
  auto h = sched->Register(&m);
  sched->Signal(h);
  sched->Stop();
  sched->Stop();  // idempotent
  sched->Signal(h);  // no-op after Stop
  sched->Quiesce();  // returns immediately after Stop
  sched.reset();
}

TEST(MaintenanceSchedulerTest, MultipleWorkersShareSources) {
  MaintenanceScheduler::Options opts;
  opts.workers = 4;
  MaintenanceScheduler sched(opts);
  CountingMaintainer a(3), b(3), c(3);
  auto ha = sched.Register(&a);
  auto hb = sched.Register(&b);
  auto hc = sched.Register(&c);
  sched.Signal(ha);
  sched.Signal(hb);
  sched.Signal(hc);
  sched.Quiesce();
  EXPECT_EQ(a.steps() + b.steps() + c.steps(), 9);
  sched.Deregister(ha);
  sched.Deregister(hb);
  sched.Deregister(hc);
}

// ---- CachingStore integration -------------------------------------------

core::CachingStoreOptions SmallBudgetOptions() {
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 256 << 10;
  opts.tree.max_page_bytes = 4 << 10;
  opts.log.segment_bytes = 64 << 10;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  return opts;
}

TEST(BackgroundMaintenanceTest, EvictsToBudgetWithZeroForegroundOps) {
  auto opts = SmallBudgetOptions();
  opts.background.workers = 1;
  core::CachingStore store(opts);
  ASSERT_NE(store.maintenance_scheduler(), nullptr);

  const std::string value(512, 'v');
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(i), value).ok());
  }
  // Background eviction must bring the resident set back to budget
  // without any foreground thread running maintenance. The Gets keep the
  // op path signalling pressure while we wait.
  ASSERT_TRUE(WaitFor([&] {
    for (int i = 0; i < 64; ++i) (void)store.Get("key0");
    return store.cache()->resident_bytes() <= opts.memory_budget_bytes;
  })) << "resident=" << store.cache()->resident_bytes();
  store.maintenance_scheduler()->Quiesce();

  const auto stats = store.Stats();
  EXPECT_EQ(stats.foreground_maintenance_ops, 0u);
  EXPECT_GT(stats.background_maintenance_steps, 0u);
  EXPECT_GT(stats.background_pages_evicted, 0u);

  // Data survives eviction.
  EXPECT_EQ(*store.Get("key0"), value);
  EXPECT_EQ(*store.Get("key3999"), value);
}

TEST(BackgroundMaintenanceTest, GcTriggersOnDeadSpaceFraction) {
  auto opts = SmallBudgetOptions();
  opts.memory_budget_bytes = 128 << 10;  // eviction keeps flash churning
  opts.background.workers = 1;
  opts.background.log_dead_trigger = 0.3;
  core::CachingStore store(opts);

  const std::string value(512, 'v');
  // Overwrite a small key set many times: each eviction/flush rewrites
  // pages, deadening the previous flash images.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store.Put("key" + std::to_string(i), value).ok());
    }
  }
  store.maintenance_scheduler()->Quiesce();
  const auto stats = store.Stats();
  EXPECT_EQ(stats.foreground_maintenance_ops, 0u);
  if (stats.background_gc_segments > 0) {
    // GC ran in the background; dead space must not still be saturated.
    EXPECT_LT(store.log_store()->DeadSpaceFraction(), 0.95);
  }
  // Either way the data is intact.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store.Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST(BackgroundMaintenanceTest, WriteBackpressureStallsAndReleases) {
  auto opts = SmallBudgetOptions();
  opts.memory_budget_bytes = 64 << 10;
  opts.background.workers = 1;
  // One page per step: the worker cannot keep up with the burst, so the
  // stall budget is guaranteed to engage.
  opts.background.quota.evict_pages = 1;
  opts.background.stall_trigger = 1.0;  // stall as soon as budget exceeded
  opts.background.stall_max_wait_micros = 2000;
  core::CachingStore store(opts);

  const std::string value(1024, 'v');
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(i), value).ok());
  }
  store.maintenance_scheduler()->Quiesce();
  const auto stats = store.Stats();
  // The write burst outpaces one worker: stalls must have engaged, and
  // every stalled write still completed (bounded waits, no deadlock).
  EXPECT_GT(stats.write_stalls, 0u);
  EXPECT_GT(stats.stall_micros_total, 0u);
  EXPECT_EQ(stats.foreground_maintenance_ops, 0u);
  EXPECT_EQ(*store.Get("key2999"), value);
}

TEST(BackgroundMaintenanceTest, ExternalSchedulerSharedAcrossStores) {
  MaintenanceScheduler sched;
  auto opts = SmallBudgetOptions();
  opts.background.scheduler = &sched;
  {
    core::CachingStore a(opts);
    core::CachingStore b(opts);
    EXPECT_EQ(a.maintenance_scheduler(), &sched);
    EXPECT_EQ(b.maintenance_scheduler(), &sched);
    const std::string value(512, 'v');
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(a.Put("a" + std::to_string(i), value).ok());
      ASSERT_TRUE(b.Put("b" + std::to_string(i), value).ok());
    }
    sched.Quiesce();
    // Stores deregister on destruction here, while sched outlives them.
  }
  SUCCEED();
}

TEST(BackgroundMaintenanceTest, ShardedStoreOwnsOneSharedScheduler) {
  auto opts = SmallBudgetOptions();
  opts.background.workers = 2;
  auto store = core::ShardedStore::OfCaching(4, opts);
  ASSERT_NE(store->maintenance_scheduler(), nullptr);
  // Every shard registered with the composite's scheduler, not a
  // private one.
  for (size_t i = 0; i < store->shard_count(); ++i) {
    auto* shard = static_cast<core::CachingStore*>(store->shard(i));
    EXPECT_EQ(shard->maintenance_scheduler(), store->maintenance_scheduler());
  }

  workload::WorkloadSpec spec = workload::WorkloadSpec::YcsbA(2000);
  spec.record_count = 2000;
  spec.value_size = 256;
  workload::RunnerOptions ropts;
  ropts.threads = 4;
  ropts.ops_per_thread = 2000;
  workload::Runner runner(store.get(), spec, ropts);
  auto report = runner.LoadAndRun();
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.store.foreground_maintenance_ops, 0u);
  store->maintenance_scheduler()->Quiesce();
  EXPECT_EQ(store->Stats().foreground_maintenance_ops, 0u);
}

TEST(BackgroundMaintenanceTest, InlineModeStillMaintainsAndCountsOps) {
  auto opts = SmallBudgetOptions();
  // Deprecated alias path: a non-power-of-two interval must still pace
  // inline maintenance through the modulo branch.
  opts.maintenance_interval_ops = 100;
  core::CachingStore store(opts);
  EXPECT_EQ(store.maintenance_scheduler(), nullptr);

  const std::string value(512, 'v');
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(i), value).ok());
  }
  const auto stats = store.Stats();
  EXPECT_GT(stats.foreground_maintenance_ops, 0u);
  EXPECT_EQ(stats.background_maintenance_steps, 0u);
  // Inline maintenance enforced the budget on the op path (a single
  // pass may leave a few unevictable victims resident, so check
  // activity, not an exact byte bound).
  EXPECT_GT(store.cache()->stats().evictions, 0u);
}

TEST(BackgroundMaintenanceTest, InlineGcKeepsDeviceOccupancyBounded) {
  // Library defaults (inline maintenance, default GC trigger) with a
  // small DRAM budget: every overwrite round evicts and rewrites pages,
  // deadening their previous flash images. Inline maintenance must
  // collect that dead space, so the media the log occupies stays bounded
  // while the log appends several times that much.
  core::CachingStoreOptions opts;
  opts.memory_budget_bytes = 256 << 10;
  core::CachingStore store(opts);
  EXPECT_EQ(store.maintenance_scheduler(), nullptr);

  constexpr uint64_t kOccupiedBound = 16ull << 20;
  constexpr uint64_t kAppendTarget = 4 * kOccupiedBound;
  const std::string value(256, 'v');
  uint64_t max_occupied = 0;
  for (int round = 0;
       round < 400 && store.log_store()->stats().bytes_appended < kAppendTarget;
       ++round) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store.Put("key" + std::to_string(i), value).ok());
    }
    max_occupied =
        std::max(max_occupied, store.device()->stats().occupied_bytes);
  }
  ASSERT_GE(store.log_store()->stats().bytes_appended, kAppendTarget)
      << "the workload must wrap the log several times";
  EXPECT_LT(max_occupied, kOccupiedBound);
  EXPECT_GT(store.Stats().background_gc_segments, 0u);
  for (int i = 0; i < 2000; i += 97) {
    auto r = store.Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, value);
  }
}

}  // namespace
}  // namespace costperf
