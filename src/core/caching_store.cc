#include "core/caching_store.h"

#include <chrono>
#include <cstdio>

#include "analysis/bwtree_validator.h"
#include "analysis/log_store_auditor.h"
#include "analysis/mapping_table_auditor.h"

namespace costperf::core {

CachingStore::CachingStore(CachingStoreOptions options)
    : options_(options) {
  if (options_.clock != nullptr) options_.device.clock = options_.clock;
  storage::SsdDevice* device = options_.external_device;
  if (device == nullptr) {
    device_ = std::make_unique<storage::SsdDevice>(options_.device);
    device = device_.get();
  }
  attached_device_ = device;
  log_ = std::make_unique<llama::LogStructuredStore>(device, options_.log);
  llama::CacheOptions cache_opts;
  cache_opts.memory_budget_bytes = options_.memory_budget_bytes == 0
                                       ? ~0ull
                                       : options_.memory_budget_bytes;
  cache_opts.policy = options_.eviction_policy;
  cache_opts.breakeven_interval_seconds =
      options_.breakeven_interval_seconds;
  cache_opts.clock = options_.clock;
  cache_opts.touch_sample = options_.cache_touch_sample;
  cache_opts.shards = options_.cache_shards;
  cache_ = std::make_unique<llama::CacheManager>(cache_opts);
  cache_->set_css_budget(options_.tier.css_budget_bytes);

  bwtree::BwTreeOptions tree_opts = options_.tree;
  tree_opts.log_store = log_.get();
  tree_opts.cache = cache_.get();
  tree_ = std::make_unique<bwtree::BwTree>(tree_opts);

  const uint64_t interval = options_.maintenance_interval_ops;
  if (interval != 0 && (interval & (interval - 1)) == 0) {
    maintenance_mask_ = interval - 1;
  }

  effective_budget_ = options_.memory_budget_bytes == 0
                          ? ~0ull
                          : options_.memory_budget_bytes;
  const auto& bg = options_.background;
  if (bg.scheduler != nullptr) {
    scheduler_ = bg.scheduler;
  } else if (bg.workers > 0) {
    maintenance::MaintenanceScheduler::Options sched_opts;
    sched_opts.workers = bg.workers;
    sched_opts.quota = bg.quota;
    owned_scheduler_ =
        std::make_unique<maintenance::MaintenanceScheduler>(sched_opts);
    scheduler_ = owned_scheduler_.get();
  }
  if (scheduler_ != nullptr) {
    if (effective_budget_ != ~0ull) {
      if (bg.cache_fill_trigger > 0) {
        fill_trigger_bytes_ = static_cast<uint64_t>(
            static_cast<double>(effective_budget_) * bg.cache_fill_trigger);
      }
      if (bg.stall_trigger > 0) {
        stall_limit_bytes_ = static_cast<uint64_t>(
            static_cast<double>(effective_budget_) * bg.stall_trigger);
      }
    }
    maint_handle_ = scheduler_->Register(this);
  }
}

CachingStore::~CachingStore() {
  // Deregister blocks until any in-flight step finishes, so no worker
  // touches tree_/log_/cache_ once member destruction begins.
  if (scheduler_ != nullptr) scheduler_->Deregister(maint_handle_);
}

Status CachingStore::Put(const Slice& key, const Slice& value) {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MaybeStallForDebt();
  Status s = tree_->Put(key, value);
  NoteWriteOutcome(s, /*reset_on_ok=*/false);
  MaybeMaintain();
  return s;
}

Result<std::string> CachingStore::Get(const Slice& key) {
  auto r = tree_->Get(key);
  MaybeMaintain();
  return r;
}

Status CachingStore::Get(const Slice& key, std::string* value_out) {
  Status s = tree_->Get(key, value_out);
  MaybeMaintain();
  return s;
}

void CachingStore::BatchGet(BatchGetOp* ops, size_t count) {
  // core::BatchGetOp and BwTree::BatchGetOp are the same shared type
  // (common/batch_op.h): the op array goes straight to the interleaved
  // probe machine, no per-op translation.
  tree_->MultiGetBatch(ops, count);
  // Same maintenance pacing as N single Gets — one counter jump, every
  // crossed boundary replayed — without N shared-atomic RMWs per batch.
  NoteBatchOps(count);
}

Status CachingStore::Delete(const Slice& key) {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MaybeStallForDebt();
  Status s = tree_->Delete(key);
  NoteWriteOutcome(s, /*reset_on_ok=*/false);
  MaybeMaintain();
  return s;
}

Status CachingStore::CheckWritable() {
  if (!degraded_.load(std::memory_order_acquire)) return Status::Ok();
  MutexLock lock(&health_mu_);
  return last_write_error_;
}

void CachingStore::NoteWriteOutcome(const Status& s, bool reset_on_ok) {
  if (options_.degrade_after_write_failures == 0) return;
  if (s.ok()) {
    // A flush-path success means the device took a write; the streak of
    // consecutive failures is over. Once degraded, only an explicit
    // ResetHealth() heals — a late success must not silently un-degrade.
    if (reset_on_ok && !degraded_.load(std::memory_order_relaxed)) {
      write_failure_streak_.store(0, std::memory_order_relaxed);
    }
    return;
  }
  // Only media write errors count. Aborted (contention), Corruption
  // (surfaced to the caller, a different failure class), etc. do not.
  if (!s.IsIoError()) return;
  uint32_t streak =
      write_failure_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= options_.degrade_after_write_failures &&
      !degraded_.exchange(true, std::memory_order_acq_rel)) {
    MutexLock lock(&health_mu_);
    last_write_error_ = s;
  }
}

HealthStatus CachingStore::health() const {
  return degraded_.load(std::memory_order_acquire) ? HealthStatus::kDegraded
                                                   : HealthStatus::kHealthy;
}

void CachingStore::ResetHealth() {
  {
    MutexLock lock(&health_mu_);
    last_write_error_ = Status::Ok();
  }
  write_failure_streak_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_release);
}

Status CachingStore::Scan(
    const Slice& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  Status s = tree_->Scan(start, limit, out);
  MaybeMaintain();
  return s;
}

void CachingStore::MaybeMaintain() {
  const uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (scheduler_ != nullptr) {
    MaybeSignalPressure(n);
    return;
  }
  if (IntervalCrossed(n)) {
    foreground_maintenance_ops_.fetch_add(1, std::memory_order_relaxed);
    Maintain();
  }
}

void CachingStore::NoteBatchOps(uint64_t count) {
  if (count == 0) return;
  const uint64_t after =
      op_counter_.fetch_add(count, std::memory_order_relaxed) + count;
  const uint64_t before = after - count;
  const uint64_t crossings = IntervalCrossings(before, after);
  if (scheduler_ != nullptr) {
    bool signal = crossings != 0;
    // Same 1-in-32 sampling as the single-op path: run the threshold
    // checks when the jump passed a multiple of 32.
    if ((before >> 5) != (after >> 5)) signal = PressureThresholds() || signal;
    if (signal) scheduler_->Signal(maint_handle_);
    return;
  }
  // Inline mode: one Maintain() per boundary crossed, the same pacing N
  // single ops would have produced.
  for (uint64_t k = 0; k < crossings; ++k) {
    foreground_maintenance_ops_.fetch_add(1, std::memory_order_relaxed);
    Maintain();
  }
}

bool CachingStore::IntervalCrossed(uint64_t n) const {
  if (maintenance_mask_ != 0) {  // power-of-two interval: no division
    return (n & maintenance_mask_) == 0;
  }
  const uint64_t interval = options_.maintenance_interval_ops;
  return interval != 0 && n % interval == 0;
}

uint64_t CachingStore::IntervalCrossings(uint64_t before, uint64_t after) const {
  const uint64_t interval = maintenance_mask_ != 0
                                ? maintenance_mask_ + 1
                                : options_.maintenance_interval_ops;
  if (interval == 0) return 0;
  return after / interval - before / interval;
}

void CachingStore::MaybeSignalPressure(uint64_t n) {
  // maintenance_interval_ops keeps its meaning as a pacing floor: even
  // without threshold pressure the store gets a step per interval (leaf
  // merging, cost-based proactive eviction).
  bool signal = IntervalCrossed(n);
  // Threshold checks every 32 ops: resident_bytes() sums the cache's
  // per-shard atomics, too heavy for every op.
  if ((n & 31) == 0) signal = PressureThresholds() || signal;
  if (signal) scheduler_->Signal(maint_handle_);
}

bool CachingStore::PressureThresholds() {
  bool signal = false;
  const uint64_t resident = cache_->resident_bytes();
  if (resident > fill_trigger_bytes_) signal = true;
  if (stall_limit_bytes_ != 0) {
    const bool over = resident > stall_limit_bytes_;
    if (over) {
      stall_flag_.store(true, std::memory_order_relaxed);
      signal = true;
    } else if (stall_flag_.exchange(false, std::memory_order_relaxed)) {
      MutexLock lock(&stall_mu_);
      stall_cv_.notify_all();
    }
  }
  if (options_.background.log_dead_trigger > 0 &&
      log_->DeadSpaceFraction() >= options_.background.log_dead_trigger) {
    signal = true;
  }
  return signal;
}

void CachingStore::MaybeStallForDebt() {
  if (!stall_flag_.load(std::memory_order_relaxed)) return;
  if (degraded_.load(std::memory_order_acquire)) return;
  // The flag is refreshed only every 32 ops; confirm the debt is real
  // before parking this writer.
  if (cache_->resident_bytes() <= stall_limit_bytes_) return;
  scheduler_->Signal(maint_handle_);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start +
      std::chrono::microseconds(options_.background.stall_max_wait_micros);
  {
    MutexLock lock(&stall_mu_);
    while (stall_flag_.load(std::memory_order_relaxed) &&
           !degraded_.load(std::memory_order_acquire)) {
      if (stall_cv_.wait_until(stall_mu_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
  }
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  write_stalls_.fetch_add(1, std::memory_order_relaxed);
  stall_micros_total_.fetch_add(static_cast<uint64_t>(waited.count()),
                                std::memory_order_relaxed);
}

bool CachingStore::MaintenanceStep(const maintenance::MaintenanceQuota& quota) {
  // An explicit Maintain()/Checkpoint caller may hold the gate; retry
  // the step rather than waiting on a worker thread.
  if (!maintenance_mu_.TryLock()) return true;
  background_steps_.fetch_add(1, std::memory_order_relaxed);
  bool more = false;
  if (degraded_.load(std::memory_order_acquire)) {
    // No flash writes into failing media; epoch reclamation is pure
    // memory and still safe.
    tree_->ReclaimMemory();
  } else {
    more |= BackgroundEvictStep(quota);
    more |= BackgroundTierStep(quota);
    more |= BackgroundGcStep(quota);
    BackgroundHousekeepingStep(quota);
    tree_->ReclaimMemory();
  }
  maintenance_mu_.Unlock();
  ReleaseStallWaiters();
  return more;
}

bool CachingStore::BackgroundEvictStep(
    const maintenance::MaintenanceQuota& quota) {
  const uint64_t resident = cache_->resident_bytes();
  const uint64_t want =
      resident > effective_budget_ ? resident - effective_budget_ : 0;
  if (want == 0 &&
      options_.eviction_policy != llama::EvictionPolicy::kCostBased) {
    return false;
  }
  auto victims = cache_->PickVictims(want, quota.evict_pages);
  bool progressed = false;
  uint32_t demoted = 0;
  for (auto pid : victims) {
    // Demote-before-evict: a cold victim goes to the compressed tier
    // when the policy says it pays; demotion IS its eviction (one CAS
    // moved the page out of DRAM), so plain eviction is skipped.
    if (demoted < quota.compress_pages && TryDemote(pid)) {
      ++demoted;
      progressed = true;
      if (degraded_.load(std::memory_order_acquire)) return false;
      continue;
    }
    Status s = tree_->EvictPage(pid, options_.evict_mode);
    NoteWriteOutcome(s, /*reset_on_ok=*/true);
    if (s.ok()) {
      progressed = true;
      bg_pages_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    if (degraded_.load(std::memory_order_acquire)) return false;
  }
  // Requeue only when this step evicted something AND the debt remains:
  // a step that made no progress (all victims pinned/aborted) must not
  // spin the worker — the next op-path signal retries it.
  return progressed && cache_->resident_bytes() > effective_budget_;
}

bool CachingStore::TryDemote(mapping::PageId pid) {
  const auto& tier = options_.tier;
  if (tier.css_budget_bytes == 0) return false;
  if (cache_->GetTier(pid) != llama::CacheTier::kDram) return false;
  const double idle = cache_->IdleSeconds(pid);
  if (idle < tier.demote_idle_seconds) return false;
  if (cache_->css_resident_bytes() >= tier.css_budget_bytes) return false;
  bwtree::CssPolicy policy;
  policy.min_ratio = tier.min_ratio;
  policy.max_reheats = tier.max_reheats;
  bwtree::DemoteResult res;
  Status s = tree_->DemotePage(pid, policy, &res);
  NoteWriteOutcome(s, /*reset_on_ok=*/res.demoted);
  if (s.ok() && res.demoted) {
    bg_pages_demoted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Refused (FailedPrecondition), raced (Aborted), or failed: the caller
  // falls back to plain eviction for this victim.
  return false;
}

bool CachingStore::BackgroundTierStep(
    const maintenance::MaintenanceQuota& quota) {
  const auto& tier = options_.tier;
  if (tier.css_budget_bytes == 0) return false;

  // Proactive demotion, independent of memory pressure: DRAM rental on a
  // page idle past the demotion floor is already a loss (§4.2), and the
  // compressed record shrinks its media footprint on top (Fig. 8).
  for (auto pid : cache_->PickDemotionCandidates(quota.compress_pages,
                                                 tier.demote_idle_seconds)) {
    if (cache_->css_resident_bytes() >= tier.css_budget_bytes) break;
    TryDemote(pid);
    if (degraded_.load(std::memory_order_acquire)) return false;
  }

  // CSS overflow: the coldest compressed pages fall through to plain SS.
  // Their durable record already exists — dropping the cache entry is
  // the entire eviction (the mapping word is already a flash address).
  bool more = false;
  const uint64_t css = cache_->css_resident_bytes();
  if (css > tier.css_budget_bytes) {
    for (auto pid : cache_->PickCssVictims(css - tier.css_budget_bytes,
                                           quota.evict_pages)) {
      cache_->Erase(pid);
      bg_css_fallthroughs_.fetch_add(1, std::memory_order_relaxed);
    }
    more = cache_->css_resident_bytes() > tier.css_budget_bytes;
  }

  // Background promotion: while DRAM has clear headroom, pay the
  // decompression for the hottest CSS pages ahead of demand.
  if (tier.promote_fill_floor > 0 && effective_budget_ != ~0ull) {
    const uint64_t floor_bytes = static_cast<uint64_t>(
        static_cast<double>(effective_budget_) * tier.promote_fill_floor);
    if (cache_->resident_bytes() < floor_bytes) {
      for (auto pid : cache_->PickPromotionCandidates(quota.promote_pages)) {
        if (tree_->LoadPage(pid).ok()) {
          bg_pages_promoted_.fetch_add(1, std::memory_order_relaxed);
        }
        if (cache_->resident_bytes() >= floor_bytes) break;
      }
    }
  }
  return more;
}

bool CachingStore::BackgroundGcStep(
    const maintenance::MaintenanceQuota& quota) {
  // The one GC policy of both maintenance modes: the dead-space trigger
  // decides when to collect, and any sealed segment up to 90% live is a
  // victim.
  constexpr double kGcVictimMaxLive = 0.9;
  const double trigger = options_.background.log_dead_trigger;
  if (trigger <= 0) return false;
  for (uint32_t i = 0; i < quota.gc_segments; ++i) {
    if (log_->DeadSpaceFraction() < trigger) return false;
    Status s = CollectOneSegment(kGcVictimMaxLive);
    // NotFound: dead space is spread across segments above the victim
    // threshold — nothing eligible, stop rather than respin.
    if (!s.ok()) {
      if (s.IsIoError()) NoteWriteOutcome(s, /*reset_on_ok=*/false);
      return false;
    }
    bg_gc_segments_.fetch_add(1, std::memory_order_relaxed);
  }
  return log_->DeadSpaceFraction() >= trigger;
}

void CachingStore::BackgroundHousekeepingStep(
    const maintenance::MaintenanceQuota& quota) {
  auto hk = tree_->HousekeepingScan(&housekeeping_cursor_,
                                    quota.consolidate_scan_pages,
                                    quota.flush_dirty_leaves,
                                    options_.flush_mode);
  bg_consolidations_.fetch_add(hk.consolidated, std::memory_order_relaxed);
  bg_leaf_flushes_.fetch_add(hk.flushed, std::memory_order_relaxed);
  if (hk.flush_error) NoteWriteOutcome(hk.first_error, /*reset_on_ok=*/false);
  if (options_.merge_fill_target > 0) {
    tree_->MergeUnderfullLeaves(options_.merge_fill_target);
  }
}

void CachingStore::ReleaseStallWaiters() {
  if (stall_limit_bytes_ == 0) return;
  if (cache_->resident_bytes() > stall_limit_bytes_) return;
  stall_flag_.store(false, std::memory_order_relaxed);
  // Lock/notify under stall_mu_ so a writer that just observed the flag
  // set cannot park between our store and the notify.
  MutexLock lock(&stall_mu_);
  stall_cv_.notify_all();
}

void CachingStore::EnforceBudget() {
  // Cost-based policy evicts past-breakeven pages even under budget
  // (their DRAM rental no longer pays for itself); all policies evict to
  // budget.
  uint64_t want = 0;
  uint64_t resident = cache_->resident_bytes();
  if (resident > effective_budget_) want = resident - effective_budget_;
  if (want != 0 ||
      options_.eviction_policy == llama::EvictionPolicy::kCostBased) {
    auto victims = cache_->PickVictims(want);
    for (auto pid : victims) {
      // Demote-before-evict: a cold victim whose measured economics pay
      // moves to the compressed tier (its demotion IS its eviction); the
      // rest take the plain SS path.
      if (TryDemote(pid)) continue;
      NoteWriteOutcome(tree_->EvictPage(pid, options_.evict_mode),
                       /*reset_on_ok=*/true);
      if (degraded_.load(std::memory_order_acquire)) return;
    }
  }
  // Inline tier upkeep for stores running without the background
  // scheduler: the same proactive-demotion and overflow passes
  // BackgroundTierStep runs, under the default per-step quota. Runs even
  // under budget — demotion is about idle pages' rent, not memory debt.
  if (options_.tier.css_budget_bytes != 0) {
    (void)BackgroundTierStep(maintenance::MaintenanceQuota{});
  }
}

void CachingStore::Maintain() {
  // Try-lock: if another thread is already inside maintenance, skip this
  // round rather than stacking a second eviction/GC pass on top of it.
  if (!maintenance_mu_.TryLock()) return;
  // While degraded, skip everything that issues flash writes — flushing
  // into a failing device would only spin the failure streak; reclaiming
  // epochs is still safe (pure memory).
  if (degraded_.load(std::memory_order_acquire)) {
    tree_->ReclaimMemory();
    maintenance_mu_.Unlock();
    return;
  }
  EnforceBudget();
  if (options_.merge_fill_target > 0) {
    tree_->MergeUnderfullLeaves(options_.merge_fill_target);
  }
  (void)BackgroundGcStep(maintenance::MaintenanceQuota{});
  tree_->ReclaimMemory();
  maintenance_mu_.Unlock();
}

std::vector<analysis::Violation> CachingStore::CheckInvariants() {
  std::vector<analysis::Violation> out;
  analysis::BwTreeValidator tree_checker(tree_.get());
  analysis::MappingTableAuditor table_checker(tree_.get(), cache_.get());
  analysis::LogStoreAuditor log_checker(log_.get());
  for (analysis::InvariantChecker* checker :
       {static_cast<analysis::InvariantChecker*>(&tree_checker),
        static_cast<analysis::InvariantChecker*>(&table_checker),
        static_cast<analysis::InvariantChecker*>(&log_checker)}) {
    auto found = checker->Check();
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

Status CachingStore::Checkpoint() {
  if (Status w = CheckWritable(); !w.ok()) return w;
  Status s = tree_->FlushAll();
  if (s.ok()) s = log_->Flush();
  NoteWriteOutcome(s, /*reset_on_ok=*/true);
  return s;
}

Status CachingStore::Recover() { return tree_->RecoverFromStore(); }

Status CachingStore::EvictAll() {
  Status s = Checkpoint();
  if (!s.ok()) return s;
  for (auto pid : tree_->LeafPageIds()) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      s = tree_->EvictPage(pid, bwtree::EvictMode::kFullEviction);
      if (s.ok()) break;
      if (!s.IsAborted()) return s;
    }
  }
  tree_->ReclaimMemory();
  return Status::Ok();
}

Status CachingStore::RunGc(double live_threshold) {
  for (int round = 0; round < 1024; ++round) {
    Status s = CollectOneSegment(live_threshold);
    if (s.IsNotFound()) return Status::Ok();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status CachingStore::CollectOneSegment(double victim_threshold) {
  // Find the victim the same way CollectColdest does, but prepare the
  // segment first: pages with multi-record chains or memory-only current
  // images get rewritten elsewhere, so every record GcIsLive calls dead
  // has a durable replacement before the trim.
  uint64_t victim = UINT64_MAX;
  double victim_live = 2.0;
  for (const auto& seg : log_->segments()) {
    if (!seg.sealed) continue;
    if (seg.live_fraction() < victim_live) {
      victim_live = seg.live_fraction();
      victim = seg.id;
    }
  }
  if (victim == UINT64_MAX || victim_live > victim_threshold) {
    return Status::NotFound("no segment at or below the live threshold");
  }
  Status s =
      tree_->PrepareSegmentForGc(victim, log_->options().segment_bytes);
  if (!s.ok()) return s;
  auto gc = log_->CollectSegment(
      victim,
      [this](mapping::PageId pid, llama::FlashAddress a) {
        return tree_->GcIsLive(pid, a);
      },
      [this](mapping::PageId pid, llama::FlashAddress o,
             llama::FlashAddress n) { return tree_->GcInstall(pid, o, n); });
  return gc.status();
}

uint64_t CachingStore::MemoryFootprintBytes() const {
  return tree_->MemoryFootprintBytes();
}

KvStoreStats CachingStore::Stats() const {
  auto t = tree_->stats();
  auto d = attached_device_->stats();
  KvStoreStats s;
  s.reads = t.gets + t.scans;
  s.writes = t.puts + t.deletes;
  s.hits = t.mm_ops;
  s.misses = t.ss_ops;
  s.io_reads = d.reads;
  s.io_writes = d.writes;
  s.bytes_read = d.bytes_read;
  s.bytes_written = d.bytes_written;
  s.memory_bytes = tree_->MemoryFootprintBytes();
  s.io_retries = t.io_retries;
  s.health = health();
  const auto c = cache_->stats();
  s.cache_touches = c.touches;
  s.cache_touches_sampled = c.touches_sampled;
  EpochManager* epochs = tree_->epochs();
  s.epoch_reclaim_batches = epochs->reclaim_batches();
  s.epoch_reclaimed_items = epochs->reclaimed_items();
  s.foreground_maintenance_ops =
      foreground_maintenance_ops_.load(std::memory_order_relaxed);
  s.background_maintenance_steps =
      background_steps_.load(std::memory_order_relaxed);
  s.background_pages_evicted =
      bg_pages_evicted_.load(std::memory_order_relaxed);
  s.background_gc_segments = bg_gc_segments_.load(std::memory_order_relaxed);
  s.background_consolidations =
      bg_consolidations_.load(std::memory_order_relaxed);
  s.background_leaf_flushes =
      bg_leaf_flushes_.load(std::memory_order_relaxed);
  s.write_stalls = write_stalls_.load(std::memory_order_relaxed);
  s.stall_micros_total = stall_micros_total_.load(std::memory_order_relaxed);
  const auto l = log_->stats();
  s.log_append_groups = l.append_groups;
  static_assert(llama::LogStoreStats::kGroupSizeBuckets == 6);
  s.log_groups_1 = l.group_size_hist[0];
  s.log_groups_2 = l.group_size_hist[1];
  s.log_groups_3_4 = l.group_size_hist[2];
  s.log_groups_5_8 = l.group_size_hist[3];
  s.log_groups_9_16 = l.group_size_hist[4];
  s.log_groups_17_up = l.group_size_hist[5];
  // Three-tier hierarchy: occupancy and traffic from the cache and tree.
  // The breakevens are derived from these by KvStoreStats itself.
  s.tier_dram_pages = c.resident_pages;
  s.tier_dram_bytes = c.resident_bytes;
  s.tier_css_pages = c.css_pages;
  s.tier_css_bytes = c.css_bytes;
  s.tier_css_hits = t.css_hits;
  s.tier_demotions = t.css_demotions;
  s.tier_promotions = c.promotions;
  s.tier_demotion_refusals = t.css_demotion_refusals;
  s.tier_css_fallthroughs =
      bg_css_fallthroughs_.load(std::memory_order_relaxed);
  s.css_raw_bytes = t.css_raw_bytes_demoted;
  s.css_stored_bytes = t.css_stored_bytes_demoted;
  s.tier_dram_interval_nanos = c.dram_interval_nanos;
  s.tier_dram_interval_samples = c.dram_interval_samples;
  s.tier_css_interval_nanos = c.css_interval_nanos;
  s.tier_css_interval_samples = c.css_interval_samples;
  s.background_pages_demoted =
      bg_pages_demoted_.load(std::memory_order_relaxed);
  s.background_pages_promoted =
      bg_pages_promoted_.load(std::memory_order_relaxed);
  return s;
}

std::string CachingStore::DebugString() const {
  auto t = tree_->stats();
  auto d = attached_device_->stats();
  auto l = log_->stats();
  auto c = cache_->stats();
  char buf[1024];
  snprintf(buf, sizeof(buf),
           "bwtree: gets=%llu puts=%llu mm=%llu ss=%llu rc_hits=%llu "
           "blind=%llu loads=%llu consolidations=%llu splits=%llu "
           "full_flushes=%llu delta_flushes=%llu evictions=%llu/%llu\n"
           "device: reads=%llu writes=%llu bytes_read=%llu "
           "bytes_written=%llu occupied=%llu\n"
           "log: appended=%llu segments=%llu buffer_reads=%llu gc_runs=%llu\n"
           "cache: resident_bytes=%llu pages=%llu evictions=%llu",
           (unsigned long long)t.gets, (unsigned long long)t.puts,
           (unsigned long long)t.mm_ops, (unsigned long long)t.ss_ops,
           (unsigned long long)t.record_cache_hits,
           (unsigned long long)t.blind_updates,
           (unsigned long long)t.page_loads,
           (unsigned long long)t.consolidations,
           (unsigned long long)t.leaf_splits,
           (unsigned long long)t.full_flushes,
           (unsigned long long)t.delta_flushes,
           (unsigned long long)t.full_evictions,
           (unsigned long long)t.record_cache_evictions,
           (unsigned long long)d.reads, (unsigned long long)d.writes,
           (unsigned long long)d.bytes_read,
           (unsigned long long)d.bytes_written,
           (unsigned long long)d.occupied_bytes,
           (unsigned long long)l.records_appended,
           (unsigned long long)l.segments_written,
           (unsigned long long)l.buffer_reads,
           (unsigned long long)l.gc_runs,
           (unsigned long long)c.resident_bytes,
           (unsigned long long)c.resident_pages,
           (unsigned long long)c.evictions);
  // Structured summary first, component detail after — callers that want
  // numbers should use Stats() and never parse this.
  return Stats().ToString() + "\n" + buf;
}

}  // namespace costperf::core
