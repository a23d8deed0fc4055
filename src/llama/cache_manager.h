#ifndef COSTPERF_LLAMA_CACHE_MANAGER_H_
#define COSTPERF_LLAMA_CACHE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hot_path.h"
#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "mapping/mapping_table.h"

namespace costperf::llama {

// How the cache chooses eviction victims.
enum class EvictionPolicy {
  kLru,           // classic least-recently-used
  kSecondChance,  // clock with one reference bit
  // The paper's §4.2 policy: evict pages whose idle time exceeds the
  // breakeven interval T_i from Eq. (6) — their continued DRAM rental
  // costs more than paying for an SS operation on next access. Falls back
  // to LRU order among eligible pages; under memory pressure with no page
  // past breakeven, evicts LRU anyway (budget is a hard constraint).
  kCostBased,
};

std::string EvictionPolicyName(EvictionPolicy p);

// Which tier of the paper's three-level hierarchy (§7.2 / Fig. 8) a
// tracked page currently occupies. kDram pages have a live in-memory
// delta chain; kCss pages live only as a compressed record on secondary
// storage but stay tracked here so the tiering policy can see their
// recency, reheat history, and compressed footprint. Pages that fall all
// the way to plain SS are simply erased from the cache manager.
enum class CacheTier : uint8_t {
  kDram = 0,
  kCss = 1,
};

struct CacheOptions {
  uint64_t memory_budget_bytes = 64ull << 20;
  EvictionPolicy policy = EvictionPolicy::kLru;
  // Breakeven idle interval for kCostBased.
  double breakeven_interval_seconds = 45.0;
  // Touch sampling: with touch_sample == 1 every Touch refreshes the
  // last-access tick; with N > 1 only every Nth touch (per thread) does
  // the table probe and recency update, the rest just bump a counter and
  // return. Recency then has 1-in-N granularity, which CLOCK-style
  // eviction tolerates; keep 1 when exact LRU order matters.
  uint32_t touch_sample = 1;
  // Shard count; rounded up to a power of two. 0 = default (16).
  uint32_t shards = 0;
  Clock* clock = nullptr;  // defaults to RealClock::Global()
};

struct CacheStats {
  uint64_t insertions = 0;
  uint64_t touches = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_pages = 0;
  // Touches that took the sampled fast path (skipped: no table probe,
  // no clock read). touches counts every Touch call.
  uint64_t touches_sampled = 0;
  // Compressed-secondary-storage tier occupancy and traffic.
  uint64_t css_pages = 0;
  uint64_t css_bytes = 0;    // compressed (stored) footprint
  uint64_t demotions = 0;    // DRAM -> CSS transitions
  uint64_t promotions = 0;   // CSS -> DRAM transitions (reheats)
  // Per-tier access-interval accumulators: sum of (touch - previous
  // touch) gaps in nanoseconds, and how many gaps were sampled. The
  // mean interval is the store's *measured* inter-reference time, the
  // input the five-minute-rule breakeven is compared against.
  uint64_t dram_interval_nanos = 0;
  uint64_t dram_interval_samples = 0;
  uint64_t css_interval_nanos = 0;
  uint64_t css_interval_samples = 0;
};

// Resident-set accounting and victim selection for the data cache. The
// cache manager does not hold page contents — the Bw-tree owns those via
// the mapping table; this class decides *which* logical pages should be
// resident, which is the knob the paper's whole cost analysis is about.
//
// Concurrency: sharded CLOCK design. Pages hash to one of S shards, each
// an open-addressing table of fixed slots. The hot-path operations —
// Touch, Contains, IdleSeconds — are lock-free: they probe the slot
// table through an acquire-load of the published pid and then read or
// write the per-entry atomics (reference bit, last-touch tick) with
// relaxed ordering. Structural mutations (Insert/Erase/Resize/growth)
// take a short per-shard mutex; victim selection snapshots each shard
// under that same mutex, so eviction never blocks the read path.
//
// Memory-ordering contract: a slot's payload fields (bytes, tick, seq,
// reference bit) are written before its pid is store-released; readers
// acquire-load the pid and may then read the payload relaxed. Ticks and
// reference bits are advisory recency metadata — concurrent updates race
// benignly (a lost Touch can only make a page look slightly colder).
// Outgrown tables are retired to the owning shard, not freed, so a
// lock-free reader can keep probing a stale table safely; retired memory
// is bounded by the live table's size (geometric growth).
//
// Epoch note: unlike the Bw-tree's delta chains, the cache manager needs
// no EpochManager and its readers carry no REQUIRES_EPOCH contracts —
// reclamation is designed out instead. Retired tables live until the
// manager dies (`tables` above), and VictimCandidate::ref pointers stay
// valid for the same reason. That is the deliberate trade: a bounded
// amount of un-reclaimed table memory buys a guard-free Touch/Contains
// probe on every operation.
class CacheManager {
 public:
  explicit CacheManager(CacheOptions options = {});

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Page became resident (DRAM tier) with the given footprint. If pid is
  // currently tracked in the CSS tier this IS the promotion path: the
  // entry flips to kDram, byte accounting moves between tiers, and its
  // reheat counter bumps — so the tree's ordinary load-and-install flow
  // promotes compressed pages without any tier-specific calls.
  void Insert(mapping::PageId pid, uint64_t bytes);
  // Page was accessed (sets reference bit / refreshes last-touch tick).
  // Lock-free.
  COSTPERF_HOT void Touch(mapping::PageId pid);
  // Page footprint changed (delta prepend, consolidation).
  void Resize(mapping::PageId pid, uint64_t new_bytes);
  // Page no longer resident (evicted or freed). No-op if absent.
  void Erase(mapping::PageId pid);
  // Lock-free.
  COSTPERF_HOT bool Contains(mapping::PageId pid) const;

  uint64_t resident_bytes() const;
  bool OverBudget() const;

  // Picks victims whose combined size is >= want_bytes (or until the
  // cache would be empty), in policy order. Does NOT erase them — the
  // caller evicts each page (flushing if dirty) and then calls Erase.
  // For kCostBased with want_bytes == 0, returns every page whose idle
  // time exceeds breakeven (proactive cost-driven eviction).
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes);
  // Quota-bounded variant for incremental background eviction: stops
  // after max_pages victims even if want_bytes is not yet covered (the
  // caller re-runs on its next maintenance step).
  std::vector<mapping::PageId> PickVictims(uint64_t want_bytes,
                                           size_t max_pages);

  // Seconds since pid was last touched; negative if unknown. Lock-free.
  double IdleSeconds(mapping::PageId pid) const;

  // --- Tier hierarchy (DESIGN.md §3.7) -----------------------------------

  // Moves a tracked page between tiers; `bytes` is its footprint in the
  // destination tier (compressed size for kCss, raw chain size for
  // kDram). Returns false (no accounting change) if pid is untracked or
  // already in `tier`. kCss -> kDram through here counts a promotion and
  // a reheat, same as the Insert path.
  bool SetTier(mapping::PageId pid, CacheTier tier, uint64_t bytes);
  // Current tier; kDram if untracked (use Contains to distinguish).
  // Lock-free.
  CacheTier GetTier(mapping::PageId pid) const;
  // How many times this page has been promoted back out of CSS. The
  // demotion policy refuses pages that keep reheating — repeatedly
  // paying decompress_r for the same page erases the storage saving
  // (Fig. 8's breakeven argument in reverse). 0 if untracked. Lock-free.
  uint32_t ReheatCount(mapping::PageId pid) const;

  uint64_t css_resident_bytes() const;
  void set_css_budget(uint64_t bytes);
  uint64_t css_budget() const {
    return css_budget_.load(std::memory_order_relaxed);
  }
  bool CssOverBudget() const;

  // Coldest-first DRAM-tier pages idle for at least min_idle_seconds:
  // the demotion work list. Does not change any state — the caller runs
  // DemotePage (which may refuse) and the tier flips via SetTier.
  std::vector<mapping::PageId> PickDemotionCandidates(
      size_t max_pages, double min_idle_seconds);
  // Coldest-first CSS-tier pages covering want_bytes: when the CSS tier
  // itself is over budget these fall through to plain SS (their durable
  // record already exists — the caller just Erases them here).
  std::vector<mapping::PageId> PickCssVictims(uint64_t want_bytes,
                                              size_t max_pages);
  // Hottest-first CSS-tier pages: promotion candidates for when DRAM has
  // headroom and background work can pay decompression ahead of demand.
  std::vector<mapping::PageId> PickPromotionCandidates(size_t max_pages);

  // Snapshot of (pid, stored bytes) for every CSS-tier page, for
  // invariant auditing against the log store's compressed-record
  // accounting.
  std::vector<std::pair<mapping::PageId, uint64_t>> CssEntries() const;

  CacheStats stats() const;
  const CacheOptions& options() const { return options_; }
  void set_memory_budget(uint64_t bytes);

  // Snapshot of (pid, bytes) for every page the cache believes resident
  // in DRAM. For invariant auditing: the analysis layer cross-checks
  // this set against the mapping table and the tree's resident chains —
  // CSS-tier pages are excluded because their mapping word is a flash
  // address, not a live chain.
  std::vector<std::pair<mapping::PageId, uint64_t>> ResidentEntries() const;

  size_t shard_count() const { return shards_.size(); }

 private:
  // Slot pid sentinels. kInvalidPageId doubles as "empty"; tombstones
  // keep linear-probe chains intact across Erase.
  static constexpr uint64_t kEmptyPid = mapping::kInvalidPageId;
  static constexpr uint64_t kTombstonePid = mapping::kInvalidPageId - 1;

  struct Slot {
    // Published last (release); readers acquire-load it before touching
    // the fields below.
    std::atomic<uint64_t> pid{kEmptyPid};
    std::atomic<uint64_t> bytes{0};
    // Last-access tick (Clock::NowNanos at the most recent full touch).
    std::atomic<uint64_t> tick{0};
    // Global insertion/re-insertion sequence; breaks recency ties among
    // pages whose ticks are equal, reproducing exact LRU order.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint32_t> referenced{0};  // second-chance bit
    // CacheTier the entry occupies (raw uint32 so lock-free readers can
    // load it relaxed like the other payload fields).
    std::atomic<uint32_t> tier{0};
    // Promotions out of CSS survived so far; input to the anti-thrash
    // demotion refusal.
    std::atomic<uint32_t> reheats{0};
  };

  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    const size_t mask;  // capacity - 1; capacity is a power of two
    const std::unique_ptr<Slot[]> slots;
  };

  struct alignas(64) Shard {
    // Short structural latch. Rank 3 in the global lock order: acquired
    // under the maintenance pass and after the log-append latch, never
    // the other way — holding a shard latch across a stalling append
    // would freeze this shard's Insert/Erase for the I/O's duration
    // (common/lock_order.h).
    mutable Mutex mu ACQUIRED_AFTER(lock_rank::kLogAppend)
        ACQUIRED_BEFORE(lock_rank::kSchedulerQueue);
    // Current table, readable without the mutex; swapped (under mu) on
    // growth with the old table pushed onto `tables`.
    std::atomic<Table*> table{nullptr};
    std::vector<std::unique_ptr<Table>> tables GUARDED_BY(mu);
    size_t live GUARDED_BY(mu) = 0;  // valid pids
    size_t used GUARDED_BY(mu) = 0;  // valid pids + tombstones
    std::atomic<uint64_t> resident_bytes{0};
    // Stored (compressed) footprint and page count of this shard's
    // CSS-tier entries; disjoint from resident_bytes, which is DRAM-tier
    // only (`live` counts both tiers).
    std::atomic<uint64_t> css_bytes{0};
    std::atomic<uint64_t> css_pages{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> demotions{0};
    std::atomic<uint64_t> promotions{0};
  };

  // Touch counters are striped per thread (not per shard): every touch
  // bumps its calling thread's private cell with a relaxed load+store,
  // so the hot path never does an atomic RMW on a shared line. stats()
  // sums the cells. Threads hash onto kTouchCells cells; two threads
  // sharing a cell can drop increments (counters only).
  struct alignas(64) TouchCell {
    std::atomic<uint64_t> touches{0};
    std::atomic<uint64_t> sampled{0};
    // Per-tier inter-reference gap accumulators (nanoseconds / gap
    // count), fed by the full-touch path reading the slot's previous
    // tick before refreshing it. Same single-writer load+store
    // discipline as the counters above.
    std::atomic<uint64_t> dram_interval_nanos{0};
    std::atomic<uint64_t> dram_interval_samples{0};
    std::atomic<uint64_t> css_interval_nanos{0};
    std::atomic<uint64_t> css_interval_samples{0};
  };
  static constexpr int kTouchCells = 64;
  static int TouchCellIndex();

  // A consistent per-page snapshot used for victim selection. ref points
  // into a slot (valid for the manager's lifetime — tables are retired,
  // never freed) so the CLOCK sweep can clear live reference bits.
  struct VictimCandidate {
    mapping::PageId pid;
    uint64_t bytes;
    uint64_t tick;
    uint64_t seq;
    std::atomic<uint32_t>* ref;
  };

  Shard& ShardFor(mapping::PageId pid) const;
  // Lock-free probe of the shard's current table. Returns nullptr when
  // pid is absent.
  COSTPERF_HOT Slot* FindSlot(const Shard& shard, mapping::PageId pid) const;
  // Probe under shard.mu for insert: returns the slot holding pid, or a
  // free (empty/tombstone) slot to claim, growing the table if needed.
  Slot* FindOrClaimSlot(Shard& shard, mapping::PageId pid,
                        bool* claimed_tombstone) REQUIRES(shard.mu);
  void GrowTable(Shard& shard) REQUIRES(shard.mu);
  // Snapshot of every page in `tier` across all shards, sorted by
  // (tick, seq) — i.e. exact LRU order, coldest first.
  std::vector<VictimCandidate> SnapshotByRecency(CacheTier tier);

  // memory_budget_bytes is mirrored in budget_ so OverBudget stays
  // lock-free; the remaining options fields are immutable after
  // construction.
  CacheOptions options_;
  Clock* clock_;
  std::atomic<uint64_t> budget_;
  // Stored-byte ceiling for the CSS tier; 0 = tier disabled.
  std::atomic<uint64_t> css_budget_{0};
  // Monotonic recency tiebreak, bumped on insert/re-insert.
  std::atomic<uint64_t> lru_seq_{0};
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable TouchCell touch_cells_[kTouchCells];
};

}  // namespace costperf::llama

#endif  // COSTPERF_LLAMA_CACHE_MANAGER_H_
