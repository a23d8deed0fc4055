#include <gtest/gtest.h>

#include <memory>

#include "bwtree/bwtree.h"
#include "bwtree/page_codec.h"
#include "common/random.h"
#include "core/caching_store.h"
#include "costmodel/cost_params.h"
#include "costmodel/five_minute_rule.h"

namespace costperf::bwtree {
namespace {

// Compressible record payloads (structured text, as cold data tends to
// be).
std::string StructuredValue(int i) {
  char buf[96];
  snprintf(buf, sizeof(buf), "name=customer_%04d|city=city_%03d|tier=gold|",
           i % 1000, i % 250);
  return buf;
}

TEST(CompressedLeafCodecTest, RoundTrip) {
  LeafBase leaf;
  for (int i = 0; i < 60; ++i) {
    leaf.keys.push_back("key" + std::to_string(1000 + i));
    leaf.values.push_back(StructuredValue(i));
  }
  leaf.high_key = "kez";
  leaf.right_sibling = 77;
  std::string compressed;
  PageCodec::EncodeCompressedLeaf(leaf, &compressed);

  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeAnyLeaf(Slice(compressed), &out).ok());
  EXPECT_EQ(out.keys, leaf.keys);
  EXPECT_EQ(out.values, leaf.values);
  EXPECT_EQ(out.high_key, leaf.high_key);
  EXPECT_EQ(out.right_sibling, 77u);

  // And it actually shrinks structured content.
  std::string raw;
  PageCodec::EncodeLeaf(leaf, &raw);
  EXPECT_LT(compressed.size(), raw.size() * 0.7);
}

TEST(CompressedLeafCodecTest, DecodeAnyAcceptsPlainLeaf) {
  LeafBase leaf;
  leaf.keys = {"a"};
  leaf.values = {"b"};
  std::string raw;
  PageCodec::EncodeLeaf(leaf, &raw);
  LeafBase out;
  ASSERT_TRUE(PageCodec::DecodeAnyLeaf(Slice(raw), &out).ok());
  EXPECT_EQ(out.keys, leaf.keys);
}

TEST(CompressedLeafCodecTest, PeekKindRecognizesCompressed) {
  LeafBase leaf;
  std::string img;
  PageCodec::EncodeCompressedLeaf(leaf, &img);
  uint8_t kind = 0;
  ASSERT_TRUE(PageCodec::PeekKind(Slice(img), &kind).ok());
  EXPECT_EQ(kind, PageCodec::kCompressedLeaf);
}

class CssTreeTest : public ::testing::Test {
 protected:
  CssTreeTest() {
    storage::SsdOptions dev;
    dev.capacity_bytes = 128ull << 20;
    dev.max_iops = 0;
    device_ = std::make_unique<storage::SsdDevice>(dev);
    log_ = std::make_unique<llama::LogStructuredStore>(device_.get());
    BwTreeOptions opts;
    opts.log_store = log_.get();
    opts.max_page_bytes = 64 << 10;
    tree_ = std::make_unique<BwTree>(opts);
  }

  std::unique_ptr<storage::SsdDevice> device_;
  std::unique_ptr<llama::LogStructuredStore> log_;
  std::unique_ptr<BwTree> tree_;
};

TEST_F(CssTreeTest, CompressedFlushEvictReloadRoundTrip) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kCompressedPage).ok());
  EXPECT_EQ(tree_->stats().compressed_flushes, 1u);
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());

  for (int i = 0; i < 100; ++i) {
    auto r = tree_->Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  EXPECT_EQ(tree_->stats().compressed_loads, 1u);
}

TEST_F(CssTreeTest, CompressedImageSmallerOnMedia) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_EQ(pids.size(), 1u);

  uint64_t before = log_->stats().payload_bytes_appended;
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kFullPage).ok());
  uint64_t full_bytes = log_->stats().payload_bytes_appended - before;

  // Dirty it again so the compressed flush re-appends.
  ASSERT_TRUE(tree_->Put("key5", StructuredValue(5)).ok());
  before = log_->stats().payload_bytes_appended;
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kCompressedPage).ok());
  uint64_t css_bytes = log_->stats().payload_bytes_appended - before;

  EXPECT_LT(css_bytes, full_bytes / 2)
      << "CSS image should be much smaller than the raw page";
}

TEST_F(CssTreeTest, DeltaChainOverCompressedBase) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  auto pids = tree_->LeafPageIds();
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kCompressedPage).ok());
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());
  // Blind update + delta flush on top of the compressed base.
  ASSERT_TRUE(tree_->Put("key3", "updated").ok());
  ASSERT_TRUE(tree_->FlushPage(pids[0], FlushMode::kDeltaOnly).ok());
  ASSERT_TRUE(tree_->EvictPage(pids[0], EvictMode::kFullEviction).ok());

  EXPECT_EQ(*tree_->Get("key3"), "updated");
  EXPECT_EQ(*tree_->Get("key4"), StructuredValue(4));
}

TEST_F(CssTreeTest, RecoveryOfCompressedPages) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        tree_->Put("key" + std::to_string(i), StructuredValue(i)).ok());
  }
  for (auto pid : tree_->LeafPageIds()) {
    ASSERT_TRUE(tree_->FlushPage(pid, FlushMode::kCompressedPage).ok());
  }
  ASSERT_TRUE(log_->Flush().ok());

  BwTreeOptions opts;
  opts.log_store = log_.get();
  // A second tree over the same log store (its directory is shared state
  // on the device; recovery rescans it).
  llama::LogStructuredStore log2(device_.get());
  opts.log_store = &log2;
  BwTree recovered(opts);
  ASSERT_TRUE(recovered.RecoverFromStore().ok());
  for (int i = 0; i < 300; i += 7) {
    auto r = recovered.Get("key" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
}

TEST(CssStoreTest, TieringPolicySendsColdestPagesToCss) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.breakeven_interval_seconds = 45.0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tier.demote_idle_seconds = 200.0;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  core::CachingStore store(opts);

  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());

  // Phase 1: 60s idle -> pages pass the MM/SS breakeven and are evicted
  // uncompressed (idle < the demotion floor).
  clock.AdvanceSeconds(60);
  store.Maintain();
  EXPECT_EQ(store.Stats().tier_demotions, 0u);
  EXPECT_EQ(store.tree()->resident_leaves(), 0u);

  // Touch everything back in, then let it go stone cold.
  for (int i = 0; i < 3000; i += 10) {
    ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok());
  }
  clock.AdvanceSeconds(300);  // beyond the demotion floor
  store.Maintain();
  const auto after_demote = store.Stats();
  EXPECT_GT(after_demote.tier_demotions, 0u)
      << "stone-cold pages must demote to the compressed tier";
  EXPECT_GT(after_demote.tier_css_pages, 0u);
  EXPECT_GT(after_demote.tier_css_bytes, 0u);
  EXPECT_LT(after_demote.MeasuredCompressionRatio(), 0.7)
      << "structured payloads must actually shrink";
  EXPECT_GT(after_demote.MeasuredCssBreakevenOps(), 0.0)
      << "demotions must feed the measured Fig. 8 breakeven";
  EXPECT_GT(after_demote.MeasuredTiSeconds(), 0.0);

  // Data still correct through the compressed tier, and reading it IS
  // the promotion path: the load decompresses and flips the entry back
  // to DRAM.
  for (int i = 0; i < 3000; i += 97) {
    auto r = store.Get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, StructuredValue(i));
  }
  const auto after_reads = store.Stats();
  EXPECT_GT(after_reads.tier_css_hits, 0u)
      << "reads of demoted pages must be served from compressed records";
  EXPECT_GT(after_reads.tier_promotions, 0u)
      << "a touched CSS page must promote back to DRAM";
  EXPECT_LT(after_reads.tier_css_pages, after_demote.tier_css_pages);
}

// Stats of a store whose stone-cold pages all demoted to the compressed
// tier; max_page_bytes sets the mean demoted page size.
core::KvStoreStats DemotedShardStats(uint32_t max_page_bytes) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tier.demote_idle_seconds = 200.0;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  opts.tree.max_page_bytes = max_page_bytes;
  core::CachingStore store(opts);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_TRUE(store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  EXPECT_TRUE(store.Checkpoint().ok());
  clock.AdvanceSeconds(300);
  store.Maintain();
  return store.Stats();
}

TEST(CssStoreTest, ShardMergeRecomputesBreakevensFromSums) {
  const core::KvStoreStats a = DemotedShardStats(2048);
  const core::KvStoreStats b = DemotedShardStats(8192);
  ASSERT_GT(a.tier_demotions, 0u);
  ASSERT_GT(b.tier_demotions, 0u);
  const double mean_a = static_cast<double>(a.css_raw_bytes) /
                        static_cast<double>(a.tier_demotions);
  const double mean_b = static_cast<double>(b.css_raw_bytes) /
                        static_cast<double>(b.tier_demotions);
  ASSERT_GT(mean_b, 1.5 * mean_a) << "the shards must differ in page size";

  core::KvStoreStats merged = a;
  merged += b;
  // The aggregate's breakevens come from the summed accumulators: the
  // mean demoted page size and the compression ratio over both shards.
  costmodel::CostParams p = costmodel::CostParams::PaperDefaults();
  p.page_size_bytes =
      static_cast<double>(a.css_raw_bytes + b.css_raw_bytes) /
      static_cast<double>(a.tier_demotions + b.tier_demotions);
  costmodel::CompressionParams ratio;
  ratio.compression_ratio =
      static_cast<double>(a.css_stored_bytes + b.css_stored_bytes) /
      static_cast<double>(a.css_raw_bytes + b.css_raw_bytes);
  EXPECT_DOUBLE_EQ(merged.MeasuredTiSeconds(),
                   costmodel::BreakevenIntervalSeconds(p));
  EXPECT_DOUBLE_EQ(merged.MeasuredCssBreakevenOps(),
                   costmodel::CssSsBreakevenOpsPerSec(p, ratio));
  // Neither shard's own value stands in for the aggregate.
  EXPECT_NE(merged.MeasuredTiSeconds(), a.MeasuredTiSeconds());
  EXPECT_NE(merged.MeasuredTiSeconds(), b.MeasuredTiSeconds());
}

TEST(CssStoreTest, ReheatLimitRefusesThrashingPages) {
  VirtualClock clock(1);
  core::CachingStoreOptions opts;
  opts.clock = &clock;
  opts.device.capacity_bytes = 256ull << 20;
  opts.device.max_iops = 0;
  opts.eviction_policy = llama::EvictionPolicy::kCostBased;
  opts.breakeven_interval_seconds = 45.0;
  opts.tier.css_budget_bytes = 64ull << 20;
  opts.tier.demote_idle_seconds = 50.0;
  opts.tier.max_reheats = 1;
  opts.memory_budget_bytes = 0;
  opts.maintenance_interval_ops = 0;
  core::CachingStore store(opts);

  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        store.Put("k" + std::to_string(i), StructuredValue(i)).ok());
  }
  ASSERT_TRUE(store.Checkpoint().ok());

  // Demote -> touch (promote) cycles past the reheat limit: the policy
  // must eventually refuse to demote pages that keep coming back.
  for (int round = 0; round < 4; ++round) {
    clock.AdvanceSeconds(100);
    store.Maintain();
    for (int i = 0; i < 1500; i += 10) {
      ASSERT_TRUE(store.Get("k" + std::to_string(i)).ok());
    }
  }
  const auto s = store.Stats();
  EXPECT_GT(s.tier_demotions, 0u);
  EXPECT_GT(s.tier_promotions, 0u);
  EXPECT_GT(s.tier_demotion_refusals, 0u)
      << "pages reheated past max_reheats must be refused CSS";
}

}  // namespace
}  // namespace costperf::bwtree
