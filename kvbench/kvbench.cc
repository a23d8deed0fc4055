// kvbench: the repository benchmark. One invocation runs one named
// workload, closed-loop, from a single process, over the library's public
// headers only:
//
//   kvbench --workload kv_hot --seed 1 --seconds 10 --trace 0
//
// It generates its own keys, values and op stream from --seed (oracle.h),
// sets up the store several times and reports the median set-up time,
// measures for --seconds, checks every read as it completes and every key
// after the run (and again after checkpoint + recovery for caching
// stores), and prints each metric by name with its unit. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// same workload with spans around the benchmark's calls into each layer
// and stat snapshots around the timed phase, and reports the per-layer
// metrics instead. --selftest corrupts one model entry before the final
// check and succeeds only if the check catches it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/op_class.h"
#include "common/simd.h"
#include "core/caching_store.h"
#include "core/kv_store.h"
#include "core/memory_store.h"
#include "core/sharded_store.h"
#include "oracle.h"
#include "server/protocol.h"
#include "server/server.h"

#ifndef KVBENCH_BUILD_TYPE
#define KVBENCH_BUILD_TYPE "unknown"
#endif

namespace kvbench {
namespace {

namespace core = costperf::core;
namespace server = costperf::server;
using costperf::Slice;
using costperf::Status;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double CpuSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Pins the calling thread, and every thread it starts later, to the CPU
// it is running on. Returns that CPU, or -1 if it could not pin.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Backend { kCaching, kMemory };

struct Spec {
  std::string_view name;
  Backend backend;
  bool wire;             // behind server::Server, driven over TCP
  uint64_t keys;         // records loaded before the run
  size_t value_bytes;
  bool structured;       // compressible row-like values
  double read_fraction;  // of operations (in-process) or frames (wire)
  int owners;            // client threads, or connections on the wire
  double dram_fraction;  // DRAM budget as a share of the data; 0 = unbounded
  double css_fraction;   // CSS budget as a share of the data; 0 = no tier
  uint32_t workers;      // background maintenance workers; 0 = inline
  // All of the process's threads share one CPU. Set where one thread
  // hands work to another and waits for it (wire client and server I/O
  // thread; client and maintenance worker): spread over CPUs, each
  // hand-off waited on a cross-CPU wake-up, whose cost followed the
  // host's load, and runs of the same inputs ranged 390k-590k keys/s on
  // the wire and 20k-25k ops/s on kv_ss. On one CPU a hand-off is a
  // context switch and throughput tracks the CPU cost of an operation.
  bool one_cpu;
};

constexpr Spec kSpecs[] = {
    {"kv_hot", Backend::kCaching, false, 150000, 100, false, 0.90, 2, 0, 0, 0, false},
    {"kv_ss", Backend::kCaching, false, 100000, 200, true, 0.50, 1, 0.125, 0.125, 1, true},
    {"wire_mget", Backend::kCaching, true, 150000, 100, false, 0.95, 2, 0, 0, 0, true},
    {"mt_hot", Backend::kMemory, false, 150000, 100, false, 0.90, 2, 0, 0, 0, false},
};

constexpr size_t kShards = 8;
constexpr double kZipfTheta = 0.99;
constexpr size_t kFrameKeys = 16;   // keys per MULTIGET / WRITEBATCH frame
constexpr size_t kWindow = 16;      // frames kept in flight per connection
constexpr int kSetups = 5;          // set-ups per run; setup_s is their median
constexpr size_t kStreamLen = 1u << 20;  // pre-generated ops per owner
constexpr uint32_t kWriteBit = 1u << 31;

uint64_t DataBytes(const Spec& s) { return s.keys * (kKeyBytes + s.value_bytes); }

// FNV-1a of the workload name.
uint64_t LayoutSeed(const Spec& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s.name) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  return h;
}

// The op stream of one owner: entries are key index | kWriteBit. Writes
// go only to keys the owner owns (idx % owners == owner), so each key has
// one writer and the model is exact. On the wire the stream is cut into
// frames of kFrameKeys entries that share one kind; a write frame never
// names a key twice, so its entries cannot race each other.
std::vector<uint32_t> MakeStream(const Spec& spec, const Zipf& zipf, const RankMap& map,
                                 uint64_t seed, int owner) {
  Rng rng(seed * 0x100000001b3ull + static_cast<uint64_t>(owner) + 1);
  auto own = [&](uint64_t idx) {
    idx = idx - idx % spec.owners + static_cast<uint64_t>(owner);
    return idx < spec.keys ? idx : idx - static_cast<uint64_t>(spec.owners);
  };
  std::vector<uint32_t> out;
  out.reserve(kStreamLen);
  const size_t group = spec.wire ? kFrameKeys : 1;
  while (out.size() < kStreamLen) {
    const bool write = rng.NextDouble() >= spec.read_fraction;
    const size_t first = out.size();
    for (size_t k = 0; k < group; ++k) {
      uint64_t idx = map(zipf.Next(&rng));
      if (write) {
        idx = own(idx);
        while (std::any_of(out.begin() + first, out.end(), [&](uint32_t e) {
          return (e & ~kWriteBit) == idx;
        })) {
          idx = own((idx + static_cast<uint64_t>(spec.owners)) % spec.keys);
        }
      }
      out.push_back(static_cast<uint32_t>(idx) | (write ? kWriteBit : 0));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Measurement helpers

struct Pct {
  double p50_us = 0, p99_us = 0, mean_us = 0;
  size_t n = 0;
};

// Exact nearest-rank percentiles of the benchmark's own samples (ns).
Pct Percentiles(std::vector<uint32_t>* v) {
  Pct p;
  p.n = v->size();
  if (p.n == 0) return p;
  auto rank = [&](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(p.n)));
    r = std::max<size_t>(r, 1) - 1;
    std::nth_element(v->begin(), v->begin() + static_cast<long>(r), v->end());
    return static_cast<double>((*v)[r]) / 1000.0;
  };
  p.p50_us = rank(0.50);
  p.p99_us = rank(0.99);
  double sum = 0;
  for (uint32_t x : *v) sum += x;
  p.mean_us = sum / static_cast<double>(p.n) / 1000.0;
  return p;
}

// Samples beyond the p99 rank must number at least ten.
bool TailOk(size_t n) { return n >= 1000; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Latencies {
  std::vector<uint32_t> read, write, mm, ss;
  void Append(const Latencies& o) {
    read.insert(read.end(), o.read.begin(), o.read.end());
    write.insert(write.end(), o.write.begin(), o.write.end());
    mm.insert(mm.end(), o.mm.begin(), o.mm.end());
    ss.insert(ss.end(), o.ss.begin(), o.ss.end());
  }
};

uint32_t Clamp32(uint64_t ns) { return ns > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(ns); }

// Wrong answers seen by the oracle. The first few are printed.
class Checker {
 public:
  void Fail(const std::string& what) {
    if (count_.fetch_add(1) < 5) {
      std::lock_guard<std::mutex> lock(mu_);
      std::fprintf(stderr, "kvbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  uint64_t count() const { return count_.load(); }

 private:
  std::atomic<uint64_t> count_{0};
  std::mutex mu_;
};

// Records the store calls server::Server makes: the batched read and
// write runs it coalesces from each window, and its Stats() polls.
class TimingStore : public core::KvStore {
 public:
  struct Calls {
    uint64_t calls = 0, items = 0, ns = 0;
    std::vector<std::pair<uint32_t, uint32_t>> samples;  // (ns, items)
  };

  explicit TimingStore(core::KvStore* inner) : inner_(inner) {}

  Status Put(const Slice& k, const Slice& v) override { return inner_->Put(k, v); }
  costperf::Result<std::string> Get(const Slice& k) override { return inner_->Get(k); }
  Status Get(const Slice& k, std::string* v) override { return inner_->Get(k, v); }
  Status Delete(const Slice& k) override { return inner_->Delete(k); }
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return inner_->Scan(start, limit, out);
  }
  using KvStore::MultiGet;
  Status MultiGet(std::span<const std::string> keys, const core::ReadOptions& options,
                  core::BatchReadResult* out) override {
    const uint64_t t0 = NowNs();
    Status s = inner_->MultiGet(keys, options, out);
    Note(&reads_, t0, keys.size());
    return s;
  }
  void BatchGet(core::BatchGetOp* ops, size_t count) override {
    const uint64_t t0 = NowNs();
    inner_->BatchGet(ops, count);
    Note(&reads_, t0, count);
  }
  using KvStore::WriteBatch;
  Status WriteBatch(std::span<const core::KvEntry> entries, const core::WriteOptions& options,
                    core::BatchWriteResult* out) override {
    const uint64_t t0 = NowNs();
    Status s = inner_->WriteBatch(entries, options, out);
    Note(&writes_, t0, entries.size());
    return s;
  }
  bool ConcurrentSafe() const override { return inner_->ConcurrentSafe(); }
  uint64_t MemoryFootprintBytes() const override { return inner_->MemoryFootprintBytes(); }
  core::KvStoreStats Stats() const override {
    const uint64_t t0 = NowNs();
    core::KvStoreStats s = inner_->Stats();
    Note(&stats_, t0, 1);
    return s;
  }
  std::vector<core::HealthStatus> PerShardHealth() const override {
    return inner_->PerShardHealth();
  }
  std::string DebugString() const override { return inner_->DebugString(); }
  void Maintain() override { inner_->Maintain(); }

  // Moves the calls recorded so far out, leaving the recorder empty.
  void Take(Calls* reads, Calls* writes, Calls* stats) {
    std::lock_guard<std::mutex> lock(mu_);
    *reads = std::move(reads_);
    *writes = std::move(writes_);
    *stats = std::move(stats_);
    reads_ = writes_ = stats_ = Calls();
  }

 private:
  void Note(Calls* c, uint64_t t0, size_t items) const {
    const uint64_t ns = NowNs() - t0;
    std::lock_guard<std::mutex> lock(mu_);
    c->calls += 1;
    c->items += items;
    c->ns += ns;
    c->samples.emplace_back(Clamp32(ns), static_cast<uint32_t>(items));
  }

  core::KvStore* const inner_;
  mutable std::mutex mu_;
  mutable Calls reads_, writes_, stats_;
};

// Median store-call time per frame: each call's duration weighted by the
// frames it served.
double FrameWeightedMedianUs(std::vector<std::pair<uint32_t, uint32_t>> s) {
  if (s.empty()) return 0;
  std::sort(s.begin(), s.end());
  uint64_t total = 0;
  for (const auto& [ns, items] : s) total += items;
  uint64_t acc = 0;
  for (const auto& [ns, items] : s) {
    acc += items;
    if (2 * acc >= total) return ns / 1000.0;
  }
  return s.back().first / 1000.0;
}

// ---------------------------------------------------------------------------
// The wire client: one thread, non-blocking connections, each keeping a
// full window of pipelined frames.

struct Frame {
  uint32_t id = 0;
  bool write = false;
  uint64_t send_ns = 0;
  uint32_t idx[kFrameKeys];
  uint32_t ver[kFrameKeys];  // written version, or acked version at send
};

struct WireConn {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  size_t in_used = 0;
  std::vector<Frame> ring = std::vector<Frame>(kWindow);
  size_t head = 0, tail = 0;  // frames [head, tail) are in flight
  uint32_t next_id = 1;

  WireConn() = default;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  ~WireConn() {
    if (fd >= 0) close(fd);
  }
};

int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// ---------------------------------------------------------------------------
// One run

struct Phase {
  uint64_t start_ns = 0, end_ns = 0;
  double proc_cpu_s = 0, client_cpu_s = 0;
  uint64_t ops = 0, failed = 0;
  Latencies lat;
  double secs = 0;  // end_ns - start_ns, or the sum over merged phases
  double seconds() const {
    return secs > 0 ? secs : static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  void Merge(const Phase& o) {
    secs = seconds() + o.seconds();
    proc_cpu_s += o.proc_cpu_s;
    client_cpu_s += o.client_cpu_s;
    ops += o.ops;
    failed += o.failed;
    lat.Append(o.lat);
  }
};

// Counters read from each layer's exported stats before and after the
// timed phase (traced runs only).
struct Snap {
  core::KvStoreStats kv;
  uint64_t consolidations = 0, splits = 0, cas_failures = 0, page_loads = 0;
  uint64_t rc_hits = 0, blind = 0;
  uint64_t touches = 0, evictions = 0, resident = 0;
  uint64_t log_bytes = 0, log_records = 0, log_groups = 0, gc_runs = 0;
  double dead_fraction = 0;
  uint64_t dev_reads = 0, dev_read_bytes = 0, dev_write_bytes = 0, path_units = 0;
  costperf::maintenance::SchedulerStats sched;
  server::ServerCounters srv;
};

struct Metric {
  std::string name, unit;
  double value;
  size_t samples;  // 0 when the value is not a percentile
};

class Run {
 public:
  Run(const Spec& spec, uint64_t seed, bool trace)
      : spec_(spec),
        seed_(seed),
        trace_(trace),
        codec_(spec.value_bytes, spec.structured, seed),
        model_(spec.keys) {
    // The data set (where the hot ranks land, the load order) is fixed per
    // workload; --seed draws the op sequence and the value contents.
    const uint64_t layout = LayoutSeed(spec);
    const Zipf zipf(spec.keys, kZipfTheta);
    const RankMap map(spec.keys, layout);
    for (int o = 0; o < spec.owners; ++o) streams_.push_back(MakeStream(spec, zipf, map, seed, o));
    pos_.assign(static_cast<size_t>(spec.owners), 0);
    load_order_.resize(spec.keys);
    for (uint64_t i = 0; i < spec.keys; ++i) load_order_[i] = static_cast<uint32_t>(i);
    Rng r(layout ^ 0x10adull);
    for (uint64_t i = spec.keys - 1; i > 0; --i) std::swap(load_order_[i], load_order_[r.Uniform(i + 1)]);
  }

  ~Run() { Teardown(); }

  // Builds, loads, warms and settles a fresh store and reports the seconds
  // taken in all, by the load and by settling; false when set-up failed.
  bool Setup(double* total_s, double* load_s, double* settle_s);
  Phase Timed(double seconds);
  std::vector<Metric> EndToEnd(Phase* p, double dram_bytes_per_user_byte) const;
  uint64_t MemoryFootprintBytes() const { return store_->MemoryFootprintBytes(); }
  std::vector<Metric> PerLayer(Phase* p, const Snap& a, const Snap& b, double load_keys_per_s,
                               double settle_s);
  Snap TakeSnap();
  // Every key against the model, then checkpoint + recovery for caching
  // stores, then the structural invariants.
  bool VerifyAfter(bool perturb);

  Checker& checker() { return check_; }

 private:
  void Teardown();
  std::unique_ptr<core::ShardedStore> Build() const;
  core::CachingStore* Caching(size_t i) const {
    return static_cast<core::CachingStore*>(store_->shard(i));
  }
  // Runs the clients until duration_ns has passed (0 = no time limit) or
  // each has done max_ops operations.
  Phase DriveInProcess(uint64_t duration_ns, uint64_t max_ops, bool record);
  void ClientLoop(int owner, uint64_t deadline, uint64_t max_ops, bool record, Phase* out);
  Phase DriveWire(uint64_t duration_ns, uint64_t max_frames, bool record);
  void QueueFrame(WireConn* c, int owner);
  bool ConsumeResponses(WireConn* c, uint64_t now, bool record, Phase* out, size_t* done);
  bool VerifyStore(core::KvStore* store, const char* label);

  const Spec& spec_;
  const uint64_t seed_;
  const bool trace_;
  ValueCodec codec_;
  Model model_;
  Checker check_;
  std::vector<std::vector<uint32_t>> streams_;
  std::vector<size_t> pos_;
  std::vector<uint32_t> load_order_;

  std::unique_ptr<core::ShardedStore> store_;
  std::unique_ptr<TimingStore> timing_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::unique_ptr<WireConn>> conns_;
  TimingStore::Calls reads_, writes_, stats_;
};

std::unique_ptr<core::ShardedStore> Run::Build() const {
  if (spec_.backend == Backend::kMemory) return core::ShardedStore::OfMemory(kShards);
  // Only the budgets and the worker count are set; every other option
  // stays at its shipped default.
  core::CachingStoreOptions o;
  o.memory_budget_bytes =
      static_cast<uint64_t>(spec_.dram_fraction * static_cast<double>(DataBytes(spec_))) / kShards;
  o.tier.css_budget_bytes =
      static_cast<uint64_t>(spec_.css_fraction * static_cast<double>(DataBytes(spec_))) / kShards;
  o.background.workers = spec_.workers;
  return core::ShardedStore::OfCaching(kShards, o);
}

void Run::Teardown() {
  conns_.clear();
  if (server_) server_->Stop();
  server_.reset();
  timing_.reset();
  store_.reset();
}

bool Run::Setup(double* total_s, double* load_s, double* settle_s) {
  Teardown();
  model_.Reset();
  std::fill(pos_.begin(), pos_.end(), 0);

  const uint64_t t0 = NowNs();
  store_ = Build();
  std::vector<core::KvEntry> batch(256);
  core::BatchWriteResult result;
  for (uint64_t i = 0; i < spec_.keys; i += batch.size()) {
    const size_t n = std::min<uint64_t>(batch.size(), spec_.keys - i);
    for (size_t j = 0; j < n; ++j) {
      const uint32_t idx = load_order_[i + j];
      batch[j].first.resize(kKeyBytes);
      FormatKey(idx, batch[j].first.data());
      codec_.Encode(idx, 1, &batch[j].second);
    }
    std::span<const core::KvEntry> entries(batch.data(), n);
    if (!store_->WriteBatch(entries, &result).ok() || !result.all_ok()) {
      std::fprintf(stderr, "kvbench: load failed: %s\n", result.FirstError().ToString().c_str());
      return false;
    }
  }
  const uint64_t t_loaded = NowNs();

  if (spec_.wire) {
    core::KvStore* served = store_.get();
    if (trace_) {
      timing_ = std::make_unique<TimingStore>(store_.get());
      served = timing_.get();
    }
    server::ServerOptions so;
    so.io_threads = 1;
    server_ = std::make_unique<server::Server>(served, so);
    if (Status s = server_->Start(); !s.ok()) {
      std::fprintf(stderr, "kvbench: server start failed: %s\n", s.ToString().c_str());
      return false;
    }
    for (int o = 0; o < spec_.owners; ++o) {
      auto c = std::make_unique<WireConn>();
      c->fd = ConnectTo(server_->port());
      if (c->fd < 0) {
        std::fprintf(stderr, "kvbench: connect failed\n");
        return false;
      }
      conns_.push_back(std::move(c));
    }
  }

  // Warm-up: the workload's own traffic, untimed, a quarter of the key
  // space long.
  const uint64_t warm_ops = spec_.keys / 4;
  Phase warm = spec_.wire ? DriveWire(0, warm_ops / kFrameKeys, false)
                          : DriveInProcess(0, warm_ops / static_cast<uint64_t>(spec_.owners), false);
  if (warm.failed != 0) {
    std::fprintf(stderr, "kvbench: %" PRIu64 " operations failed during warm-up\n", warm.failed);
    return false;
  }

  // Settled point: no maintenance signal pending, queued or running.
  const uint64_t t_settle = NowNs();
  if (auto* sched = store_->maintenance_scheduler()) sched->Quiesce();
  const uint64_t t1 = NowNs();
  *total_s = static_cast<double>(t1 - t0) * 1e-9;
  *load_s = static_cast<double>(t_loaded - t0) * 1e-9;
  *settle_s = static_cast<double>(t1 - t_settle) * 1e-9;
  if (timing_) timing_->Take(&reads_, &writes_, &stats_);
  return true;
}

Phase Run::Timed(double seconds) {
  const uint64_t ns = static_cast<uint64_t>(seconds * 1e9);
  Phase p = spec_.wire ? DriveWire(ns, ~0ull, true) : DriveInProcess(ns, ~0ull, true);
  // Footprint and counters are read at a settled point, not mid-eviction.
  if (auto* sched = store_->maintenance_scheduler()) sched->Quiesce();
  if (timing_) timing_->Take(&reads_, &writes_, &stats_);
  return p;
}

Phase Run::DriveInProcess(uint64_t duration_ns, uint64_t max_ops, bool record) {
  const size_t n = static_cast<size_t>(spec_.owners);
  std::vector<Phase> outs(n);
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> deadline{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      uint64_t d;
      while ((d = deadline.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
      ClientLoop(static_cast<int>(t), d, max_ops, record, &outs[t]);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  Phase p;
  p.proc_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  p.start_ns = NowNs();
  deadline.store(duration_ns == 0 ? ~0ull : p.start_ns + duration_ns, std::memory_order_release);
  for (auto& th : threads) th.join();
  p.proc_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - p.proc_cpu_s;
  for (const Phase& o : outs) {
    p.end_ns = std::max(p.end_ns, o.end_ns);
    p.ops += o.ops;
    p.failed += o.failed;
    p.client_cpu_s += o.client_cpu_s;
    p.lat.Append(o.lat);
  }
  return p;
}

void Run::ClientLoop(int owner, uint64_t deadline, uint64_t max_ops, bool record, Phase* out) {
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const std::vector<uint32_t>& stream = streams_[static_cast<size_t>(owner)];
  size_t pos = pos_[static_cast<size_t>(owner)];
  core::KvStore* store = store_.get();
  std::string key(kKeyBytes, '\0'), value, got;
  Latencies& lat = out->lat;
  if (record) {
    lat.read.reserve(1 << 22);
    lat.write.reserve(1 << 20);
  }
  uint64_t ops = 0, failed = 0;
  uint64_t now = NowNs();
  while (ops < max_ops && now < deadline) {
    const uint32_t e = stream[pos++ & (kStreamLen - 1)];
    const uint64_t idx = e & ~kWriteBit;
    FormatKey(idx, key.data());
    if (e & kWriteBit) {
      const uint32_t v = model_.BeginWrite(idx);
      codec_.Encode(idx, v, &value);
      const uint64_t t0 = NowNs();
      const Status s = store->Put(key, value);
      now = NowNs();
      if (s.ok()) {
        model_.EndWrite(idx, v);
      } else {
        ++failed;
      }
      if (record) lat.write.push_back(Clamp32(now - t0));
    } else {
      const uint32_t lo = model_.acked(idx);
      if (trace_) costperf::opclass::Reset();
      const uint64_t t0 = NowNs();
      const Status s = store->Get(key, &got);
      now = NowNs();
      const uint32_t d = Clamp32(now - t0);
      const uint32_t hi = model_.sent(idx);
      uint32_t v = 0;
      if (!s.ok()) {
        ++failed;
      } else if (!codec_.Decode(idx, got, &v) || v < lo || v > hi) {
        check_.Fail("read of key " + std::to_string(idx) + " returned version " +
                    std::to_string(v) + ", expected [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "] or a malformed value");
      }
      if (record) {
        lat.read.push_back(d);
        if (trace_) {
          const costperf::OpClass c = costperf::opclass::Last();
          if (c == costperf::OpClass::kMm) lat.mm.push_back(d);
          if (c == costperf::OpClass::kSs) lat.ss.push_back(d);
        }
      }
    }
    ++ops;
  }
  pos_[static_cast<size_t>(owner)] = pos;
  out->ops = ops;
  out->failed = failed;
  out->end_ns = now;
  out->client_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

void Run::QueueFrame(WireConn* c, int owner) {
  const std::vector<uint32_t>& stream = streams_[static_cast<size_t>(owner)];
  size_t& pos = pos_[static_cast<size_t>(owner)];
  Frame& f = c->ring[c->tail % kWindow];
  f.id = c->next_id++;
  f.write = (stream[pos & (kStreamLen - 1)] & kWriteBit) != 0;
  std::string payload;
  costperf::PutFixed32(&payload, static_cast<uint32_t>(kFrameKeys));
  char key[kKeyBytes];
  std::string value;
  for (size_t k = 0; k < kFrameKeys; ++k) {
    const uint32_t idx = stream[pos++ & (kStreamLen - 1)] & ~kWriteBit;
    f.idx[k] = idx;
    FormatKey(idx, key);
    server::AppendLengthPrefixed(&payload, std::string_view(key, kKeyBytes));
    if (f.write) {
      f.ver[k] = model_.BeginWrite(idx);
      codec_.Encode(idx, f.ver[k], &value);
      server::AppendLengthPrefixed(&payload, value);
    } else {
      f.ver[k] = model_.acked(idx);
    }
  }
  server::AppendFrame(&c->out, f.write ? server::kOpWriteBatch : server::kOpMultiGet, f.id, 0,
                      payload);
  f.send_ns = NowNs();
  c->tail++;
}

// Parses every complete response on `c`, checking each against the frame
// it answers. Returns false on a protocol violation.
bool Run::ConsumeResponses(WireConn* c, uint64_t now, bool record, Phase* out, size_t* done) {
  while (true) {
    const char* base = c->in.data() + c->in_used;
    const size_t avail = c->in.size() - c->in_used;
    server::FrameHeader h;
    const server::DecodeResult dr = server::DecodeHeader(base, avail, &h);
    if (dr == server::DecodeResult::kNeedMore) break;
    if (dr != server::DecodeResult::kOk) return false;
    if (avail < h.header_size + h.payload_len) break;
    std::string_view payload(base + h.header_size, h.payload_len);
    c->in_used += h.header_size + h.payload_len;
    if (c->head == c->tail) return false;
    const Frame& f = c->ring[c->head % kWindow];
    c->head++;
    ++*done;
    if (h.request_id != f.id) return false;
    const uint32_t lat = Clamp32(now - f.send_ns);
    const uint8_t op = h.opcode & ~server::kResponseBit;
    uint32_t count = 0;
    if (op != (f.write ? server::kOpWriteBatch : server::kOpMultiGet) ||
        !server::GetU32(&payload, &count) || count != kFrameKeys) {
      out->failed += kFrameKeys;
      out->ops += kFrameKeys;
      continue;
    }
    for (size_t k = 0; k < kFrameKeys; ++k) {
      uint8_t code = 0;
      if (!server::GetU8(&payload, &code)) return false;
      const bool ok = server::DecodeStatusCode(code) == costperf::StatusCode::kOk;
      if (f.write) {
        if (ok) model_.EndWrite(f.idx[k], f.ver[k]);
        else ++out->failed;
        continue;
      }
      std::string_view v;
      if (!server::GetLengthPrefixed(&payload, &v)) return false;
      if (!ok) {
        ++out->failed;
        continue;
      }
      uint32_t ver = 0;
      const uint32_t hi = model_.sent(f.idx[k]);
      if (!codec_.Decode(f.idx[k], v, &ver) || ver < f.ver[k] || ver > hi) {
        check_.Fail("MULTIGET of key " + std::to_string(f.idx[k]) + " returned version " +
                    std::to_string(ver) + ", expected [" + std::to_string(f.ver[k]) + ", " +
                    std::to_string(hi) + "] or a malformed value");
      }
    }
    out->ops += kFrameKeys;
    if (record) (f.write ? out->lat.write : out->lat.read).push_back(lat);
  }
  if (c->in_used == c->in.size()) {
    c->in.clear();
    c->in_used = 0;
  } else if (c->in_used > (1u << 16)) {
    c->in.erase(0, c->in_used);
    c->in_used = 0;
  }
  return true;
}

bool FlushConn(WireConn* c) {
  while (c->out_sent < c->out.size()) {
    const ssize_t w = send(c->fd, c->out.data() + c->out_sent, c->out.size() - c->out_sent,
                           MSG_NOSIGNAL);
    if (w > 0) {
      c->out_sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  if (c->out_sent == c->out.size()) {
    c->out.clear();
    c->out_sent = 0;
  }
  return true;
}

Phase Run::DriveWire(uint64_t duration_ns, uint64_t max_frames, bool record) {
  Phase p;
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  p.proc_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  p.start_ns = NowNs();
  const uint64_t deadline = duration_ns == 0 ? ~0ull : p.start_ns + duration_ns;
  if (record) p.lat.read.reserve(1 << 20);
  uint64_t queued = 0;
  auto sending = [&](uint64_t now) { return now < deadline && queued < max_frames; };
  for (size_t o = 0; o < conns_.size(); ++o) {
    for (size_t k = 0; k < kWindow && sending(NowNs()); ++k, ++queued) {
      QueueFrame(conns_[o].get(), static_cast<int>(o));
    }
    FlushConn(conns_[o].get());
  }
  std::vector<pollfd> pfds(conns_.size());
  uint64_t last_progress = NowNs();
  bool broken = false;
  while (!broken) {
    bool pending = false;
    for (const auto& c : conns_) pending |= c->head != c->tail;
    if (!pending) break;
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i]->fd;
      pfds[i].events = POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    if (poll(pfds.data(), pfds.size(), 100) < 0 && errno != EINTR) break;
    for (size_t i = 0; i < conns_.size() && !broken; ++i) {
      WireConn* c = conns_[i].get();
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[64 * 1024];
        while (true) {
          const ssize_t r = read(c->fd, buf, sizeof(buf));
          if (r > 0) {
            c->in.append(buf, static_cast<size_t>(r));
            continue;
          }
          if (r < 0 && errno == EINTR) continue;
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          broken = true;  // peer closed or socket error
          break;
        }
        size_t done = 0;
        const uint64_t now = NowNs();
        if (!ConsumeResponses(c, now, record, &p, &done)) broken = true;
        if (done > 0) {
          last_progress = now;
          p.end_ns = now;
        }
        for (size_t k = 0; k < done && sending(now); ++k, ++queued) {
          QueueFrame(c, static_cast<int>(i));
        }
      }
      if (!c->out.empty() && !FlushConn(c)) broken = true;
    }
    if (NowNs() - last_progress > 20'000'000'000ull) broken = true;
  }
  if (broken) {
    std::fprintf(stderr, "kvbench: wire connection failed or stalled\n");
    for (const auto& c : conns_) p.failed += (c->tail - c->head) * kFrameKeys;
    p.ops += p.failed;
  }
  p.proc_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - p.proc_cpu_s;
  p.client_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  if (p.end_ns == 0) p.end_ns = NowNs();
  return p;
}

Snap Run::TakeSnap() {
  Snap s;
  s.kv = store_->Stats();
  if (spec_.backend == Backend::kCaching) {
    for (size_t i = 0; i < store_->shard_count(); ++i) {
      core::CachingStore* cs = Caching(i);
      const auto bw = cs->tree()->stats();
      s.consolidations += bw.consolidations;
      s.splits += bw.leaf_splits + bw.inner_splits + bw.root_splits;
      s.cas_failures += bw.cas_failures;
      s.page_loads += bw.page_loads;
      s.rc_hits += bw.record_cache_hits;
      s.blind += bw.blind_updates;
      const auto cache = cs->cache()->stats();
      s.touches += cache.touches;
      s.evictions += cache.evictions;
      s.resident += cache.resident_bytes;
      const auto log = cs->log_store()->stats();
      s.log_bytes += log.bytes_appended;
      s.log_records += log.records_appended;
      s.log_groups += log.append_groups;
      s.gc_runs += log.gc_runs;
      s.dead_fraction += cs->log_store()->DeadSpaceFraction() / static_cast<double>(kShards);
      const auto dev = cs->device()->stats();
      s.dev_reads += dev.reads;
      s.dev_read_bytes += dev.bytes_read;
      s.dev_write_bytes += dev.bytes_written;
      s.path_units += dev.path_units;
    }
  }
  if (auto* sched = store_->maintenance_scheduler()) s.sched = sched->stats();
  if (server_) s.srv = server_->counters();
  return s;
}

std::vector<Metric> Run::EndToEnd(Phase* p, double dram_bytes_per_user_byte) const {
  const double ops = static_cast<double>(std::max<uint64_t>(p->ops, 1));
  Pct r = Percentiles(&p->lat.read);
  Pct w = Percentiles(&p->lat.write);
  return {
      {"ops_per_s", "1/s", static_cast<double>(p->ops) / p->seconds(), 0},
      {"read_p50_us", "us", r.p50_us, r.n},
      {"read_p99_us", "us", r.p99_us, TailOk(r.n) ? r.n : 0},
      {"write_p50_us", "us", w.p50_us, w.n},
      {"write_p99_us", "us", w.p99_us, TailOk(w.n) ? w.n : 0},
      {"cpu_us_per_op", "us", p->proc_cpu_s * 1e6 / ops, 0},
      {"dram_bytes_per_user_byte", "B/B", dram_bytes_per_user_byte, 0},
  };
}

std::vector<Metric> Run::PerLayer(Phase* p, const Snap& a, const Snap& b, double load_keys_per_s,
                                  double settle_s) {
  const double ops = static_cast<double>(std::max<uint64_t>(p->ops, 1));
  const double kop = ops / 1000.0;
  const double secs = p->seconds();
  const bool caching = spec_.backend == Backend::kCaching;
  const bool ss = caching && spec_.dram_fraction > 0;
  const double other_cpu_us_per_op = (p->proc_cpu_s - p->client_cpu_s) * 1e6 / ops;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  // Bytes the clients wrote in the timed phase.
  const double user_write_bytes =
      std::max(1.0, static_cast<double>(p->lat.write.size()) * (spec_.wire ? kFrameKeys : 1) *
                        static_cast<double>(kKeyBytes + spec_.value_bytes));
  std::vector<Metric> m;
  auto add = [&](const char* name, const char* unit, double v, size_t n = 0) {
    m.push_back({name, unit, v, n});
  };

  // server: the timing decorator's view of the calls Server made.
  double self_us = 0, keys_per_call = 0, frames_per_window = 0, stats_ms_per_s = 0;
  double mget_us_per_key = 0, wbatch_us_per_entry = 0;
  if (spec_.wire) {
    std::vector<uint32_t> rtt = p->lat.read;
    rtt.insert(rtt.end(), p->lat.write.begin(), p->lat.write.end());
    std::vector<std::pair<uint32_t, uint32_t>> calls = reads_.samples;
    calls.insert(calls.end(), writes_.samples.begin(), writes_.samples.end());
    for (auto& c : calls) c.second = std::max<uint32_t>(1, c.second / kFrameKeys);
    self_us = Percentiles(&rtt).p50_us - FrameWeightedMedianUs(std::move(calls));
    keys_per_call = static_cast<double>(reads_.items + writes_.items) /
                    static_cast<double>(std::max<uint64_t>(1, reads_.calls + writes_.calls));
    frames_per_window = d(b.srv.frames_in, a.srv.frames_in) /
                        std::max(1.0, d(b.srv.windows, a.srv.windows));
    stats_ms_per_s = static_cast<double>(stats_.ns) * 1e-6 / secs;
    mget_us_per_key = static_cast<double>(reads_.ns) * 1e-3 /
                      static_cast<double>(std::max<uint64_t>(1, reads_.items));
    wbatch_us_per_entry = static_cast<double>(writes_.ns) * 1e-3 /
                          static_cast<double>(std::max<uint64_t>(1, writes_.items));
  }
  add("server.self_us_p50", "us", self_us);
  add("server.cpu_us_per_key", "us", spec_.wire ? other_cpu_us_per_op : 0);
  add("server.keys_per_store_call", "count", keys_per_call);
  add("server.frames_per_window", "count", frames_per_window);
  add("server.stats_ms_per_s", "ms/s", stats_ms_per_s);

  // core
  add("core.multiget_us_per_key", "us", mget_us_per_key);
  add("core.writebatch_us_per_entry", "us", wbatch_us_per_entry);
  std::vector<double> stats_us;
  for (int i = 0; i < 21; ++i) {
    const uint64_t t0 = NowNs();
    (void)store_->Stats();
    stats_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  add("core.stats_us", "us", Median(stats_us), stats_us.size());
  const double hits = d(b.kv.hits, a.kv.hits), misses = d(b.kv.misses, a.kv.misses);
  add("core.miss_fraction", "ratio", hits + misses > 0 ? misses / (hits + misses) : 0);
  Pct mm = Percentiles(&p->lat.mm), ssr = Percentiles(&p->lat.ss);
  add("core.mm_read_us_p50", "us", mm.p50_us, mm.n);
  add("core.ss_read_us_p50", "us", ssr.p50_us, ssr.n);
  add("core.r_measured", "ratio", mm.n > 0 && ssr.n > 0 ? ssr.mean_us / mm.mean_us : 0);

  // bwtree: direct calls on the owning shard's tree for sampled keys.
  const std::vector<uint32_t>& stream = streams_[0];
  std::string key(kKeyBytes, '\0'), got;
  double bw_get = 0, bw_mget = 0;
  size_t bw_get_n = 0;
  if (caching) {
    std::vector<uint32_t> lat;
    for (size_t i = 0; i < 20000; ++i) {
      const uint64_t idx = stream[(i * 7919) & (kStreamLen - 1)] & ~kWriteBit;
      FormatKey(idx, key.data());
      costperf::bwtree::BwTree* tree = Caching(store_->ShardIndexOf(key))->tree();
      const uint64_t t0 = NowNs();
      (void)tree->Get(key, &got);
      lat.push_back(Clamp32(NowNs() - t0));
    }
    Pct g = Percentiles(&lat);
    bw_get = g.p50_us;
    bw_get_n = g.n;
    // 16-key groups that all live on one shard.
    std::vector<std::vector<std::string>> pending(kShards);
    std::vector<std::string> values(kFrameKeys);
    std::vector<Status> statuses(kFrameKeys);
    std::vector<core::BatchGetOp> batch(kFrameKeys);
    uint64_t ns = 0, keys = 0;
    for (size_t i = 0; keys < 16000 && i < kStreamLen; ++i) {
      const uint64_t idx = stream[(i * 104729) & (kStreamLen - 1)] & ~kWriteBit;
      std::string k = Key(idx);
      const size_t shard = store_->ShardIndexOf(k);
      pending[shard].push_back(std::move(k));
      if (pending[shard].size() < kFrameKeys) continue;
      for (size_t j = 0; j < kFrameKeys; ++j) {
        batch[j].key = Slice(pending[shard][j]);
        batch[j].value = &values[j];
        batch[j].status = &statuses[j];
      }
      const uint64_t t0 = NowNs();
      Caching(shard)->tree()->MultiGetBatch(batch.data(), kFrameKeys);
      ns += NowNs() - t0;
      keys += kFrameKeys;
      pending[shard].clear();
    }
    bw_mget = static_cast<double>(ns) * 1e-3 / static_cast<double>(std::max<uint64_t>(1, keys));
  }
  add("bwtree.get_us_p50", "us", bw_get, bw_get_n);
  add("bwtree.multiget_us_per_key", "us", bw_mget);
  add("bwtree.consolidations_per_kop", "1/kop", d(b.consolidations, a.consolidations) / kop);
  add("bwtree.splits_per_kop", "1/kop", d(b.splits, a.splits) / kop);
  add("bwtree.cas_failures_per_kop", "1/kop", d(b.cas_failures, a.cas_failures) / kop);
  add("bwtree.page_loads_per_kop", "1/kop", d(b.page_loads, a.page_loads) / kop);
  add("bwtree.record_cache_hits_per_kop", "1/kop", d(b.rc_hits, a.rc_hits) / kop);
  add("bwtree.blind_updates_per_kop", "1/kop", d(b.blind, a.blind) / kop);

  // masstree
  double mt_get = 0, mt_foot = 0;
  size_t mt_n = 0;
  if (spec_.backend == Backend::kMemory) {
    std::vector<uint32_t> lat;
    uint64_t foot = 0;
    for (size_t i = 0; i < kShards; ++i) {
      foot += static_cast<core::MemoryStore*>(store_->shard(i))->tree()->MemoryFootprintBytes();
    }
    for (size_t i = 0; i < 20000; ++i) {
      const uint64_t idx = stream[(i * 7919) & (kStreamLen - 1)] & ~kWriteBit;
      FormatKey(idx, key.data());
      auto* tree = static_cast<core::MemoryStore*>(store_->shard(store_->ShardIndexOf(key)))->tree();
      const uint64_t t0 = NowNs();
      auto r = tree->Get(key);
      lat.push_back(Clamp32(NowNs() - t0));
    }
    Pct g = Percentiles(&lat);
    mt_get = g.p50_us;
    mt_n = g.n;
    mt_foot = static_cast<double>(foot) / static_cast<double>(DataBytes(spec_));
  }
  add("masstree.get_us_p50", "us", mt_get, mt_n);
  add("masstree.footprint_bytes_per_user_byte", "B/B", mt_foot);

  // llama
  const double budget = spec_.dram_fraction * static_cast<double>(DataBytes(spec_));
  add("llama.cache.touches_per_op", "count", d(b.touches, a.touches) / ops);
  add("llama.cache.evictions_per_kop", "1/kop", d(b.evictions, a.evictions) / kop);
  add("llama.cache.resident_over_budget", "ratio",
      budget > 0 ? static_cast<double>(b.resident) / budget : 0);
  add("llama.log.append_bytes_per_user_byte", "B/B", d(b.log_bytes, a.log_bytes) / user_write_bytes);
  add("llama.log.mean_append_group", "count",
      b.log_groups > a.log_groups ? d(b.log_records, a.log_records) / d(b.log_groups, a.log_groups)
                                  : 0);
  add("llama.log.gc_segments_per_kop", "1/kop", d(b.gc_runs, a.gc_runs) / kop);
  add("llama.log.dead_fraction", "ratio", b.dead_fraction);

  // storage: device counters, plus direct page-sized reads.
  double dev_read_us = 0;
  size_t dev_read_n = 0;
  if (ss) {
    std::vector<uint32_t> lat;
    std::vector<char> buf(4096);
    Rng r(seed_ ^ 0xd15cull);
    for (size_t i = 0; i < 4000; ++i) {
      core::CachingStore* cs = Caching(i % kShards);
      const uint64_t extent = std::max<uint64_t>(1, cs->device()->stats().occupied_bytes / 4096);
      const uint64_t off = r.Uniform(extent) * 4096;
      const uint64_t t0 = NowNs();
      (void)cs->device()->Read(off, buf.size(), buf.data());
      lat.push_back(Clamp32(NowNs() - t0));
    }
    Pct g = Percentiles(&lat);
    dev_read_us = g.p50_us;
    dev_read_n = g.n;
  }
  add("storage.reads_per_op", "count", d(b.dev_reads, a.dev_reads) / ops);
  add("storage.read_bytes_per_op", "B", d(b.dev_read_bytes, a.dev_read_bytes) / ops);
  add("storage.read_us_p50", "us", dev_read_us, dev_read_n);
  add("storage.write_bytes_per_user_byte", "B/B",
      d(b.dev_write_bytes, a.dev_write_bytes) / user_write_bytes);
  add("storage.path_units_per_op", "count", d(b.path_units, a.path_units) / ops);

  // maintenance
  add("maintenance.cpu_us_per_op", "us", spec_.workers > 0 ? other_cpu_us_per_op : 0);
  add("maintenance.steps_per_kop", "1/kop", d(b.sched.steps, a.sched.steps) / kop);
  add("maintenance.requeues_per_kop", "1/kop", d(b.sched.requeues, a.sched.requeues) / kop);
  add("maintenance.write_stalls_per_kop", "1/kop", d(b.kv.write_stalls, a.kv.write_stalls) / kop);
  add("maintenance.stall_us_per_op", "us",
      d(b.kv.stall_micros_total, a.kv.stall_micros_total) / ops);
  add("maintenance.foreground_ops", "count",
      d(b.kv.foreground_maintenance_ops, a.kv.foreground_maintenance_ops));

  // compression
  add("compression.demotions_per_kop", "1/kop", d(b.kv.tier_demotions, a.kv.tier_demotions) / kop);
  add("compression.css_hits_per_kop", "1/kop", d(b.kv.tier_css_hits, a.kv.tier_css_hits) / kop);
  add("compression.refusals_per_kop", "1/kop",
      d(b.kv.tier_demotion_refusals, a.kv.tier_demotion_refusals) / kop);
  add("compression.measured_ratio", "ratio", b.kv.MeasuredCompressionRatio());

  // epoch
  add("epoch.reclaimed_per_kop", "1/kop",
      d(b.kv.epoch_reclaimed_items, a.kv.epoch_reclaimed_items) / kop);

  // setup
  add("setup.load_keys_per_s", "1/s", load_keys_per_s);
  add("setup.settle_s", "s", settle_s);
  return m;
}

bool Run::VerifyStore(core::KvStore* store, const char* label) {
  constexpr size_t kChunk = 64;
  std::vector<std::string> keys(kChunk);
  core::BatchReadResult out;
  uint64_t bad = 0;
  for (uint64_t i = 0; i < spec_.keys; i += kChunk) {
    const size_t n = std::min<uint64_t>(kChunk, spec_.keys - i);
    for (size_t j = 0; j < n; ++j) keys[j] = Key(i + j);
    (void)store->MultiGet(std::span<const std::string>(keys.data(), n), &out);
    for (size_t j = 0; j < n; ++j) {
      const uint64_t idx = i + j;
      uint32_t v = 0;
      const uint32_t want = model_.acked(idx);
      if (!out.statuses[j].ok() || !codec_.Decode(idx, out.values[j], &v) || v != want ||
          model_.sent(idx) != want) {
        if (bad++ < 5) {
          check_.Fail(std::string(label) + ": key " + std::to_string(idx) + " read back " +
                      (out.statuses[j].ok() ? "version " + std::to_string(v)
                                            : out.statuses[j].ToString()) +
                      ", model says " + std::to_string(want));
        }
      }
    }
  }
  if (bad > 5) check_.Fail(std::string(label) + ": " + std::to_string(bad) + " keys wrong");
  return bad == 0;
}

bool Run::VerifyAfter(bool perturb) {
  conns_.clear();
  if (server_) server_->Stop();
  if (perturb) model_.Perturb(spec_.keys / 3);
  bool ok = VerifyStore(store_.get(), "after run");
  if (spec_.backend != Backend::kCaching) {
    for (const auto& v : store_->CheckInvariants()) {
      check_.Fail("invariant: " + v.ToString());
      ok = false;
    }
    return ok;
  }
  if (auto* sched = store_->maintenance_scheduler()) {
    sched->Quiesce();
    sched->Stop();
  }
  for (size_t i = 0; i < kShards; ++i) {
    if (Status s = Caching(i)->Checkpoint(); !s.ok()) {
      check_.Fail("checkpoint of shard " + std::to_string(i) + ": " + s.ToString());
      return false;
    }
  }
  for (const auto& v : store_->CheckInvariants()) {
    check_.Fail("invariant before recovery: " + v.ToString());
    ok = false;
  }
  // A fresh store over each shard's device, rebuilt from its log.
  std::vector<std::unique_ptr<core::KvStore>> shards;
  for (size_t i = 0; i < kShards; ++i) {
    core::CachingStoreOptions o = Caching(i)->options();
    o.external_device = Caching(i)->device();
    o.background.scheduler = nullptr;
    o.background.workers = 0;
    auto fresh = std::make_unique<core::CachingStore>(o);
    if (Status s = fresh->Recover(); !s.ok()) {
      check_.Fail("recovery of shard " + std::to_string(i) + ": " + s.ToString());
      return false;
    }
    shards.push_back(std::move(fresh));
  }
  core::ShardedStore recovered(std::move(shards));
  ok = VerifyStore(&recovered, "after recovery") && ok;
  for (const auto& v : recovered.CheckInvariants()) {
    check_.Fail("invariant after recovery: " + v.ToString());
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------

void PrintJsonString(const std::string& s) { std::printf("\"%s\"", s.c_str()); }

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int workers = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "kvbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--seed") seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(next().c_str());
    else if (a == "--trace") trace = std::atoi(next().c_str());
    else if (a == "--workers") workers = std::atoi(next().c_str());
    else if (a == "--selftest") selftest = true;
    else {
      std::fprintf(stderr, "kvbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (selftest && workload.empty()) workload = "kv_hot";
  const Spec* known = std::find_if(std::begin(kSpecs), std::end(kSpecs),
                                   [&](const Spec& s) { return s.name == workload; });
  if (known == std::end(kSpecs) || seconds <= 0 || workers > 4) {
    std::fprintf(stderr, "usage: kvbench --workload kv_hot|kv_ss|wire_mget|mt_hot --seed N "
                         "--seconds S --trace 0|1 [--workers 0..4] [--selftest]\n");
    return 2;
  }
  Spec chosen = *known;
  // Reproduces figures under another maintenance mode (0 = inline); the
  // benchmark's own runs never pass it.
  if (workers >= 0 && chosen.backend == Backend::kCaching) {
    chosen.workers = static_cast<uint32_t>(workers);
  }
  const Spec* spec = &chosen;

  std::printf("host: cores=%u simd=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), costperf::simd::BackendName(), __VERSION__,
              KVBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d keys=%" PRIu64
              " value_bytes=%zu owners=%d workers=%u\n",
              std::string(spec->name).c_str(), seed, seconds, trace, spec->keys,
              spec->value_bytes, spec->owners, spec->workers);

  if (spec->one_cpu) {
    const int cpu = PinToCurrentCpu();
    if (cpu < 0) {
      std::fprintf(stderr, "kvbench: cannot pin the workload to one CPU\n");
      return 1;
    }
    std::printf("pinned: every thread on cpu %d\n", cpu);
  }

  // The run is kSetups segments: set up a fresh store, measure it for its
  // share of --seconds, check it. Pooling several store instances averages
  // out what differs between instances of the same inputs.
  Run run(*spec, seed, trace != 0);
  const double segment_s = (selftest ? std::min(seconds, 1.0) : seconds) / kSetups;
  std::vector<double> setup_s, load_s, settle_s, dram;
  std::vector<Metric> metrics;
  Phase all;
  bool verified = true;
  for (int i = 0; i < kSetups; ++i) {
    double t = 0, l = 0, st = 0;
    if (!run.Setup(&t, &l, &st)) return 1;
    setup_s.push_back(t);
    load_s.push_back(l);
    settle_s.push_back(st);
    Snap before, after;
    if (trace) before = run.TakeSnap();
    Phase p = run.Timed(segment_s);
    if (trace) after = run.TakeSnap();
    dram.push_back(static_cast<double>(run.MemoryFootprintBytes()) /
                   static_cast<double>(DataBytes(*spec)));
    std::printf("segment %d: setup_s=%.3f ops_per_s=%.0f cpu_us_per_op=%.3f\n", i + 1, t,
                static_cast<double>(p.ops) / p.seconds(),
                p.proc_cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(p.ops, 1)));
    // Per-layer figures come from the last segment, whose store is still
    // running when its probes are taken.
    if (trace && i == kSetups - 1) {
      metrics = run.PerLayer(&p, before, after,
                             static_cast<double>(spec->keys) / Median(load_s), Median(settle_s));
    }
    all.Merge(p);
    verified = run.VerifyAfter(selftest && i == kSetups - 1) && verified;
  }
  if (!trace) {
    double dram_mean = 0;
    for (double d : dram) dram_mean += d / static_cast<double>(dram.size());
    metrics = run.EndToEnd(&all, dram_mean);
    metrics.push_back({"setup_s", "s", Median(setup_s), setup_s.size()});
  }
  Phase& p = all;
  const uint64_t wrong = run.checker().count();
  const bool correct = verified && wrong == 0;
  std::printf("check: wrong_answers=%" PRIu64 " final=%s\n", wrong, verified ? "ok" : "FAILED");
  std::printf("ops: attempted=%" PRIu64 " failed=%" PRIu64 " seconds=%.3f ops_per_s=%.0f\n",
              p.ops, p.failed, p.seconds(), static_cast<double>(p.ops) / p.seconds());
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-40s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (selftest) {
    // The model was corrupted on purpose: the check must have failed.
    std::printf("selftest: %s\n", correct ? "FAILED (the corrupted model went unnoticed)"
                                          : "ok (the corrupted model entry was caught)");
    return correct ? 1 : 0;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", std::max<uint64_t>(p.ops, 1), p.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s", i ? ", " : "");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) { return kvbench::Main(argc, argv); }
