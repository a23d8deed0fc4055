#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/coding.h"
#include "fault/net_fault.h"

namespace costperf::server {

namespace {
// epoll_event.data.u64 tags for the two non-connection fds. Conn pointers
// are heap-allocated and aligned, so they can never collide with 0 or 1.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

constexpr size_t kReadChunk = 64 * 1024;
// Upper bound on keys/entries one frame may carry; 8 bytes is the minimum
// wire cost per element, so this also follows from kMaxPayloadLen, but an
// explicit cap keeps the arithmetic obvious.
constexpr uint32_t kMaxBatchElements = 1u << 20;
// "No shed boundary set" sentinel for Conn::shed_boundary.
constexpr uint64_t kNoShed = ~uint64_t{0};
}  // namespace

// Per-connection state. A connection lives on exactly one I/O thread, so
// none of this needs synchronization.
struct Server::Conn {
  int fd = -1;
  IoThread* owner = nullptr;
  uint32_t interest = 0;  // epoll events currently registered
  bool close_after_flush = false;

  std::string in;          // [in_consumed, in.size()) not yet parsed
  size_t in_consumed = 0;
  std::string out;         // [out_sent, out.size()) not yet written
  size_t out_sent = 0;

  // Optional fault-injection wrapper around read()/send(); null in
  // production (ServerOptions::net_fault unset).
  std::unique_ptr<fault::NetChannel> channel;

  // Stream offset (bytes ever received) of in[0]; lets shed_boundary
  // survive buffer compaction.
  uint64_t stream_base = 0;
  // Queue-depth shed: frames whose first byte lies at or past this stream
  // offset arrived into an over-budget backlog and are answered
  // kUnavailable until the backlog drains. kNoShed = not shedding.
  uint64_t shed_boundary = kNoShed;
  // When the bytes now buffered were received (micros); deadline budgets
  // are measured from here.
  uint64_t recv_micros = 0;
  // Wall time (seconds) of the last write progress while output remains
  // unsent; 0 = not write-blocked. The watchdog kills connections blocked
  // past ServerOptions::write_stall_timeout_seconds.
  double blocked_since = 0;

  // Cached tenant-counters pointer; refreshed when tenant_id changes so
  // the registry mutex is off the per-frame path.
  uint32_t tenant_id = 0;
  TenantCounters* tenant = nullptr;
  bool tenant_valid = false;

  size_t unsent() const { return out.size() - out_sent; }
};

// Per-thread event loop state plus reusable window-batching scratch. The
// scratch vectors only ever grow, so steady-state window processing does
// not allocate.
struct Server::IoThread {
  size_t index = 0;
  Server* server = nullptr;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  Mutex pending_mu;
  std::vector<int> pending GUARDED_BY(pending_mu);

  // Which run is open: adjacent reads (GET/MULTIGET) coalesce into one
  // MultiGet; adjacent writes (PUT/WRITEBATCH) into one WriteBatch. Only
  // one run is open at a time, so emitting in run order preserves the
  // request order responses must follow.
  enum class Run { kNone, kRead, kWrite };
  Run open_run = Run::kNone;

  struct ReadSeg {
    uint8_t op;
    uint32_t request_id;
    uint32_t tenant_id;
    size_t start;
    size_t count;
    uint64_t expire_micros;  // absolute deadline; 0 = none
    bool expired;
  };
  std::vector<std::string> read_keys;  // slots reused across windows
  size_t read_used = 0;
  std::vector<ReadSeg> read_segs;
  core::BatchReadResult read_result;

  struct WriteSeg {
    uint8_t op;
    uint32_t request_id;
    uint32_t tenant_id;
    size_t start;
    size_t count;
    uint64_t expire_micros;  // absolute deadline; 0 = none
    bool expired;
  };
  std::vector<core::KvEntry> write_entries;  // slots reused across windows
  size_t write_used = 0;
  std::vector<WriteSeg> write_segs;
  core::BatchWriteResult write_result;

  std::string payload_scratch;

  // Watchdog sweep state: next sweep time and victim scratch (reused so a
  // sweep does not allocate in steady state).
  double next_watchdog = 0;
  std::vector<int> watchdog_victims;

  std::string* NextReadKey() {
    if (read_keys.size() <= read_used) read_keys.emplace_back();
    return &read_keys[read_used++];
  }
  core::KvEntry* NextWriteEntry() {
    if (write_entries.size() <= write_used) write_entries.emplace_back();
    return &write_entries[write_used++];
  }
};

Server::Server(core::KvStore* store, ServerOptions options, Clock* clock)
    : store_(store),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &default_clock_),
      tenants_(options_.max_tracked_tenants),
      admission_(clock_, options_.admission) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.io_threads < 1) {
    return Status::InvalidArgument("io_threads must be >= 1");
  }
  if (options_.io_threads > 1 && !store_->ConcurrentSafe()) {
    return Status::InvalidArgument(
        "store is not ConcurrentSafe; use io_threads=1 or a sharded store");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Status::IoError("socket: " + std::string(strerror(errno)));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IoError("bind: " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 512) != 0) {
    Status s = Status::IoError("listen: " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  stopping_.store(false, std::memory_order_release);
  io_threads_.clear();
  thread_counters_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    auto t = std::make_unique<IoThread>();
    t->index = static_cast<size_t>(i);
    t->server = this;
    t->epoll_fd = epoll_create1(0);
    t->wake_fd = eventfd(0, EFD_NONBLOCK);
    if (t->epoll_fd < 0 || t->wake_fd < 0) {
      Stop();
      return Status::IoError("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->wake_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenerTag;
      epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    thread_counters_.push_back(std::make_unique<ThreadCounters>());
    io_threads_.push_back(std::move(t));
  }
  running_.store(true, std::memory_order_release);
  for (auto& t : io_threads_) {
    IoThread* raw = t.get();
    raw->thread = std::thread([this, raw] { IoLoop(raw); });
  }
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped): still tear down half-built state.
    for (auto& t : io_threads_) {
      if (t->thread.joinable()) t->thread.join();
      if (t->wake_fd >= 0) close(t->wake_fd);
      if (t->epoll_fd >= 0) close(t->epoll_fd);
    }
    io_threads_.clear();
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& t : io_threads_) {
    uint64_t one = 1;
    ssize_t ignored = write(t->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  for (auto& t : io_threads_) {
    if (t->thread.joinable()) t->thread.join();
  }
  for (auto& t : io_threads_) {
    // A woken IoLoop exits without adopting handoffs, so fds accepted on
    // thread 0 but not yet adopted here would otherwise leak past Stop.
    // All threads are joined by now, so nobody pushes concurrently.
    std::vector<int> orphaned;
    {
      MutexLock lock(&t->pending_mu);
      orphaned.swap(t->pending);
    }
    for (int fd : orphaned) {
      close(fd);
      thread_counters_[t->index]->connections_closed.fetch_add(
          1, std::memory_order_relaxed);
    }
    if (t->wake_fd >= 0) close(t->wake_fd);
    if (t->epoll_fd >= 0) close(t->epoll_fd);
  }
  io_threads_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::IoLoop(IoThread* t) {
  epoll_event events[128];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(t->epoll_fd, events, 128, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kListenerTag) {
        AcceptReady(t);
        continue;
      }
      if (events[i].data.u64 == kWakeTag) {
        uint64_t drain;
        ssize_t ignored = read(t->wake_fd, &drain, sizeof(drain));
        (void)ignored;
        AdoptPending(t);
        continue;
      }
      HandleConnEvent(t, static_cast<Conn*>(events[i].data.ptr),
                      events[i].events);
    }
    MaybePollStoreStats();
    WatchdogSweep(t);
  }
  // Graceful-ish teardown: one best-effort flush per connection, then
  // close everything this thread owns.
  for (auto& [fd, conn] : t->conns) {
    (void)FlushOutput(t, conn.get());
    close(conn->fd);
    thread_counters_[t->index]->connections_closed.fetch_add(
        1, std::memory_order_relaxed);
  }
  t->conns.clear();
}

void Server::AcceptReady(IoThread* t) {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    thread_counters_[t->index]->connections_accepted.fetch_add(
        1, std::memory_order_relaxed);
    size_t target = next_thread_.fetch_add(1, std::memory_order_relaxed) %
                    io_threads_.size();
    IoThread* dst = io_threads_[target].get();
    if (dst == t) {
      auto conn = MakeConn(t, fd);
      epoll_event ev{};
      ev.events = conn->interest;
      ev.data.ptr = conn.get();
      epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      t->conns.emplace(fd, std::move(conn));
    } else {
      {
        MutexLock lock(&dst->pending_mu);
        dst->pending.push_back(fd);
      }
      uint64_t wake = 1;
      ssize_t ignored = write(dst->wake_fd, &wake, sizeof(wake));
      (void)ignored;
    }
  }
}

void Server::AdoptPending(IoThread* t) {
  std::vector<int> fds;
  {
    MutexLock lock(&t->pending_mu);
    fds.swap(t->pending);
  }
  for (int fd : fds) {
    auto conn = MakeConn(t, fd);
    epoll_event ev{};
    ev.events = conn->interest;
    ev.data.ptr = conn.get();
    epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    t->conns.emplace(fd, std::move(conn));
  }
}

std::unique_ptr<Server::Conn> Server::MakeConn(IoThread* t, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->owner = t;
  conn->interest = EPOLLIN;
  // Channels are created in adoption order on each thread; with one I/O
  // thread (the chaos-test configuration) that is exactly accept order, so
  // scripted per-connection plans line up deterministically.
  if (options_.net_fault != nullptr) {
    conn->channel = options_.net_fault->NewChannel();
  }
  return conn;
}

void Server::WatchdogSweep(IoThread* t) {
  if (options_.write_stall_timeout_seconds <= 0) return;
  const double now = clock_->NowSeconds();
  if (now < t->next_watchdog) return;
  t->next_watchdog = now + options_.watchdog_poll_seconds;
  for (auto& [fd, conn] : t->conns) {
    if (conn->unsent() > 0 && conn->blocked_since > 0 &&
        now - conn->blocked_since > options_.write_stall_timeout_seconds) {
      t->watchdog_victims.push_back(fd);
    }
  }
  for (int fd : t->watchdog_victims) {
    auto it = t->conns.find(fd);
    if (it == t->conns.end()) continue;
    thread_counters_[t->index]->watchdog_kills.fetch_add(
        1, std::memory_order_relaxed);
    CloseConn(t, it->second.get());
  }
  t->watchdog_victims.clear();
}

void Server::HandleConnEvent(IoThread* t, Conn* c, uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(t, c);
    return;
  }
  if (events & EPOLLOUT) {
    if (!FlushOutput(t, c)) {
      CloseConn(t, c);
      return;
    }
    if (c->close_after_flush && c->unsent() == 0) {
      CloseConn(t, c);
      return;
    }
    // Draining output may unblock frames parked behind backpressure;
    // DrainAndProcess reads EAGAIN immediately and resumes them.
    if (!c->close_after_flush && !DrainAndProcess(t, c)) {
      CloseConn(t, c);
      return;
    }
  }
  if (events & EPOLLIN) {
    if (!DrainAndProcess(t, c)) {
      CloseConn(t, c);
      return;
    }
  }
  UpdateInterest(t, c);
}

bool Server::DrainAndProcess(IoThread* t, Conn* c) {
  bool peer_closed = false;
  bool got_bytes = false;
  while (true) {
    size_t old_size = c->in.size();
    c->in.resize(old_size + kReadChunk);
    ssize_t r = c->channel != nullptr
                    ? c->channel->Read(c->fd, c->in.data() + old_size,
                                       kReadChunk)
                    : read(c->fd, c->in.data() + old_size, kReadChunk);
    if (r > 0) {
      c->in.resize(old_size + static_cast<size_t>(r));
      got_bytes = true;
      thread_counters_[t->index]->bytes_in.fetch_add(
          static_cast<uint64_t>(r), std::memory_order_relaxed);
      if (static_cast<size_t>(r) < kReadChunk) break;
      continue;
    }
    c->in.resize(old_size);
    if (r == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // hard socket error
  }
  if (got_bytes) {
    // Deadline budgets run from receipt. Frames parked across passes (by
    // backpressure or the window cap) keep their older stamp, so age-based
    // shedding sees them grow stale.
    c->recv_micros = NowMicros();
    // Queue-depth shed: everything past the budget point arrived into an
    // over-full backlog; answer it kUnavailable until the queue empties.
    const size_t backlog = c->in.size() - c->in_consumed;
    if (options_.shed_backlog_bytes != 0 && c->shed_boundary == kNoShed &&
        backlog > options_.shed_backlog_bytes) {
      c->shed_boundary =
          c->stream_base + c->in_consumed + options_.shed_backlog_bytes;
    }
  }

  // Each ProcessFrames pass handles up to max_pipeline_frames; loop until
  // the buffered stream yields no further progress (need more bytes) or
  // output backpressure asks us to pause — EPOLLOUT resumes us then.
  while (true) {
    const size_t before = c->in.size() - c->in_consumed;
    if (!ProcessFrames(t, c)) {
      // Protocol violation: the error frame is queued; flush what we can
      // and only linger if the kernel couldn't take it all.
      (void)FlushOutput(t, c);
      return c->unsent() > 0;  // keep around solely to drain the error
    }
    if (!FlushOutput(t, c)) return false;
    if (c->in.size() - c->in_consumed == before) break;
    if (c->unsent() >= options_.output_buffer_soft_limit) break;
  }
  if (peer_closed) {
    // Peer half-closed after a clean request stream: answer what we can,
    // then finish.
    c->close_after_flush = true;
    return c->unsent() > 0;
  }
  return true;
}

bool Server::ProcessFrames(IoThread* t, Conn* c) {
  ThreadCounters& tc = *thread_counters_[t->index];
  t->open_run = IoThread::Run::kNone;
  t->read_used = 0;
  t->read_segs.clear();
  t->write_used = 0;
  t->write_segs.clear();

  auto flush_runs = [&] {
    if (t->open_run == IoThread::Run::kRead) ExecuteReadRun(t, c);
    if (t->open_run == IoThread::Run::kWrite) ExecuteWriteRun(t, c);
    t->open_run = IoThread::Run::kNone;
  };

  size_t frames = 0;
  bool fatal = false;
  while (frames < options_.max_pipeline_frames && !fatal) {
    const char* base = c->in.data() + c->in_consumed;
    const size_t avail = c->in.size() - c->in_consumed;
    FrameHeader h;
    DecodeResult dr = DecodeHeader(base, avail, &h);
    if (dr == DecodeResult::kNeedMore) break;
    if (dr != DecodeResult::kOk) {
      // The stream offset itself is untrustworthy; answer with a final
      // error frame and hang up.
      flush_runs();
      tc.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      EmitError(c, 0, 0, StatusCode::kInvalidArgument,
                std::string("unrecoverable frame: ") + DecodeResultName(dr));
      c->close_after_flush = true;
      fatal = true;
      break;
    }
    if (avail < h.header_size + h.payload_len) break;  // wait for payload
    const uint64_t frame_off = c->stream_base + c->in_consumed;
    std::string_view payload(base + h.header_size, h.payload_len);
    c->in_consumed += h.header_size + h.payload_len;
    ++frames;
    tc.frames_in.fetch_add(1, std::memory_order_relaxed);
    TenantCounters* tenant = TenantFor(c, h.tenant_id);
    tenant->requests.fetch_add(1, std::memory_order_relaxed);
    tenant->bytes_in.fetch_add(h.header_size + h.payload_len,
                               std::memory_order_relaxed);

    // Shed/deadline gate — decided before any staging or store work.
    // flush_runs() first keeps responses in request order: staged runs
    // answer before the error frame does.
    const uint64_t expire_micros =
        h.deadline_micros != 0 ? c->recv_micros + h.deadline_micros : 0;
    if (frame_off >= c->shed_boundary) {  // kNoShed compares as "never"
      flush_runs();
      tc.shed_frames.fetch_add(1, std::memory_order_relaxed);
      tenant->rejected.fetch_add(1, std::memory_order_relaxed);
      EmitError(c, h.request_id, h.tenant_id, StatusCode::kUnavailable,
                "input backlog over budget; request shed",
                options_.retry_after_millis);
      continue;
    }
    if (expire_micros != 0 || options_.shed_age_micros != 0) {
      const uint64_t now_us = NowMicros();
      if (expire_micros != 0 && now_us > expire_micros) {
        flush_runs();
        tc.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        tenant->errors.fetch_add(1, std::memory_order_relaxed);
        EmitError(c, h.request_id, h.tenant_id,
                  StatusCode::kDeadlineExceeded,
                  "deadline expired before execution");
        continue;
      }
      if (options_.shed_age_micros != 0 &&
          now_us - c->recv_micros > options_.shed_age_micros) {
        flush_runs();
        tc.shed_frames.fetch_add(1, std::memory_order_relaxed);
        tenant->rejected.fetch_add(1, std::memory_order_relaxed);
        EmitError(c, h.request_id, h.tenant_id, StatusCode::kUnavailable,
                  "request aged out in queue; shed",
                  options_.retry_after_millis);
        continue;
      }
    }

    switch (h.opcode) {
      case kOpGet: {
        if (t->open_run == IoThread::Run::kWrite) flush_runs();
        t->open_run = IoThread::Run::kRead;
        const size_t start = t->read_used;
        t->NextReadKey()->assign(payload.data(), payload.size());
        t->read_segs.push_back({h.opcode, h.request_id, h.tenant_id, start, 1,
                                expire_micros, false});
        tenant->read_keys.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kOpMultiGet: {
        std::string_view rest = payload;
        uint32_t count = 0;
        bool ok = GetU32(&rest, &count) && count <= kMaxBatchElements &&
                  static_cast<uint64_t>(count) * 4 <= rest.size();
        const size_t start = t->read_used;
        size_t got = 0;
        if (ok && t->open_run == IoThread::Run::kWrite) flush_runs();
        if (ok) t->open_run = IoThread::Run::kRead;
        for (uint32_t i = 0; ok && i < count; ++i) {
          std::string_view key;
          if (!GetLengthPrefixed(&rest, &key)) {
            ok = false;
            break;
          }
          t->NextReadKey()->assign(key.data(), key.size());
          ++got;
        }
        if (!ok) {
          // Unwind whatever this frame staged, report, keep the stream.
          // open_run may still be kWrite here (a count-check failure
          // happens before the run switch), and that run holds staged
          // writes flush_runs() must execute — only a read run this frame
          // emptied may be cancelled.
          t->read_used = start;
          if (t->open_run == IoThread::Run::kRead && t->read_used == 0 &&
              t->read_segs.empty()) {
            t->open_run = IoThread::Run::kNone;
          }
          flush_runs();
          tc.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          tenant->errors.fetch_add(1, std::memory_order_relaxed);
          EmitError(c, h.request_id, h.tenant_id,
                    StatusCode::kInvalidArgument, "malformed MULTIGET payload");
          break;
        }
        t->read_segs.push_back(
            {h.opcode, h.request_id, h.tenant_id, start, got, expire_micros,
             false});
        tenant->read_keys.fetch_add(got, std::memory_order_relaxed);
        break;
      }
      case kOpPut:
      case kOpWriteBatch: {
        std::string_view rest = payload;
        uint32_t count = 1;
        bool ok = true;
        if (h.opcode == kOpWriteBatch) {
          ok = GetU32(&rest, &count) && count <= kMaxBatchElements &&
               static_cast<uint64_t>(count) * 8 <= rest.size();
        }
        if (ok && !admission_.AdmitWrite(h.tenant_id, count)) {
          flush_runs();
          tenant->rejected.fetch_add(1, std::memory_order_relaxed);
          EmitError(c, h.request_id, h.tenant_id,
                    StatusCode::kResourceExhausted,
                    "tenant over fair share during write pushback",
                    options_.retry_after_millis);
          break;
        }
        const size_t start = t->write_used;
        size_t got = 0;
        if (ok && t->open_run == IoThread::Run::kRead) flush_runs();
        if (ok) t->open_run = IoThread::Run::kWrite;
        for (uint32_t i = 0; ok && i < count; ++i) {
          std::string_view key, value;
          if (h.opcode == kOpPut) {
            // PUT: u32 klen, key, value = remainder.
            if (!GetLengthPrefixed(&rest, &key)) {
              ok = false;
              break;
            }
            value = rest;
            rest = {};
          } else if (!GetLengthPrefixed(&rest, &key) ||
                     !GetLengthPrefixed(&rest, &value)) {
            ok = false;
            break;
          }
          core::KvEntry* e = t->NextWriteEntry();
          e->first.assign(key.data(), key.size());
          e->second.assign(value.data(), value.size());
          ++got;
        }
        if (!ok) {
          // Mirror of the MULTIGET unwind: a still-open read run keeps its
          // staged GETs; only a write run this frame emptied is cancelled.
          t->write_used = start;
          if (t->open_run == IoThread::Run::kWrite && t->write_used == 0 &&
              t->write_segs.empty()) {
            t->open_run = IoThread::Run::kNone;
          }
          flush_runs();
          tc.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          tenant->errors.fetch_add(1, std::memory_order_relaxed);
          EmitError(c, h.request_id, h.tenant_id,
                    StatusCode::kInvalidArgument, "malformed write payload");
          break;
        }
        t->write_segs.push_back(
            {h.opcode, h.request_id, h.tenant_id, start, got, expire_micros,
             false});
        tenant->write_keys.fetch_add(got, std::memory_order_relaxed);
        break;
      }
      case kOpDelete: {
        // Deletes are rare in the target workloads; they act as a run
        // barrier and execute inline. They still hit the write path (and
        // the log), so they go through admission like PUT/WRITEBATCH.
        flush_runs();
        if (!admission_.AdmitWrite(h.tenant_id, 1)) {
          tenant->rejected.fetch_add(1, std::memory_order_relaxed);
          EmitError(c, h.request_id, h.tenant_id,
                    StatusCode::kResourceExhausted,
                    "tenant over fair share during write pushback",
                    options_.retry_after_millis);
          break;
        }
        Status s = store_->Delete(Slice(payload.data(), payload.size()));
        if (s.IsIoError()) {
          // A write-path IoError may mean the shard just degraded; re-read
          // health now so this very response reflects it.
          store_degraded_.store(
              store_->Stats().health == core::HealthStatus::kDegraded,
              std::memory_order_relaxed);
          if (store_degraded_.load(std::memory_order_relaxed)) {
            tc.degraded_write_rejects.fetch_add(1, std::memory_order_relaxed);
            tenant->rejected.fetch_add(1, std::memory_order_relaxed);
            EmitError(c, h.request_id, h.tenant_id, StatusCode::kUnavailable,
                      "shard degraded; writes unavailable",
                      options_.retry_after_millis);
            break;
          }
        }
        t->payload_scratch.clear();
        t->payload_scratch.push_back(
            static_cast<char>(EncodeStatusCode(s.code())));
        AppendFrame(&c->out, kOpDelete | kResponseBit, h.request_id,
                    h.tenant_id, t->payload_scratch);
        tc.frames_out.fetch_add(1, std::memory_order_relaxed);
        tenant->write_keys.fetch_add(1, std::memory_order_relaxed);
        tenant->bytes_out.fetch_add(kHeaderSize + t->payload_scratch.size(),
                                    std::memory_order_relaxed);
        break;
      }
      case kOpStats: {
        flush_runs();
        const std::string text = StatsText();
        AppendFrame(&c->out, kOpStats | kResponseBit, h.request_id,
                    h.tenant_id, text);
        tc.frames_out.fetch_add(1, std::memory_order_relaxed);
        tenant->bytes_out.fetch_add(kHeaderSize + text.size(),
                                    std::memory_order_relaxed);
        break;
      }
      case kOpHealth: {
        flush_runs();
        EmitHealth(t, c, h.request_id, h.tenant_id);
        break;
      }
      default: {
        flush_runs();
        tc.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        tenant->errors.fetch_add(1, std::memory_order_relaxed);
        EmitError(c, h.request_id, h.tenant_id, StatusCode::kNotSupported,
                  "unknown opcode");
        break;
      }
    }
  }
  flush_runs();
  if (frames > 0) tc.windows.fetch_add(1, std::memory_order_relaxed);

  // Reclaim consumed input. Keeping a bounded prefix avoids memmoving the
  // tail on every pass when a frame straddles reads. stream_base tracks
  // the bytes dropped so shed_boundary keeps meaning the same stream
  // position across compactions.
  if (c->in_consumed == c->in.size()) {
    c->stream_base += c->in.size();
    c->in.clear();
    c->in_consumed = 0;
    c->shed_boundary = kNoShed;  // backlog fully drained; stop shedding
  } else if (c->in_consumed >= kReadChunk) {
    c->stream_base += c->in_consumed;
    c->in.erase(0, c->in_consumed);
    c->in_consumed = 0;
  }
  return !fatal;
}

void Server::ExecuteReadRun(IoThread* t, Conn* c) {
  if (t->read_segs.empty()) {
    t->read_used = 0;
    return;
  }
  ThreadCounters& tc = *thread_counters_[t->index];

  // Deadlines are rechecked at execution time: a store stall earlier in
  // this window may have burned the budget since staging. Expired segments
  // are compacted out of the key span (swap keeps slot buffers alive) so
  // the store never sees their keys. Deadline-free windows skip all of it.
  bool any_deadline = false;
  for (const auto& seg : t->read_segs) {
    any_deadline = any_deadline || seg.expire_micros != 0;
  }
  size_t live = t->read_used;
  if (any_deadline) {
    const uint64_t now_us = NowMicros();
    size_t w = 0;
    for (auto& seg : t->read_segs) {
      if (seg.expire_micros != 0 && now_us > seg.expire_micros) {
        seg.expired = true;
        continue;
      }
      const size_t new_start = w;
      for (size_t i = seg.start; i < seg.start + seg.count; ++i, ++w) {
        if (w != i) std::swap(t->read_keys[w], t->read_keys[i]);
      }
      seg.start = new_start;
    }
    live = w;
  }
  if (live > 0) {
    core::ReadOptions ro;
    ro.max_value_bytes = options_.max_value_bytes;
    std::span<const std::string> keys(t->read_keys.data(), live);
    (void)store_->MultiGet(keys, ro, &t->read_result);
    tc.read_runs.fetch_add(1, std::memory_order_relaxed);
  }

  for (const auto& seg : t->read_segs) {
    if (seg.expired) {
      tc.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      TenantFor(c, seg.tenant_id)
          ->errors.fetch_add(1, std::memory_order_relaxed);
      EmitError(c, seg.request_id, seg.tenant_id,
                StatusCode::kDeadlineExceeded,
                "deadline expired before read run");
      continue;
    }
    std::string& p = t->payload_scratch;
    p.clear();
    if (seg.op == kOpGet) {
      const Status& s = t->read_result.statuses[seg.start];
      p.push_back(static_cast<char>(EncodeStatusCode(s.code())));
      if (s.ok()) p.append(t->read_result.values[seg.start]);
    } else {
      PutFixed32(&p, static_cast<uint32_t>(seg.count));
      for (size_t i = 0; i < seg.count; ++i) {
        const Status& s = t->read_result.statuses[seg.start + i];
        p.push_back(static_cast<char>(EncodeStatusCode(s.code())));
        if (s.ok()) {
          AppendLengthPrefixed(&p, t->read_result.values[seg.start + i]);
        } else {
          PutFixed32(&p, 0);
        }
      }
    }
    AppendFrame(&c->out, seg.op | kResponseBit, seg.request_id, seg.tenant_id,
                p);
    tc.frames_out.fetch_add(1, std::memory_order_relaxed);
    TenantFor(c, seg.tenant_id)
        ->bytes_out.fetch_add(kHeaderSize + p.size(),
                              std::memory_order_relaxed);
  }
  t->read_used = 0;
  t->read_segs.clear();
}

void Server::ExecuteWriteRun(IoThread* t, Conn* c) {
  if (t->write_segs.empty()) {
    t->write_used = 0;
    return;
  }
  ThreadCounters& tc = *thread_counters_[t->index];

  // Same execution-time deadline recheck as the read run.
  bool any_deadline = false;
  for (const auto& seg : t->write_segs) {
    any_deadline = any_deadline || seg.expire_micros != 0;
  }
  size_t live = t->write_used;
  if (any_deadline) {
    const uint64_t now_us = NowMicros();
    size_t w = 0;
    for (auto& seg : t->write_segs) {
      if (seg.expire_micros != 0 && now_us > seg.expire_micros) {
        seg.expired = true;
        continue;
      }
      const size_t new_start = w;
      for (size_t i = seg.start; i < seg.start + seg.count; ++i, ++w) {
        if (w != i) std::swap(t->write_entries[w], t->write_entries[i]);
      }
      seg.start = new_start;
    }
    live = w;
  }
  bool any_io_error = false;
  if (live > 0) {
    std::span<const core::KvEntry> entries(t->write_entries.data(), live);
    (void)store_->WriteBatch(entries, core::WriteOptions(), &t->write_result);
    tc.write_runs.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < live; ++i) {
      any_io_error = any_io_error || t->write_result.statuses[i].IsIoError();
    }
  }
  if (any_io_error) {
    // The store may have just crossed into degraded; re-read health now so
    // these responses (and every later write) reflect it deterministically
    // instead of waiting out the stats-poll interval.
    store_degraded_.store(
        store_->Stats().health == core::HealthStatus::kDegraded,
        std::memory_order_relaxed);
  }
  const bool degraded = store_degraded_.load(std::memory_order_relaxed);

  for (const auto& seg : t->write_segs) {
    if (seg.expired) {
      tc.deadline_expired.fetch_add(1, std::memory_order_relaxed);
      TenantFor(c, seg.tenant_id)
          ->errors.fetch_add(1, std::memory_order_relaxed);
      EmitError(c, seg.request_id, seg.tenant_id,
                StatusCode::kDeadlineExceeded,
                "deadline expired before write run");
      continue;
    }
    std::string& p = t->payload_scratch;
    p.clear();
    if (seg.op == kOpPut) {
      const Status& s = t->write_result.statuses[seg.start];
      if (degraded && s.IsIoError()) {
        // Degradation contract: the store stays read-only and keeps
        // serving GETs; writes bounce as retryable kUnavailable with a
        // backoff hint rather than surfacing the shard's IoError.
        tc.degraded_write_rejects.fetch_add(1, std::memory_order_relaxed);
        TenantFor(c, seg.tenant_id)
            ->rejected.fetch_add(1, std::memory_order_relaxed);
        EmitError(c, seg.request_id, seg.tenant_id, StatusCode::kUnavailable,
                  "shard degraded; writes unavailable",
                  options_.retry_after_millis);
        continue;
      }
      p.push_back(static_cast<char>(EncodeStatusCode(s.code())));
    } else {
      PutFixed32(&p, static_cast<uint32_t>(seg.count));
      bool seg_rejected = false;
      for (size_t i = 0; i < seg.count; ++i) {
        const Status& s = t->write_result.statuses[seg.start + i];
        StatusCode code = s.code();
        if (degraded && s.IsIoError()) {
          code = StatusCode::kUnavailable;
          seg_rejected = true;
        }
        p.push_back(static_cast<char>(EncodeStatusCode(code)));
      }
      if (seg_rejected) {
        tc.degraded_write_rejects.fetch_add(1, std::memory_order_relaxed);
        TenantFor(c, seg.tenant_id)
            ->rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
    AppendFrame(&c->out, seg.op | kResponseBit, seg.request_id, seg.tenant_id,
                p);
    tc.frames_out.fetch_add(1, std::memory_order_relaxed);
    TenantFor(c, seg.tenant_id)
        ->bytes_out.fetch_add(kHeaderSize + p.size(),
                              std::memory_order_relaxed);
  }
  t->write_used = 0;
  t->write_segs.clear();
}

TenantCounters* Server::TenantFor(Conn* c, uint32_t tenant_id) {
  if (!c->tenant_valid || c->tenant_id != tenant_id) {
    c->tenant = tenants_.Get(tenant_id);
    c->tenant_id = tenant_id;
    c->tenant_valid = true;
  }
  return c->tenant;
}

void Server::EmitError(Conn* c, uint32_t request_id, uint32_t tenant_id,
                       StatusCode code, std::string_view message,
                       uint32_t retry_after_millis) {
  std::string p;
  p.push_back(static_cast<char>(EncodeStatusCode(code)));
  PutFixed32(&p, retry_after_millis);
  p.append(message);
  AppendFrame(&c->out, kOpError | kResponseBit, request_id, tenant_id, p);
  thread_counters_[c->owner->index]->frames_out.fetch_add(
      1, std::memory_order_relaxed);
}

void Server::EmitHealth(IoThread* t, Conn* c, uint32_t request_id,
                        uint32_t tenant_id) {
  // HEALTH reads live per-shard health (not the cached poll) so a client
  // probing after a fault sees the truth immediately; the cached flag is
  // refreshed as a side effect.
  const std::vector<core::HealthStatus> shards = store_->PerShardHealth();
  bool degraded = false;
  for (core::HealthStatus h : shards) {
    degraded = degraded || h == core::HealthStatus::kDegraded;
  }
  store_degraded_.store(degraded, std::memory_order_relaxed);

  std::string& p = t->payload_scratch;
  p.clear();
  p.push_back(degraded ? 1 : 0);
  PutFixed32(&p, degraded ? options_.retry_after_millis : 0);
  PutFixed32(&p, static_cast<uint32_t>(shards.size()));
  for (core::HealthStatus h : shards) {
    p.push_back(h == core::HealthStatus::kDegraded ? 1 : 0);
  }
  const ServerCounters agg = counters();
  PutFixed64(&p, agg.shed_frames);
  PutFixed64(&p, agg.deadline_expired);
  PutFixed64(&p, agg.watchdog_kills);
  PutFixed64(&p, agg.degraded_write_rejects);
  AppendFrame(&c->out, kOpHealth | kResponseBit, request_id, tenant_id, p);
  ThreadCounters& tc = *thread_counters_[t->index];
  tc.frames_out.fetch_add(1, std::memory_order_relaxed);
  TenantFor(c, tenant_id)
      ->bytes_out.fetch_add(kHeaderSize + p.size(), std::memory_order_relaxed);
}

bool Server::FlushOutput(IoThread* t, Conn* c) {
  bool progressed = false;
  while (c->out_sent < c->out.size()) {
    // MSG_NOSIGNAL: a peer that closed its read side must surface as EPIPE,
    // not kill the process with SIGPIPE.
    ssize_t w =
        c->channel != nullptr
            ? c->channel->Send(c->fd, c->out.data() + c->out_sent,
                               c->out.size() - c->out_sent, MSG_NOSIGNAL)
            : send(c->fd, c->out.data() + c->out_sent,
                   c->out.size() - c->out_sent, MSG_NOSIGNAL);
    if (w > 0) {
      c->out_sent += static_cast<size_t>(w);
      progressed = true;
      thread_counters_[t->index]->bytes_out.fetch_add(
          static_cast<uint64_t>(w), std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  // Watchdog bookkeeping: blocked_since is the time of the last write
  // progress while output remains unsent (0 = not blocked). A connection
  // that never drains — the slowloris shape — keeps one timestamp and
  // ages out; one that trickles keeps resetting and survives.
  if (c->unsent() == 0) {
    c->blocked_since = 0;
  } else if (progressed || c->blocked_since == 0) {
    c->blocked_since = clock_->NowSeconds();
  }
  if (c->out_sent == c->out.size()) {
    c->out.clear();
    c->out_sent = 0;
  } else if (c->out_sent >= kReadChunk) {
    c->out.erase(0, c->out_sent);
    c->out_sent = 0;
  }
  return true;
}

void Server::UpdateInterest(IoThread* t, Conn* c) {
  uint32_t want = 0;
  // Backpressure: a client that won't read its responses stops being read
  // from, so its pipelined window can't grow the output buffer unboundedly.
  if (!c->close_after_flush && c->unsent() < options_.output_buffer_soft_limit)
    want |= EPOLLIN;
  if (c->unsent() > 0) want |= EPOLLOUT;
  if (want == c->interest) return;
  c->interest = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = c;
  epoll_ctl(t->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
}

void Server::CloseConn(IoThread* t, Conn* c) {
  epoll_ctl(t->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  thread_counters_[t->index]->connections_closed.fetch_add(
      1, std::memory_order_relaxed);
  t->conns.erase(c->fd);  // frees c
}

void Server::MaybePollStoreStats() {
  const double now = clock_->NowSeconds();
  {
    MutexLock lock(&stats_poll_mu_);
    if (now - last_stats_poll_ < options_.stats_poll_seconds) return;
    last_stats_poll_ = now;
  }
  const core::KvStoreStats st = store_->Stats();
  admission_.ObserveStoreStats(st);
  store_degraded_.store(st.health == core::HealthStatus::kDegraded,
                        std::memory_order_relaxed);
}

ServerCounters Server::counters() const {
  ServerCounters out;
  for (const auto& tc : thread_counters_) {
    out.connections_accepted +=
        tc->connections_accepted.load(std::memory_order_relaxed);
    out.connections_closed +=
        tc->connections_closed.load(std::memory_order_relaxed);
    out.frames_in += tc->frames_in.load(std::memory_order_relaxed);
    out.frames_out += tc->frames_out.load(std::memory_order_relaxed);
    out.protocol_errors += tc->protocol_errors.load(std::memory_order_relaxed);
    out.bytes_in += tc->bytes_in.load(std::memory_order_relaxed);
    out.bytes_out += tc->bytes_out.load(std::memory_order_relaxed);
    out.windows += tc->windows.load(std::memory_order_relaxed);
    out.read_runs += tc->read_runs.load(std::memory_order_relaxed);
    out.write_runs += tc->write_runs.load(std::memory_order_relaxed);
    out.shed_frames += tc->shed_frames.load(std::memory_order_relaxed);
    out.deadline_expired +=
        tc->deadline_expired.load(std::memory_order_relaxed);
    out.watchdog_kills += tc->watchdog_kills.load(std::memory_order_relaxed);
    out.degraded_write_rejects +=
        tc->degraded_write_rejects.load(std::memory_order_relaxed);
  }
  return out;
}

std::string Server::StatsText() const {
  std::string s;
  auto add = [&s](std::string_view key, uint64_t v) {
    s.append(key);
    s.push_back('=');
    s.append(std::to_string(v));
    s.push_back('\n');
  };
  const ServerCounters c = counters();
  add("server.connections_accepted", c.connections_accepted);
  add("server.connections_closed", c.connections_closed);
  add("server.frames_in", c.frames_in);
  add("server.frames_out", c.frames_out);
  add("server.protocol_errors", c.protocol_errors);
  add("server.bytes_in", c.bytes_in);
  add("server.bytes_out", c.bytes_out);
  add("server.windows", c.windows);
  add("server.read_runs", c.read_runs);
  add("server.write_runs", c.write_runs);
  add("server.shed_frames", c.shed_frames);
  add("server.deadline_expired", c.deadline_expired);
  add("server.watchdog_kills", c.watchdog_kills);
  add("server.degraded_write_rejects", c.degraded_write_rejects);
  add("admission.pushback_windows", admission_.pushback_windows());
  add("admission.rejected", admission_.rejected());

  // Every store metric as store.<name>, plus the pre-schema
  // store.health_degraded key that STATS readers already parse.
  const core::KvStoreStats st = store_->Stats();
  add("store.health_degraded", st.health == core::HealthStatus::kDegraded);
  st.ForEachMetric([&add](const core::MetricInfo& m, const auto& v) {
    add(std::string("store.") + m.name, static_cast<uint64_t>(v));
  });

  for (const TenantSnapshot& ts : tenants_.Snapshot()) {
    const std::string prefix = "tenant." + std::to_string(ts.tenant_id);
    add(prefix + ".requests", ts.requests);
    add(prefix + ".read_keys", ts.read_keys);
    add(prefix + ".write_keys", ts.write_keys);
    add(prefix + ".rejected", ts.rejected);
    add(prefix + ".errors", ts.errors);
    add(prefix + ".bytes_in", ts.bytes_in);
    add(prefix + ".bytes_out", ts.bytes_out);
  }
  return s;
}

}  // namespace costperf::server
