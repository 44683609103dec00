#include "serve/event_loop.h"

#include "obs/metrics.h"
#include "serve/proto.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

namespace ipso::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// epoll user-data tags for the two non-connection fds.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

/// Read chunk appended to a connection's read buffer per recv call.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Compact a partially-flushed write buffer once the dead prefix passes
/// this size (erase-from-front is O(live bytes), so amortize it).
constexpr std::size_t kWriteCompactBytes = 1u << 20;

/// Shrink an idle read buffer whose capacity ballooned past this.
constexpr std::size_t kReadShrinkBytes = 1u << 20;

/// How long finish() keeps flushing responses toward peers that stopped
/// reading before force-closing them.
constexpr std::chrono::seconds kFinishFlushDeadline{2};

/// Records per decoded batch (obs histogram; the counts themselves live
/// in AtomicStats).
obs::Histogram& batch_records() {
  static obs::Histogram h{"serve.net.batch_records"};
  return h;
}

}  // namespace

/// One request batch in flight: pre-sized response slots filled by worker
/// threads (each writes only its own index), an atomic countdown, and the
/// codec mode it must be encoded back with. Kept alive by shared_ptr even
/// if its connection dies first.
struct EventLoopServer::Batch {
  std::vector<std::string> responses;
  std::atomic<std::size_t> remaining{0};
};

struct EventLoopServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string rbuf;
  std::string wbuf;
  std::size_t woff = 0;  ///< flushed prefix of wbuf
  std::unique_ptr<FrameCodec> codec;  ///< null until first byte sniffed
  std::deque<std::shared_ptr<Batch>> pending;  ///< FIFO: response order
  bool want_write = false;  ///< EPOLLOUT armed
  bool reading = true;      ///< EPOLLIN armed (false: paused or draining)
  bool paused = false;      ///< reads stopped on the write watermark
  bool closing = false;     ///< close once wbuf and pending empty
};

struct EventLoopServer::Shard {
  std::size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  // Inbox: filled by other threads (acceptor shard, engine workers,
  // begin_drain/finish), drained by this shard's loop. DESIGN.md §13,
  // capability "serve.net.shard" — a leaf held only over vector swaps and
  // flag flips.
  sync::Mutex inbox_mu;
  std::vector<int> pending_accepts IPSO_GUARDED_BY(inbox_mu);
  std::vector<std::uint64_t> completions IPSO_GUARDED_BY(inbox_mu);
  bool drain_requested IPSO_GUARDED_BY(inbox_mu) = false;
  bool finish_requested IPSO_GUARDED_BY(inbox_mu) = false;

  // Loop-thread-only state below: owned by this shard's thread for the
  // thread's whole lifetime (thread confinement, not locking), so it is
  // deliberately unannotated.

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  bool draining = false;
  bool finishing = false;
  Clock::time_point finish_deadline{};
};

EventLoopServer::EventLoopServer(RequestHandler handler,
                                 const ServerConfig& cfg)
    : handler_(std::move(handler)), cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.write_low_watermark > cfg_.write_high_watermark) {
    cfg_.write_low_watermark = cfg_.write_high_watermark / 2;
  }
}

EventLoopServer::~EventLoopServer() {
  begin_drain();
  finish();
}

Expected<bool, NetError> EventLoopServer::start() {
  auto listening =
      net::listen_tcp(cfg_.host, cfg_.port, cfg_.listen_backlog);
  if (!listening.has_value()) return listening.error();
  listen_fd_ = *listening;
  port_ = net::local_port(listen_fd_);

  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->epoll_fd = ::epoll_create1(0);
    if (shard->epoll_fd < 0) return NetError{net::errno_text("epoll_create1")};
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (shard->wake_fd < 0) return NetError{net::errno_text("eventfd")};
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &ev) <
        0) {
      return NetError{net::errno_text("epoll_ctl")};
    }
    shards_.push_back(std::move(shard));
  }
  // The listener lives in shard 0 only, level-triggered so an unfinished
  // accept backlog re-reports; accepted fds are dealt round-robin.
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.u64 = kListenTag;
  if (::epoll_ctl(shards_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev) <
      0) {
    return NetError{net::errno_text("epoll_ctl")};
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { shard_loop(*s); });
  }
  started_.store(true, std::memory_order_release);
  return true;
}

NetStats EventLoopServer::stats() const noexcept {
  NetStats out;
  out.wakeups = stats_.wakeups.load(std::memory_order_relaxed);
  out.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  out.frames_out = stats_.frames_out.load(std::memory_order_relaxed);
  out.requests_in = stats_.requests_in.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.backpressure_stalls =
      stats_.backpressure_stalls.load(std::memory_order_relaxed);
  out.protocol_errors =
      stats_.protocol_errors.load(std::memory_order_relaxed);
  out.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  out.connections_open =
      stats_.connections_open.load(std::memory_order_relaxed);
  return out;
}

void EventLoopServer::begin_drain() {
  if (!started_.load(std::memory_order_acquire) ||
      drain_begun_.exchange(true)) {
    return;
  }
  for (auto& shard : shards_) {
    {
      sync::MutexLock lock(shard->inbox_mu);
      shard->drain_requested = true;
    }
    wake(*shard);
  }
}

void EventLoopServer::finish() {
  if (!started_.load(std::memory_order_acquire) ||
      finished_.exchange(true)) {
    return;
  }
  for (auto& shard : shards_) {
    {
      sync::MutexLock lock(shard->inbox_mu);
      shard->finish_requested = true;
    }
    wake(*shard);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    if (shard->wake_fd >= 0) ::close(shard->wake_fd);
  }
  if (listen_fd_ >= 0) {
    net::close_fd(listen_fd_);
    listen_fd_ = -1;
  }
}

void EventLoopServer::wake(Shard& s) {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the reader; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n =
      ::write(s.wake_fd, &one, sizeof one);
}

void EventLoopServer::notify_completion(Shard& s, std::uint64_t conn_id) {
  bool need_wake;
  {
    sync::MutexLock lock(s.inbox_mu);
    // Only the push that makes the inbox non-empty must signal: the loop
    // drains the whole inbox per wakeup, so later pushes piggyback.
    need_wake = s.completions.empty();
    s.completions.push_back(conn_id);
  }
  if (need_wake) wake(s);
}

void EventLoopServer::shard_loop(Shard& s) {
  std::vector<epoll_event> events(256);
  std::vector<int> accepts;
  std::vector<std::uint64_t> completions;
  while (true) {
    const int timeout_ms = s.finishing ? 20 : -1;
    const int n = ::epoll_wait(s.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    stats_.wakeups.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kWakeTag) {
        std::uint64_t drained;
        while (::read(s.wake_fd, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kListenTag) {
        handle_accept(s);
        continue;
      }
      const auto it = s.conns.find(ev.data.u64);
      if (it == s.conns.end()) continue;  // closed earlier this iteration
      Conn& c = *it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        close_conn(s, c);
        continue;
      }
      if (ev.events & EPOLLOUT) {
        if (!try_flush(s, c)) continue;
      }
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) {
        handle_readable(s, c);
      }
    }

    // Drain the inbox *after* clearing the eventfd: a producer that pushes
    // between the two will find a non-empty... empty inbox (we swap it out
    // below) and re-signal, so no completion can be stranded behind a
    // cleared counter.
    accepts.clear();
    completions.clear();
    bool drain_now = false;
    bool finish_now = false;
    {
      sync::MutexLock lock(s.inbox_mu);
      accepts.swap(s.pending_accepts);
      completions.swap(s.completions);
      drain_now = s.drain_requested;
      finish_now = s.finish_requested;
    }
    for (int fd : accepts) add_conn(s, fd);
    for (std::uint64_t id : completions) {
      const auto it = s.conns.find(id);
      if (it == s.conns.end()) continue;  // connection died first
      flush_completed(s, *it->second);
    }

    if (drain_now && !s.draining) {
      s.draining = true;
      if (s.index == 0 && listen_fd_ >= 0) {
        ::epoll_ctl(s.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
      for (auto& [id, conn] : s.conns) {
        if (conn->reading) {
          conn->reading = false;
          update_interest(s, *conn);
        }
      }
    }
    if (finish_now && !s.finishing) {
      s.finishing = true;
      s.finish_deadline = Clock::now() + kFinishFlushDeadline;
    }
    if (s.finishing) {
      // Every admitted request has been answered by now (TcpServer drains
      // the engine between begin_drain and finish); flush what remains and
      // leave once every connection is gone or the deadline passes.
      const bool overdue = Clock::now() >= s.finish_deadline;
      for (auto it = s.conns.begin(); it != s.conns.end();) {
        Conn& c = *it->second;
        ++it;  // close_conn erases; advance first
        flush_completed(s, c);
      }
      for (auto it = s.conns.begin(); it != s.conns.end();) {
        Conn& c = *it->second;
        ++it;
        if (overdue ||
            (c.pending.empty() && c.woff >= c.wbuf.size())) {
          close_conn(s, c);
        }
      }
      if (s.conns.empty()) break;
    }
  }
}

void EventLoopServer::handle_accept(Shard& s) {
  while (true) {
    const int fd = net::accept_nonblocking(listen_fd_);
    if (fd == -1) break;   // backlog empty
    if (fd == -2) break;   // hard error; retry on next readiness
    const std::size_t serial =
        stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    Shard& target = *shards_[serial % shards_.size()];
    if (&target == &s) {
      add_conn(s, fd);
    } else {
      bool need_wake;
      {
        sync::MutexLock lock(target.inbox_mu);
        need_wake = target.pending_accepts.empty();
        target.pending_accepts.push_back(fd);
      }
      if (need_wake) wake(target);
    }
  }
}

void EventLoopServer::add_conn(Shard& s, int fd) {
  if (s.draining) {
    net::close_fd(fd);  // accepted after drain began
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(s.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    net::close_fd(fd);
    return;
  }
  stats_.connections_open.fetch_add(1, std::memory_order_relaxed);
  s.conns.emplace(conn->id, std::move(conn));
}

void EventLoopServer::handle_readable(Shard& s, Conn& c) {
  if (!c.reading || c.closing) return;
  while (true) {
    const std::size_t old_size = c.rbuf.size();
    c.rbuf.resize(old_size + kReadChunk);
    const net::IoResult r =
        net::recv_nonblocking(c.fd, c.rbuf.data() + old_size, kReadChunk);
    c.rbuf.resize(old_size + (r.status == net::IoStatus::kOk ? r.bytes : 0));
    if (r.status == net::IoStatus::kOk) {
      stats_.bytes_in.fetch_add(r.bytes, std::memory_order_relaxed);
      // Parse per chunk so the read buffer stays near one frame's size
      // instead of absorbing a whole pipelined burst before decoding.
      if (!parse_input(s, c)) return;  // fatal framing error or conn gone
      if (!c.reading) return;          // paused on the write watermark
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) break;
    close_conn(s, c);  // orderly close or hard error
    return;
  }
  // Edge-triggered read fully drained; reclaim a ballooned buffer.
  if (c.rbuf.capacity() > kReadShrinkBytes &&
      c.rbuf.size() < c.rbuf.capacity() / 4) {
    c.rbuf.shrink_to_fit();
  }
  flush_completed(s, c);
}

bool EventLoopServer::parse_input(Shard& s, Conn& c) {
  if (!c.codec) {
    const WireProto proto = sniff_protocol(c.rbuf);
    if (proto == WireProto::kUnknown) return true;  // need the first byte
    c.codec = make_codec(proto, cfg_.max_frame_bytes);
  }
  std::vector<WireBatch> batches;
  auto decoded = c.codec->decode(c.rbuf, batches);
  for (WireBatch& wire : batches) {
    dispatch_batch(s, c, std::move(wire));
  }
  if (!decoded.has_value()) {
    // Framing is unrecoverable (no resync point after a bad length
    // prefix): answer with a protocol_error and close once it flushes.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    c.wbuf += c.codec->encode_error(error_response(
        {}, Op::kUnknown, "protocol_error", decoded.error().message));
    c.closing = true;
    c.reading = false;
    c.rbuf.clear();
    update_interest(s, c);
    flush_completed(s, c);
    return false;
  }
  return true;
}

void EventLoopServer::dispatch_batch(Shard& s, Conn& c, WireBatch wire) {
  const std::size_t count = wire.records.size();
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  stats_.requests_in.fetch_add(count, std::memory_order_relaxed);
  batch_records().observe(static_cast<double>(count));

  auto batch = std::make_shared<Batch>();
  batch->responses.resize(count);
  batch->remaining.store(count, std::memory_order_relaxed);
  c.pending.push_back(batch);
  if (count == 0) return;  // empty frame: answered by an empty frame

  Shard* shard = &s;
  const std::uint64_t conn_id = c.id;
  for (std::size_t i = 0; i < count; ++i) {
    handler_(
        std::move(wire.records[i]),
        [this, shard, conn_id, batch, i](std::string response) {
          // Each worker owns slot i exclusively; the final decrement
          // (acq_rel) publishes every slot to the shard thread's acquire
          // load in flush_completed().
          batch->responses[i] = std::move(response);
          if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            notify_completion(*shard, conn_id);
          }
        });
  }
}

void EventLoopServer::flush_completed(Shard& s, Conn& c) {
  if (c.fd < 0) return;
  bool encoded = false;
  while (!c.pending.empty() &&
         c.pending.front()->remaining.load(std::memory_order_acquire) == 0) {
    const std::shared_ptr<Batch> batch = std::move(c.pending.front());
    c.pending.pop_front();
    c.wbuf += c.codec->encode(batch->responses);
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    encoded = true;
  }
  if (encoded || c.woff < c.wbuf.size() || c.closing) {
    (void)try_flush(s, c);
  }
}

bool EventLoopServer::try_flush(Shard& s, Conn& c) {
  if (c.fd < 0) return false;
  while (c.woff < c.wbuf.size()) {
    const net::IoResult r = net::send_nonblocking(
        c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
    if (r.status == net::IoStatus::kOk) {
      c.woff += r.bytes;
      stats_.bytes_out.fetch_add(r.bytes, std::memory_order_relaxed);
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) break;
    close_conn(s, c);
    return false;
  }
  if (c.woff >= c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  } else if (c.woff >= kWriteCompactBytes) {
    c.wbuf.erase(0, c.woff);
    c.woff = 0;
  }
  const std::size_t backlog = c.wbuf.size() - c.woff;

  if (c.closing && backlog == 0 && c.pending.empty()) {
    close_conn(s, c);
    return false;
  }

  bool interest_changed = false;
  const bool need_write = backlog > 0;
  if (need_write != c.want_write) {
    c.want_write = need_write;
    interest_changed = true;
  }
  // Backpressure: a peer that sends faster than it reads gets its reads
  // paused at the high watermark instead of growing wbuf without bound.
  if (!c.paused && !c.closing && backlog > cfg_.write_high_watermark) {
    c.paused = true;
    c.reading = false;
    stats_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
    interest_changed = true;
  } else if (c.paused && backlog <= cfg_.write_low_watermark) {
    c.paused = false;
    if (!s.draining && !c.closing) c.reading = true;
    // EPOLL_CTL_MOD re-reports current readiness as a fresh edge, so bytes
    // that arrived while paused surface on the next epoll_wait.
    interest_changed = true;
  }
  if (interest_changed) update_interest(s, c);
  return true;
}

void EventLoopServer::update_interest(Shard& s, Conn& c) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP;
  if (c.reading) ev.events |= EPOLLIN;
  if (c.want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = c.id;
  ::epoll_ctl(s.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
}

void EventLoopServer::close_conn(Shard& s, Conn& c) {
  if (c.fd < 0) return;
  ::epoll_ctl(s.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  net::close_fd(c.fd);
  c.fd = -1;
  stats_.connections_open.fetch_sub(1, std::memory_order_relaxed);
  // In-flight batches keep their shared_ptr state; completions for this id
  // simply miss the lookup and are dropped.
  s.conns.erase(c.id);
}

}  // namespace ipso::serve
