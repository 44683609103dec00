#pragma once

#include "serve/framing.h"
#include "serve/transport.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.h"

/// \file event_loop.h
/// The epoll front end of ipso::serve: N shard threads, each running one
/// epoll readiness loop over non-blocking sockets. Replaces the PR-4
/// thread-per-connection design — thread count is fixed at `shards`
/// regardless of connection count, and stop/drain is signalled through a
/// per-shard eventfd instead of a 100 ms poll tick.
///
/// Per connection: a reusable read buffer (bounded by the max frame size),
/// a reusable write buffer with a backpressure watermark (reads pause while
/// a slow consumer's responses pile up past `write_high_watermark`, resume
/// below `write_low_watermark`), and a FrameCodec negotiated from the first
/// byte received (framing.h): binary batched frames or newline-JSON
/// compatibility mode on the same port.
///
/// Batching: one request frame of N records dispatches N handler
/// invocations and yields exactly one response frame in request order. JSON
/// lines are batches of one; consecutive completed responses still coalesce
/// into a single send when the loop flushes.
///
/// Threading: each connection belongs to exactly one shard and all its
/// state is touched only by that shard's thread. Handler completion
/// callbacks (any thread) write into their own pre-sized response slot,
/// decrement the batch's atomic remaining-count, and post the connection id
/// to the shard's inbox + eventfd; the shard thread alone encodes and
/// writes.

namespace ipso::serve {

/// Listener configuration: the event loop's, TcpServer's, and (as the
/// base of RouterConfig) the router front end's. The first two fields
/// lead so `ServerConfig{host, port}` aggregate initialization works.
struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address
  std::uint16_t port = 0;          ///< 0 = ephemeral (read back via port())
  std::size_t shards = 1;          ///< epoll loops (and loop threads)
  std::size_t max_frame_bytes = 16u << 20;   ///< frame payload / line bound
  std::size_t write_high_watermark = 4u << 20;  ///< pause reads above this
  std::size_t write_low_watermark = 1u << 20;   ///< resume reads below this
  int listen_backlog = 1024;
};

/// Monotonic front-end counters (sum over shards).
struct NetStats {
  std::size_t wakeups = 0;            ///< epoll_wait returns
  std::size_t frames_in = 0;          ///< decoded batches (frames or lines)
  std::size_t frames_out = 0;         ///< encoded response batches
  std::size_t requests_in = 0;        ///< records dispatched to the engine
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  std::size_t backpressure_stalls = 0;  ///< reads paused on the watermark
  std::size_t protocol_errors = 0;      ///< malformed framing (fatal/conn)
  std::size_t connections_accepted = 0;
  std::size_t connections_open = 0;
};

/// What the loop does with each decoded request record: `handler(record,
/// done)` must eventually invoke `done(response)` exactly once — inline or
/// from any thread — with the single response record. This seam is how the
/// same front end serves both a local ServeEngine (TcpServer) and the
/// fan-out router (router.h), which completes records via upstream replies.
using RequestHandler =
    std::function<void(std::string, std::function<void(std::string)>)>;

class EventLoopServer {
 public:
  /// Everything `handler` captures must outlive the server. Construction
  /// does not bind.
  EventLoopServer(RequestHandler handler, const ServerConfig& cfg);

  /// Implicit begin_drain() + finish() (without the backend drain — callers
  /// that want the full answered-before-exit contract go through
  /// TcpServer::shutdown() or Router::shutdown()).
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds, listens, spawns the shard threads.
  [[nodiscard]] Expected<bool, NetError> start();

  /// The bound port (resolves ephemeral port 0); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] std::size_t connections_accepted() const noexcept {
    return stats_.connections_accepted.load(std::memory_order_relaxed);
  }

  [[nodiscard]] NetStats stats() const noexcept;

  /// Phase 1 of shutdown: stop accepting and stop reading, immediately
  /// (eventfd wakeup, no poll tick). In-flight requests keep completing
  /// and their responses keep flushing. Idempotent.
  void begin_drain();

  /// Phase 2: flush every remaining completed response (bounded by a small
  /// deadline for peers that stopped reading), close all connections, join
  /// the shard threads. Idempotent.
  void finish();

 private:
  struct Shard;
  struct Conn;
  struct Batch;

  void shard_loop(Shard& s);
  void handle_accept(Shard& s);
  void add_conn(Shard& s, int fd);
  void handle_readable(Shard& s, Conn& c);
  bool parse_input(Shard& s, Conn& c);
  void dispatch_batch(Shard& s, Conn& c, WireBatch wire);
  void flush_completed(Shard& s, Conn& c);
  bool try_flush(Shard& s, Conn& c);
  void update_interest(Shard& s, Conn& c);
  void close_conn(Shard& s, Conn& c);
  void notify_completion(Shard& s, std::uint64_t conn_id);
  static void wake(Shard& s);

  RequestHandler handler_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_conn_id_{2};  ///< 0/1 = wake/listen tags
  /// Atomic, not plain: start() runs on the owning thread but begin_drain()
  /// and finish() are fair game from any thread (Router::shutdown, signal
  /// paths), and the old unsynchronized bool was a data race the
  /// thread-safety migration flagged (see test_serve_framing's
  /// CrossThreadDrain regression).
  std::atomic<bool> started_{false};
  std::atomic<bool> drain_begun_{false};
  std::atomic<bool> finished_{false};

  struct AtomicStats {
    std::atomic<std::size_t> wakeups{0};
    std::atomic<std::size_t> frames_in{0};
    std::atomic<std::size_t> frames_out{0};
    std::atomic<std::size_t> requests_in{0};
    std::atomic<std::size_t> bytes_in{0};
    std::atomic<std::size_t> bytes_out{0};
    std::atomic<std::size_t> backpressure_stalls{0};
    std::atomic<std::size_t> protocol_errors{0};
    std::atomic<std::size_t> connections_accepted{0};
    std::atomic<std::size_t> connections_open{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace ipso::serve
