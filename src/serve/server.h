#pragma once

#include "core/expected.h"
#include "serve/engine.h"
#include "serve/event_loop.h"
#include "serve/transport.h"

#include <atomic>
#include <cstdint>
#include <string>

/// \file server.h
/// The TCP front end of ipso::serve. Since PR 6 the listener is an epoll
/// event loop (event_loop.h): a fixed number of shard threads multiplex all
/// connections over non-blocking sockets, and two wire protocols are
/// negotiated per connection from the first byte — newline-delimited JSON
/// (compatibility mode, byte-identical to the PR 4/5 protocol) and the
/// length-prefixed binary batched format (framing.h). TcpServer keeps its
/// original surface: construct with an engine, start(), port(),
/// connections_accepted(), shutdown().
///
/// Shutdown semantics (the CI smoke test's contract): shutdown() stops
/// accepting and reading immediately (eventfd wakeup, no poll tick), drains
/// the engine — every admitted request is answered, new ones are rejected
/// with "draining" — then flushes the remaining responses and closes every
/// connection.

namespace ipso::serve {

class TcpServer {
 public:
  /// The engine must outlive the server. Construction does not bind;
  /// call start().
  TcpServer(ServeEngine& engine, ServerConfig cfg = {});

  /// Joins every thread and closes every socket (implicit shutdown()).
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the shard loops. The error string names
  /// the failing syscall and errno text.
  Expected<bool, NetError> start();

  /// The bound port (resolves ephemeral port 0); 0 before start().
  std::uint16_t port() const noexcept { return loop_.port(); }

  /// Stops accepting, finishes in-flight requests, drains the engine,
  /// flushes and closes every connection, joins all threads. Idempotent.
  void shutdown();

  /// Connections accepted so far.
  std::size_t connections_accepted() const noexcept {
    return loop_.connections_accepted();
  }

  /// Event-loop counter snapshot (wakeups, frames, bytes, stalls).
  NetStats net_stats() const noexcept { return loop_.stats(); }

 private:
  ServeEngine& engine_;
  EventLoopServer loop_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace ipso::serve
