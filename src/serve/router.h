#pragma once

#include "core/expected.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/placement.h"
#include "serve/proto.h"
#include "serve/transport.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"

/// \file router.h
/// ipso::serve::Router — the sharded serving tier's front door. A thin
/// routing daemon that speaks the same dual JSON/binary protocol as
/// ipso_serve on its front (the EventLoopServer, via the RequestHandler
/// seam) and fans each request out to one of N ipso_serve replicas over
/// pooled binary Client connections on its back.
///
/// Routing: requests that carry factor observations are keyed by the same
/// canonical fit key the replicas' caches use, so a key always lands on the
/// replica whose cache is warm for it — which replica is the
/// PlacementPolicy's call (placement.h). Keyless deterministic requests
/// (ping, explicit-params predict/classify/recommend, diagnose-from-speedup)
/// round-robin, and unparseable records are forwarded verbatim so the
/// replica's parse-error response is byte-identical to a single node's.
/// `stats` is answered locally with router-level counters (a replica's
/// counters would describe one shard, not the tier).
///
/// Ordering: each upstream connection is a FIFO — batches are sent and
/// their response frames consumed strictly in order, so responses match
/// requests positionally with no per-request ids on the wire.
///
/// Failure: when a replica cannot be reached (or drops mid-batch) every
/// affected request is answered with an "upstream_unavailable" error
/// response, the poisoned connection is closed, and the next batch for that
/// replica reconnects. The router itself never crashes or hangs on a dead
/// replica.
///
/// Shutdown mirrors TcpServer: begin front-end drain, flush every queued
/// upstream request (each gets a real or error response), then close.

namespace ipso::serve {

/// One backend replica address.
struct ReplicaEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Router construction parameters: the front-end listener (the inherited
/// ServerConfig fields) plus the replica fan-out.
struct RouterConfig : ServerConfig {
  std::vector<ReplicaEndpoint> replicas;
  std::string placement = "hash";  ///< "hash" | "range" | "affinity"
  std::size_t connections_per_replica = 2;
  std::size_t max_upstream_batch = 64;  ///< records per upstream frame
};

/// Monotonic router counters; snapshot via Router::stats().
struct RouterStats {
  std::size_t received = 0;         ///< records entering route()
  std::size_t routed_keyed = 0;     ///< placed by canonical fit key
  std::size_t routed_keyless = 0;   ///< round-robined (incl. parse errors)
  std::size_t answered_local = 0;   ///< stats ops answered by the router
  std::size_t rejected_draining = 0;  ///< answered "draining" at shutdown
  std::size_t upstream_batches = 0;   ///< frames sent to replicas
  std::size_t upstream_errors = 0;    ///< records answered upstream_unavailable
  std::size_t reconnects = 0;         ///< upstream connects (incl. first)
  std::vector<std::size_t> per_replica;  ///< records forwarded per replica
};

class Router {
 public:
  explicit Router(RouterConfig cfg);

  /// Implicit shutdown().
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Validates the config (>= 1 replica, known placement), spawns the
  /// upstream workers, binds the front end. Replicas are connected lazily
  /// on first use — a replica that is down at start() costs nothing until
  /// a request routes to it.
  [[nodiscard]] Expected<bool, NetError> start();

  /// The bound front-end port (resolves ephemeral port 0); 0 before
  /// start().
  [[nodiscard]] std::uint16_t port() const noexcept { return loop_.port(); }

  /// Stops the front end, answers every queued upstream request, joins all
  /// threads. Idempotent.
  void shutdown();

  [[nodiscard]] RouterStats stats() const IPSO_EXCLUDES(stats_mu_);

  /// Front-end event-loop counters.
  [[nodiscard]] NetStats net_stats() const noexcept { return loop_.stats(); }

  /// The active placement policy's name ("hash"/"range"/"affinity").
  [[nodiscard]] const char* placement_name() const noexcept;

 private:
  /// One pooled upstream connection: a binary Client owned by a dedicated
  /// worker thread that drains a FIFO of pending records in batches.
  struct Upstream {
    std::size_t replica = 0;  ///< index into cfg_.replicas
    Client client{Proto::kBinary};  ///< worker-thread-only (no lock needed)
    /// DESIGN.md §13, capability "serve.router.upstream" — a leaf guarding
    /// one connection's FIFO; never held across the socket write.
    sync::Mutex mu;
    sync::CondVar cv;
    struct Pending {
      std::string record;
      std::string id;          ///< parsed request id (for error responses)
      Op op = Op::kUnknown;    ///< parsed op (ditto)
      std::function<void(std::string)> done;
    };
    std::deque<Pending> queue IPSO_GUARDED_BY(mu);
    bool stop IPSO_GUARDED_BY(mu) = false;
    std::thread worker;
  };

  /// The front end's RequestHandler: parse, place, enqueue (or answer
  /// locally).
  void route(std::string record, std::function<void(std::string)> done)
      IPSO_EXCLUDES(stats_mu_);

  /// Worker-thread body for one upstream connection.
  void upstream_loop(Upstream& up);

  /// Local `stats` answer (router-level counters + placement name).
  [[nodiscard]] std::string local_stats_response(const std::string& id) const;

  RouterConfig cfg_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;
  std::atomic<std::size_t> round_robin_{0};  ///< keyless replica cursor
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> conn_cursor_;
  EventLoopServer loop_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};

  /// DESIGN.md §13, capability "serve.router.stats" — a leaf held only
  /// over counter bumps and snapshots.
  mutable sync::Mutex stats_mu_{"serve.router.stats"};
  RouterStats stats_ IPSO_GUARDED_BY(stats_mu_);
};

}  // namespace ipso::serve
