#pragma once

#include "models/zoo.h"
#include "runtime/exec_pool.h"
#include "serve/observe.h"
#include "serve/proto.h"
#include "store/tiered_store.h"

#include <cstddef>
#include <functional>
#include <future>
#include <string>

#include "core/sync.h"

/// \file engine.h
/// ServeEngine: the embeddable core of the model-serving subsystem. One
/// engine owns a runtime::ExecPool worker pool, the tiered fit store
/// (DRAM LRU cache with request coalescing, plus an optional persistent
/// disk tier — store/tiered_store.h), and a bounded admission queue, and
/// exposes the full IPSO pipeline — fit / predict / classify / diagnose /
/// recommend — as request lines in, response lines out.
///
/// Guarantees:
///  * **Determinism** — a response is a pure function of the request line;
///    cached, coalesced, and freshly-computed answers are byte-identical,
///    at any thread count.
///  * **Repeated lines skip the parse** — the response to a fit, classify,
///    predict or recommend line with inline series is remembered on its
///    DRAM fit entry under the line's keyed digest (store/line_digest.h);
///    the same line arriving again is answered on the calling thread
///    before parsing or queueing. It still passes admission first, and it
///    counts as received, completed and a DRAM hit.
///  * **Bounded memory** — at most `queue_capacity` requests are admitted
///    (queued + running); beyond that submit() resolves immediately with an
///    `overloaded` error response instead of queueing. Rejection is O(1)
///    and allocation-light, so saturation sheds load instead of amplifying
///    it.
///  * **Deadlines** — a request whose `deadline_ms` expired while it sat in
///    the queue is answered `deadline_exceeded` without running (work that
///    nobody is waiting for anymore is the first thing shed under load).
///  * **Graceful drain** — drain() stops admission ("draining" responses)
///    and returns once every admitted request has completed; the destructor
///    drains implicitly.
///
/// Counters: admission outcomes in ServeStats (stats()), cache and disk
/// tier outcomes in store_stats(), observation windows in observe_stats();
/// each event is counted once, always on. ipso::obs adds per-request
/// latency and queue-wait histograms and a span per request (visible in
/// the Chrome trace when --trace-out is active).

namespace ipso::serve {

/// Engine construction parameters.
struct ServeConfig {
  /// Worker threads; 0 = runtime::default_thread_count() (IPSO_THREADS).
  std::size_t threads = 0;
  /// Admitted-but-unfinished request bound (queued + running).
  std::size_t queue_capacity = 256;
  /// READY fit outcomes retained by the DRAM tier of the fit store.
  std::size_t cache_capacity = 128;
  /// Directory for the persistent fit tier; empty = DRAM-only. When set,
  /// fits evicted from DRAM spill to versioned checksummed segments and a
  /// restarted engine serves them back without re-fitting (warm restart).
  std::string store_dir;
  /// Deadline applied when a request carries none; 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Streaming observation windows behind the observe/compare ops:
  /// per-workload window capacity, key bound, materiality threshold.
  ObserveConfig observe;
  /// Test hook: runs inside every *real* (non-cached, non-coalesced) fit
  /// computation, on the worker thread. Lets tests hold a fit in flight to
  /// prove coalescing; never set in production.
  std::function<void()> fit_hook;
};

/// Monotonic admission counters owned by the engine; snapshot via
/// ServeEngine::stats(). Cache and disk-tier counters live in the store
/// (ServeEngine::store_stats()).
///
/// Conservation identity: every arrival is counted in `received` and ends
/// up in exactly one outcome bucket, so at all times
///
///   received == completed + deadline_expired + overloaded
///             + rejected_draining + parse_errors + queue_depth
///
/// and once the engine is drained (queue_depth == 0) the five outcome
/// counters partition `received` exactly. test_serve asserts this.
struct ServeStats {
  std::size_t received = 0;          ///< every arrival, admitted or not
  std::size_t completed = 0;         ///< answered with a computed response
  std::size_t overloaded = 0;        ///< rejected: queue full
  std::size_t rejected_draining = 0; ///< rejected: drain in progress
  std::size_t deadline_expired = 0;  ///< answered deadline_exceeded
  std::size_t parse_errors = 0;      ///< rejected before admission
  std::size_t queue_depth = 0;       ///< admitted right now
  std::size_t peak_queue_depth = 0;  ///< high-water mark of queue_depth
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig cfg = {});

  /// Drains: every admitted request completes before destruction returns.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Submits one request line. The future always resolves to exactly one
  /// response line (success, error, or rejection) — never throws, never
  /// hangs. Rejections (parse error, overloaded, draining) resolve
  /// immediately on the calling thread.
  std::future<std::string> submit(std::string line) IPSO_EXCLUDES(mu_);

  /// Callback flavor of submit() for the event-loop front end, which cannot
  /// block on futures. `done` is invoked exactly once with the response
  /// line: inline on the calling thread for rejections (parse error,
  /// overloaded, draining), on a worker thread otherwise. The callback must
  /// be cheap and must not re-enter the engine. Every callback for work
  /// admitted before drain() has completed by the time drain() returns.
  void submit_async(std::string line,
                    std::function<void(std::string)> done)
      IPSO_EXCLUDES(mu_);

  /// Synchronous convenience: submit(line).get().
  std::string handle(const std::string& line);

  /// Stops admission, blocks until every admitted request has been
  /// answered, then flushes the fit store (READY outcomes persist and the
  /// active segment is synced). Idempotent; submits during/after drain get
  /// "draining".
  void drain() IPSO_EXCLUDES(mu_);

  /// True once drain() has begun.
  bool draining() const IPSO_EXCLUDES(mu_);

  /// Admission counter snapshot.
  ServeStats stats() const IPSO_EXCLUDES(mu_);

  /// Full tiered-store snapshot (DRAM + tier-crossing + disk counters).
  store::TieredStore::Stats store_stats() const { return store_.stats(); }

  /// Observation-window counters (keys, points, material/absorbed splits).
  ObservationStore::Stats observe_stats() const {
    return observations_.stats();
  }

  /// Outcome of opening the persistent tier (trivially ok when
  /// store_dir is empty). A failed open degrades the engine to DRAM-only
  /// rather than refusing to serve; the daemon reports the message.
  const store::IoStatus& store_status() const noexcept {
    return store_status_;
  }

  /// Underlying fit computations actually performed: DRAM misses minus
  /// misses absorbed by the persistent tier (a promote decodes stored
  /// bits, it does not re-fit). The coalescing, caching, and warm-restart
  /// acceptance tests key off this.
  std::size_t fits_performed() const;

  /// Resolved worker-thread count.
  std::size_t threads() const noexcept { return pool_.size(); }

 private:
  /// True when a request arriving now would be admitted.
  bool admitting() const IPSO_EXCLUDES(mu_);

  /// Runs one admitted request; maps ContractViolation escapes to a
  /// "contract_violation" error response (and any other exception to
  /// "internal") so a worker thread can never die on a bad request. A
  /// response built through cached_fit() is remembered in the store under
  /// `digest`, the digest of the request line.
  std::string process(const Request& req, const store::LineDigest& digest);

  /// Dispatches one admitted request; returns the response line. May throw.
  /// `fit_key` receives the canonical key when cached_fit() ran.
  std::string dispatch(const Request& req, std::string* fit_key);

  /// Fit (through the tiered store) for ops that need fitted factors;
  /// `key` receives the canonical fit key.
  store::TieredStore::Result cached_fit(const Request& req, std::string* key);

  /// The observe/compare ops (split out of dispatch for readability).
  std::string dispatch_observe(const Request& req);
  std::string dispatch_compare(const Request& req);

  ServeConfig cfg_;
  store::TieredStore store_;
  store::IoStatus store_status_;
  ObservationStore observations_;
  models::ModelZoo zoo_;
  runtime::ExecPool pool_;

  /// Admission state + stats (DESIGN.md §13, capability "serve.engine").
  /// Order rank 1: held while calling pool_.submit() (engine → pool edge);
  /// never taken by store, observe, or obs code.
  mutable sync::Mutex mu_{"serve.engine"};
  bool draining_ IPSO_GUARDED_BY(mu_) = false;
  ServeStats stats_ IPSO_GUARDED_BY(mu_);
};

}  // namespace ipso::serve
