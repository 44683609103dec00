#include "serve/engine.h"

#include "core/contracts.h"
#include "models/ipso_model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "trace/json.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

namespace ipso::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Roll-over size of the persistent tier's active segment.
constexpr std::uint64_t kStoreSegmentBytes = 4ull << 20;

/// Cached-id obs histograms (one relaxed load per site when disabled).
/// Counts live in ServeStats and the store's stats, not here.
struct Instruments {
  obs::Histogram latency{"serve.request_latency_seconds"};
  obs::Histogram queue_wait{"serve.queue_wait_seconds"};
};

Instruments& instruments() {
  static Instruments i;
  return i;
}

/// Predictor for a request that carried explicit asymptotic params: the
/// materialized exact factor curves under those asymptotics.
SpeedupPredictor predictor_from_params(const AsymptoticParams& p) {
  return SpeedupPredictor(p.materialize(), p.eta);
}

}  // namespace

ServeEngine::ServeEngine(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      store_(store::TieredStoreConfig{cfg_.cache_capacity, cfg_.store_dir,
                                      kStoreSegmentBytes}),
      store_status_(store_.open()),
      observations_(cfg_.observe),
      pool_(cfg_.threads) {}

ServeEngine::~ServeEngine() { drain(); }

std::future<std::string> ServeEngine::submit(std::string line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  submit_async(std::move(line), [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void ServeEngine::submit_async(std::string line,
                               std::function<void(std::string)> done) {
  auto parsed = parse_request(line);
  if (!parsed) {
    {
      sync::MutexLock lock(mu_);
      ++stats_.received;  // every arrival counts, rejected or not
      ++stats_.parse_errors;
    }
    done(error_response({}, Op::kUnknown, "parse_error", parsed.error()));
    return;
  }
  Request req = std::move(*parsed);
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : cfg_.default_deadline_ms;
  const Clock::time_point admitted_at = Clock::now();

  {
    sync::MutexLock lock(mu_);
    if (draining_) {
      ++stats_.received;
      ++stats_.rejected_draining;
      lock.unlock();
      done(error_response(req.id, req.op, "draining",
                          "server is draining; not accepting "
                          "new requests"));
      return;
    }
    if (stats_.queue_depth >= cfg_.queue_capacity) {
      ++stats_.received;
      ++stats_.overloaded;
      lock.unlock();
      done(error_response(
          req.id, req.op, "overloaded",
          "admission queue full (" + std::to_string(cfg_.queue_capacity) +
              " requests in flight); retry with backoff"));
      return;
    }
    ++stats_.received;
    ++stats_.queue_depth;
    stats_.peak_queue_depth =
        std::max(stats_.peak_queue_depth, stats_.queue_depth);

    // Enqueue while still holding mu_: once drain() observes draining_ set,
    // every admitted request is already in the pool queue, so wait_idle()
    // cannot return before it runs.
    pool_.submit([this, done = std::move(done), admitted_at, deadline_ms,
                  req = std::move(req)]() mutable {
      const double waited =
          std::chrono::duration<double>(Clock::now() - admitted_at).count();
      instruments().queue_wait.observe(waited);
      std::string response;
      const bool expired = deadline_ms > 0.0 && waited * 1e3 > deadline_ms;
      if (expired) {
        // Expired in the queue: shedding it now is cheaper than computing
        // an answer nobody is waiting for. Counted as deadline_expired,
        // not completed — each arrival lands in exactly one outcome bucket
        // (the ServeStats conservation identity).
        {
          sync::MutexLock lock(mu_);
          ++stats_.deadline_expired;
        }
        response = error_response(
            req.id, req.op, "deadline_exceeded",
            "request spent longer than its deadline in the queue");
      } else {
        obs::ScopedSpan span(
            "serve " + std::string(to_string(req.op)), "serve",
            req.id.empty() ? std::string()
                           : "\"id\":\"" + trace::json_escape(req.id) + "\"");
        response = process(req);
      }
      instruments().latency.observe(
          std::chrono::duration<double>(Clock::now() - admitted_at).count());
      {
        sync::MutexLock lock(mu_);
        if (!expired) ++stats_.completed;
        --stats_.queue_depth;
      }
      done(std::move(response));
    });
  }
}

std::string ServeEngine::handle(const std::string& line) {
  return submit(line).get();
}

void ServeEngine::drain() {
  {
    sync::MutexLock lock(mu_);
    draining_ = true;
  }
  pool_.wait_idle();
  // All admitted fits have published; persist the warm set before the
  // process can exit (SIGTERM path of the daemon runs exactly this).
  store_.flush();
}

bool ServeEngine::draining() const {
  sync::MutexLock lock(mu_);
  return draining_;
}

ServeStats ServeEngine::stats() const {
  sync::MutexLock lock(mu_);
  return stats_;
}

std::size_t ServeEngine::fits_performed() const {
  return store_.fits_performed();
}

store::TieredStore::Result ServeEngine::cached_fit(const Request& req) {
  const std::string key =
      store::canonical_fit_key(req.workload, req.eta, req.ex, req.in, req.q);
  return store_.get_or_compute(key, [this, &req] {
    if (cfg_.fit_hook) cfg_.fit_hook();
    return store::FitOutcome{fit_factors(req.workload, req.measurements())};
  });
}

std::string ServeEngine::process(const Request& req) {
  // The serve daemon must not abort on a contract violation: the protocol
  // boundary validates every field, so a violation here means a bug or an
  // input combination the validators missed — either way the right behavior
  // for a long-running server is a structured error response, not a dead
  // worker. The violation handler stays the throwing default (contracts.h);
  // this is the catch side of that policy.
  try {
    return dispatch(req);
  } catch (const contracts::ContractViolation& v) {
    return error_response(req.id, req.op, "contract_violation", v.what());
  } catch (const std::exception& e) {
    return error_response(req.id, req.op, "internal", e.what());
  }
}

std::string ServeEngine::dispatch(const Request& req) {
  switch (req.op) {
    case Op::kPing:
      return ok_response(req, "{\"pong\":true}");

    case Op::kStats: {
      const ServeStats s = stats();
      const store::TieredStore::Stats st = store_.stats();
      const store::CacheStats& c = st.cache;
      std::ostringstream os;
      os << "{\"threads\":" << pool_.size()
         << ",\"queue_capacity\":" << cfg_.queue_capacity
         << ",\"received\":" << s.received
         << ",\"completed\":" << s.completed
         << ",\"overloaded\":" << s.overloaded
         << ",\"rejected_draining\":" << s.rejected_draining
         << ",\"deadline_exceeded\":" << s.deadline_expired
         << ",\"parse_errors\":" << s.parse_errors
         << ",\"queue_depth\":" << s.queue_depth
         << ",\"peak_queue_depth\":" << s.peak_queue_depth
         << ",\"cache\":{\"capacity\":" << store_.cache_capacity()
         << ",\"size\":" << c.size << ",\"hits\":" << c.hits
         << ",\"misses\":" << c.misses << ",\"coalesced\":" << c.coalesced
         << ",\"evictions\":" << c.evictions
         << "},\"store\":{\"persistent\":"
         << (st.persistent ? "true" : "false")
         << ",\"disk_hits\":" << st.tier.disk_hits
         << ",\"spilled\":" << st.tier.spilled
         << ",\"spill_rejected\":" << st.tier.spill_rejected
         << ",\"spill_errors\":" << st.tier.spill_errors
         << ",\"decode_failures\":" << st.tier.decode_failures
         << ",\"records\":" << st.disk.records
         << ",\"segments\":" << st.disk.segments
         << ",\"bytes\":" << st.disk.bytes
         << ",\"recovered\":" << st.disk.recovered
         << ",\"skipped\":" << st.disk.skipped_total()
         << ",\"invalidations\":" << st.tier.invalidations << "}";
      const ObservationStore::Stats ob = observations_.stats();
      os << ",\"observe\":{\"keys\":" << ob.keys
         << ",\"points\":" << ob.points << ",\"observed\":" << ob.observed
         << ",\"material\":" << ob.material
         << ",\"absorbed\":" << ob.absorbed
         << ",\"evicted_keys\":" << ob.evicted_keys
         << "},\"fits_performed\":" << fits_performed() << "}";
      return ok_response(req, os.str());
    }

    case Op::kFit: {
      const store::TieredStore::Result fit = cached_fit(req);
      if (!fit.outcome->fits) {
        return error_response(req.id, req.op, "fit_failed",
                              to_string(fit.outcome->fits.error()));
      }
      return ok_response(req, fit_result_json(*fit.outcome->fits));
    }

    case Op::kClassify: {
      if (req.params) {
        std::ostringstream os;
        os << "{\"params\":" << params_json(*req.params)
           << ",\"classification\":"
           << classification_json(classify(*req.params)) << "}";
        return ok_response(req, os.str());
      }
      const store::TieredStore::Result fit = cached_fit(req);
      if (!fit.outcome->fits) {
        return error_response(req.id, req.op, "fit_failed",
                              to_string(fit.outcome->fits.error()));
      }
      const AsymptoticParams& p = fit.outcome->fits->params;
      std::ostringstream os;
      os << "{\"params\":" << params_json(p)
         << ",\"classification\":" << classification_json(classify(p)) << "}";
      return ok_response(req, os.str());
    }

    case Op::kPredict:
    case Op::kRecommend: {
      AsymptoticParams params;
      std::optional<SpeedupPredictor> predictor;
      if (req.params) {
        params = *req.params;
        predictor.emplace(predictor_from_params(params));
      } else {
        const store::TieredStore::Result fit = cached_fit(req);
        if (!fit.outcome->fits) {
          return error_response(req.id, req.op, "fit_failed",
                                to_string(fit.outcome->fits.error()));
        }
        params = fit.outcome->fits->params;
        predictor.emplace(SpeedupPredictor::from_fits(*fit.outcome->fits));
      }
      const std::vector<double> grid = req.grid();
      if (req.op == Op::kPredict) {
        return ok_response(
            req, predict_result_json(params, predictor->curve(grid)));
      }
      const ProvisioningPlan plan =
          plan_provisioning(*predictor, grid, req.knee_frac);
      return ok_response(req, recommend_result_json(params, plan));
    }

    case Op::kDiagnose: {
      const auto report =
          req.has_observations()
              ? diagnose(req.workload, req.speedup, req.measurements())
              : diagnose(req.workload, req.speedup);
      if (!report) {
        return error_response(req.id, req.op, "fit_failed",
                              to_string(report.error()));
      }
      return ok_response(req, diagnose_result_json(*report));
    }

    case Op::kObserve:
      return dispatch_observe(req);

    case Op::kCompare:
      return dispatch_compare(req);

    case Op::kUnknown:
      break;
  }
  return error_response(req.id, req.op, "internal", "unhandled op");
}

std::string ServeEngine::dispatch_observe(const Request& req) {
  ObservationStore::ObserveResult r = observations_.observe(
      req.workload_key, req.observe_n, req.observe_value);
  // A material change supersedes the window's recorded zoo fit: drop it
  // from every store tier so the next compare is a genuine refit (the
  // fits_performed delta the acceptance test keys off).
  if (!r.superseded_fit_key.empty()) store_.invalidate(r.superseded_fit_key);
  return ok_response(req, observe_result_json(req.workload_key, r));
}

std::string ServeEngine::dispatch_compare(const Request& req) {
  models::Observations obs;
  obs.type = req.workload;
  obs.eta = req.eta;
  std::uint64_t version = 0;
  const bool keyed = !req.workload_key.empty();
  if (keyed) {
    auto snap = observations_.snapshot(req.workload_key);
    if (!snap) {
      return error_response(
          req.id, req.op, "bad_request",
          "unknown workload key '" + req.workload_key + "'");
    }
    obs.speedup = std::move(snap->window);
    version = snap->version;
  } else {
    obs.speedup = req.observations;
  }

  // The IPSO member's factor fit routes through the tiered store under a
  // zoo-namespaced content key ('Z' + the fit-op key encoding, so it can
  // never collide with an 'F' fit-op key), which makes compare refits
  // count in fits_performed, coalesce across concurrent compares of the
  // same window, and survive a --store-dir warm restart byte-identically.
  std::string fit_key = store::canonical_fit_key(
      obs.type, obs.eta, obs.speedup, stats::Series(), stats::Series());
  fit_key[0] = 'Z';
  const models::IpsoFitHook hook =
      [this, &fit_key](
          const models::Observations& o) -> Expected<FactorFits> {
    const store::TieredStore::Result r =
        store_.get_or_compute(fit_key, [this, &o] {
          if (cfg_.fit_hook) cfg_.fit_hook();
          return store::FitOutcome{models::IpsoModel::fit_observations(o)};
        });
    return r.outcome->fits;
  };
  const Expected<models::ZooResult> zoo = zoo_.compare(obs, hook);
  if (!zoo.has_value()) {
    return error_response(req.id, req.op, "fit_failed",
                          to_string(zoo.error()));
  }
  // Remember which store key this window's fit lives under, so a future
  // material observe can invalidate it (no-op if the window already moved).
  if (keyed) observations_.note_fit(req.workload_key, version, fit_key);
  return ok_response(
      req, compare_result_json(*zoo, keyed ? req.workload_key : std::string(),
                               obs.speedup));
}

}  // namespace ipso::serve
