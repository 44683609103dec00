#include "serve/client.h"
#include "serve/engine.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "store/tiered_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "core/sync.h"
#include <vector>

namespace ipso::serve {
namespace {

using namespace std::chrono_literals;

/// A fit request over factors a fixed-time fit accepts (positive IN). The
/// seed perturbs EX so distinct seeds are distinct cache keys.
std::string fit_request(int seed, const char* op = "fit") {
  const double t1 = 100.0 + seed;
  std::ostringstream os;
  os << "{\"op\":\"" << op
     << "\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  bool first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (t1 / n + 0.5) << "]";
  }
  os << "],\"in\":[";
  first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (0.4 + 1.05 * n) << "]";
  }
  os << "]}";
  return os.str();
}

ServeConfig threads_config(std::size_t threads) {
  ServeConfig cfg;
  cfg.threads = threads;
  return cfg;
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

bool has_error(const std::string& response, const std::string& code) {
  return response.find("\"error\":\"" + code + "\"") != std::string::npos;
}

/// Polls `cond` for up to two seconds (TSan runs are slow).
bool eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 2000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProto, ParsesFullRequest) {
  auto parsed = parse_request(
      "{\"op\":\"predict\",\"id\":\"r7\",\"workload\":\"fixed-size\","
      "\"eta\":0.9,\"ex\":[[1,10],[2,5]],\"ns\":[1,2,4],"
      "\"knee_frac\":0.8,\"deadline_ms\":250}");
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed->op, Op::kPredict);
  EXPECT_EQ(parsed->id, "r7");
  EXPECT_EQ(parsed->workload, WorkloadType::kFixedSize);
  EXPECT_DOUBLE_EQ(parsed->eta, 0.9);
  EXPECT_EQ(parsed->ex.size(), 2u);
  EXPECT_EQ(parsed->ns, (std::vector<double>{1, 2, 4}));
  EXPECT_DOUBLE_EQ(parsed->knee_frac, 0.8);
  EXPECT_DOUBLE_EQ(parsed->deadline_ms, 250.0);
}

TEST(ServeProto, RejectsMalformedAndInvalid) {
  EXPECT_FALSE(parse_request("not json").has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"frobnicate\"}").has_value());
  // fit without observations is rejected before admission.
  EXPECT_FALSE(parse_request("{\"op\":\"fit\"}").has_value());
  // eta outside (0, 1].
  EXPECT_FALSE(
      parse_request("{\"op\":\"fit\",\"eta\":0,\"ex\":[[1,1]]}").has_value());
  // diagnose needs at least 3 speedup points.
  EXPECT_FALSE(
      parse_request("{\"op\":\"diagnose\",\"speedup\":[[1,1],[2,2]]}")
          .has_value());
}

TEST(ServeProto, ResponsesEchoIdAndOp) {
  Request req;
  req.op = Op::kPing;
  req.id = "abc";
  EXPECT_EQ(ok_response(req, "{\"pong\":true}"),
            "{\"id\":\"abc\",\"op\":\"ping\",\"ok\":true,"
            "\"result\":{\"pong\":true}}");
  EXPECT_EQ(error_response("abc", Op::kFit, "overloaded", "queue full"),
            "{\"id\":\"abc\",\"op\":\"fit\",\"ok\":false,"
            "\"error\":\"overloaded\",\"message\":\"queue full\"}");
}

// --------------------------------------------------- fit cache (DRAM tier)

TEST(FitCache, CanonicalKeyIsBitExact) {
  stats::Series ex("ex");
  ex.add(1, 10.0);
  stats::Series in("in"), q("q");
  const auto key = [&](double eta) {
    return store::canonical_fit_key(WorkloadType::kFixedTime, eta, ex, in, q);
  };
  EXPECT_EQ(key(0.3), key(0.3));
  // 0.1 + 0.2 != 0.3 in doubles: the key sees the exact bits.
  EXPECT_NE(key(0.1 + 0.2), key(0.3));
  EXPECT_NE(store::canonical_fit_key(WorkloadType::kFixedSize, 0.3, ex, in, q),
            key(0.3));
  // Moving a point between series changes the key even if the multiset of
  // doubles is identical.
  stats::Series in2("in");
  in2.add(1, 10.0);
  stats::Series ex2("ex");
  EXPECT_NE(
      store::canonical_fit_key(WorkloadType::kFixedTime, 0.3, ex2, in2, q),
      key(0.3));
}

TEST(FitCache, HitsMissesAndEviction) {
  store::TieredStore cache(store::TieredStoreConfig{2, "", 4ull << 20});
  const auto compute = [] { return store::FitOutcome{FitError::kNotMeasured}; };
  EXPECT_FALSE(cache.get_or_compute("a", compute).hit);
  EXPECT_TRUE(cache.get_or_compute("a", compute).hit);
  EXPECT_FALSE(cache.get_or_compute("b", compute).hit);
  EXPECT_FALSE(cache.get_or_compute("c", compute).hit);  // evicts "a"
  EXPECT_FALSE(cache.get_or_compute("a", compute).hit);  // miss again
  const store::CacheStats s = cache.stats().cache;
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.size, 2u);
}

TEST(FitCache, ClearDropsReadyEntries) {
  store::TieredStore cache(store::TieredStoreConfig{4, "", 4ull << 20});
  const auto compute = [] { return store::FitOutcome{FitError::kNotMeasured}; };
  cache.get_or_compute("a", compute);
  cache.get_or_compute("b", compute);
  EXPECT_EQ(cache.stats().cache.size, 2u);
  cache.clear_memory();
  EXPECT_EQ(cache.stats().cache.size, 0u);
  EXPECT_EQ(cache.stats().cache.evictions, 0u) << "clearing is not eviction";
  EXPECT_FALSE(cache.get_or_compute("a", compute).hit);
}

TEST(FitCache, CoalescedFollowersRefreshLruRecency) {
  // Regression: a key kept hot purely by coalesced waiters used to age as
  // untouched. Capacity 2: a leader computes "a" while a follower waits on
  // it, and the wake hook inserts "b" in the window between the leader's
  // publish and the follower's recency bump. With the fix the follower's
  // serve re-fronts "a" (LRU order [a, b]), so inserting "c" evicts "b"
  // and "a" still hits; without it "a" was the eviction victim while
  // squarely in demand.
  store::TieredStore cache(store::TieredStoreConfig{2, "", 4ull << 20});
  const auto instant = [] { return store::FitOutcome{FitError::kNotMeasured}; };
  cache.set_coalesce_wake_hook([&] { cache.get_or_compute("b", instant); });

  std::thread leader([&] {
    cache.get_or_compute("a", [&]() -> store::FitOutcome {
      // Hold the fit open until the follower is provably coalesced on it.
      EXPECT_TRUE(
          eventually([&] { return cache.stats().cache.coalesced >= 1; }));
      return store::FitOutcome{FitError::kNotMeasured};
    });
  });
  std::thread follower([&] { cache.get_or_compute("a", instant); });
  leader.join();
  follower.join();
  cache.set_coalesce_wake_hook(nullptr);

  EXPECT_FALSE(cache.get_or_compute("c", instant).hit);  // evicts "b"
  EXPECT_TRUE(cache.get_or_compute("a", instant).hit)
      << "the coalesced follower's use of 'a' must count as recency";
  EXPECT_FALSE(cache.get_or_compute("b", instant).hit);  // the evictee
}

// ------------------------------------------------------------------ engine

TEST(ServeEngine, PingFitAndExplicitParamsOps) {
  ServeEngine engine(threads_config(2));
  EXPECT_TRUE(is_ok(engine.handle("{\"op\":\"ping\"}")));

  const std::string fit = engine.handle(fit_request(0));
  ASSERT_TRUE(is_ok(fit)) << fit;
  EXPECT_NE(fit.find("\"params\":"), std::string::npos);
  EXPECT_NE(fit.find("\"classification\":"), std::string::npos);

  const std::string classify = engine.handle(
      "{\"op\":\"classify\",\"params\":{\"workload\":\"fixed-time\","
      "\"eta\":0.9,\"alpha\":0.5,\"delta\":0.1,\"beta\":0,\"gamma\":0}}");
  ASSERT_TRUE(is_ok(classify)) << classify;
  EXPECT_NE(classify.find("\"type\":"), std::string::npos);

  const std::string predict = engine.handle(
      "{\"op\":\"predict\",\"ns\":[1,2,4],\"params\":{\"workload\":"
      "\"fixed-time\",\"eta\":0.9,\"alpha\":0.5,\"delta\":0.1,\"beta\":0,"
      "\"gamma\":0}}");
  ASSERT_TRUE(is_ok(predict)) << predict;
  EXPECT_NE(predict.find("[1,1]"), std::string::npos);  // S(1) == 1

  const std::string recommend = engine.handle(
      "{\"op\":\"recommend\",\"ns\":[1,2,4,8],\"params\":{\"workload\":"
      "\"fixed-time\",\"eta\":0.9,\"alpha\":0.5,\"delta\":0.1,\"beta\":0,"
      "\"gamma\":0}}");
  ASSERT_TRUE(is_ok(recommend)) << recommend;
  EXPECT_NE(recommend.find("\"best_speedup_n\":"), std::string::npos);

  EXPECT_TRUE(is_ok(engine.handle("{\"op\":\"stats\"}")));
}

TEST(ServeEngine, ParseErrorsDoNotConsumeQueueSlots) {
  ServeConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 1;
  ServeEngine engine(cfg);
  const std::string bad = engine.handle("{\"op\":");
  EXPECT_TRUE(has_error(bad, "parse_error"));
  const ServeStats s = engine.stats();
  EXPECT_EQ(s.parse_errors, 1u);
  // The rejected arrival still counts as received (conservation identity),
  // but the queue is untouched: a real request still fits.
  EXPECT_EQ(s.received, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_TRUE(is_ok(engine.handle("{\"op\":\"ping\"}")));
}

TEST(ServeEngine, CacheHitsSkipTheFit) {
  std::atomic<int> fits{0};
  ServeConfig cfg;
  cfg.threads = 1;
  cfg.fit_hook = [&] { fits.fetch_add(1); };
  ServeEngine engine(cfg);
  const std::string first = engine.handle(fit_request(1));
  const std::string second = engine.handle(fit_request(1));
  EXPECT_EQ(first, second);
  EXPECT_EQ(fits.load(), 1);
  EXPECT_EQ(engine.fits_performed(), 1u);
  EXPECT_EQ(engine.store_stats().cache.hits, 1u);
}

TEST(ServeEngine, ConcurrentIdenticalFitsCoalesceToOneFit) {
  constexpr int kClients = 4;
  ipso::sync::Mutex mu;
  ipso::sync::CondVar cv;
  bool release = false;
  std::atomic<int> fits{0};

  ServeConfig cfg;
  cfg.threads = kClients;
  cfg.fit_hook = [&] {
    fits.fetch_add(1);
    ipso::sync::MutexLock lock(mu);
    cv.wait(mu, [&] { return release; });
  };
  ServeEngine engine(cfg);

  std::vector<std::future<std::string>> responses;
  for (int i = 0; i < kClients; ++i) {
    responses.push_back(engine.submit(fit_request(7)));
  }
  // One leader is inside the (held) fit; every other worker reaches the
  // cache and parks as a follower.
  ASSERT_TRUE(eventually([&] {
    return engine.store_stats().cache.coalesced == kClients - 1;
  })) << "followers never coalesced; coalesced="
      << engine.store_stats().cache.coalesced;
  {
    ipso::sync::MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();

  std::vector<std::string> lines;
  for (auto& f : responses) lines.push_back(f.get());
  EXPECT_EQ(fits.load(), 1) << "the fit ran more than once";
  EXPECT_EQ(engine.fits_performed(), 1u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_ok(line)) << line;
    EXPECT_EQ(line, lines.front()) << "coalesced responses must be "
                                      "byte-identical";
  }
}

TEST(ServeEngine, ResponsesByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(fit_request(i));
  requests.push_back(fit_request(2, "classify"));
  requests.push_back(fit_request(3, "recommend"));
  requests.push_back(
      "{\"op\":\"predict\",\"ns\":[1,2,4,8],\"params\":{\"workload\":"
      "\"fixed-time\",\"eta\":0.95,\"alpha\":0.6,\"delta\":0.2,\"beta\":0,"
      "\"gamma\":0}}");

  std::vector<std::vector<std::string>> per_thread_count;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ServeEngine engine(threads_config(threads));
    std::vector<std::future<std::string>> inflight;
    for (const std::string& req : requests) {
      inflight.push_back(engine.submit(req));
    }
    std::vector<std::string> responses;
    for (auto& f : inflight) responses.push_back(f.get());
    per_thread_count.push_back(std::move(responses));
  }
  for (std::size_t t = 1; t < per_thread_count.size(); ++t) {
    ASSERT_EQ(per_thread_count[t].size(), per_thread_count[0].size());
    for (std::size_t i = 0; i < per_thread_count[0].size(); ++i) {
      EXPECT_EQ(per_thread_count[t][i], per_thread_count[0][i])
          << "request " << i << " differs between thread counts";
    }
  }
  for (const std::string& r : per_thread_count[0]) {
    EXPECT_TRUE(is_ok(r)) << r;
  }
}

TEST(ServeEngine, OverloadSheddingIsBoundedAndImmediate) {
  ipso::sync::Mutex mu;
  ipso::sync::CondVar cv;
  bool release = false;

  ServeConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 2;
  cfg.fit_hook = [&] {
    ipso::sync::MutexLock lock(mu);
    cv.wait(mu, [&] { return release; });
  };
  ServeEngine engine(cfg);

  // Fill the queue: one running (held by the hook), one waiting.
  auto first = engine.submit(fit_request(10));
  auto second = engine.submit(fit_request(11));
  ASSERT_TRUE(eventually([&] { return engine.fits_performed() >= 1; }));

  // Beyond capacity: rejected immediately, not queued.
  const std::string rejected = engine.handle(fit_request(12));
  EXPECT_TRUE(has_error(rejected, "overloaded")) << rejected;
  EXPECT_EQ(engine.stats().overloaded, 1u);
  EXPECT_LE(engine.stats().peak_queue_depth, cfg.queue_capacity);

  {
    ipso::sync::MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(is_ok(first.get()));
  EXPECT_TRUE(is_ok(second.get()));
}

TEST(ServeEngine, DrainCompletesAdmittedAndRejectsNew) {
  ipso::sync::Mutex mu;
  ipso::sync::CondVar cv;
  bool release = false;

  ServeConfig cfg;
  cfg.threads = 1;
  cfg.fit_hook = [&] {
    ipso::sync::MutexLock lock(mu);
    cv.wait(mu, [&] { return release; });
  };
  ServeEngine engine(cfg);

  auto admitted = engine.submit(fit_request(20));
  auto queued = engine.submit(fit_request(21));
  ASSERT_TRUE(eventually([&] { return engine.fits_performed() >= 1; }));

  std::thread drainer([&] { engine.drain(); });
  ASSERT_TRUE(eventually([&] { return engine.draining(); }));

  // New work is rejected while (and after) draining.
  const std::string rejected = engine.handle(fit_request(22));
  EXPECT_TRUE(has_error(rejected, "draining")) << rejected;
  EXPECT_GE(engine.stats().rejected_draining, 1u);

  {
    ipso::sync::MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();
  drainer.join();

  // Every admitted request was answered with a real response; the draining
  // rejections count as received too, so conservation (not completed ==
  // received) is the invariant.
  EXPECT_TRUE(is_ok(admitted.get()));
  EXPECT_TRUE(is_ok(queued.get()));
  const ServeStats s = engine.stats();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.received, s.completed + s.deadline_expired + s.overloaded +
                            s.rejected_draining + s.parse_errors);
  EXPECT_EQ(s.queue_depth, 0u);

  EXPECT_TRUE(has_error(engine.handle(fit_request(23)), "draining"));
}

TEST(ServeEngine, QueueDeadlineExpiresUnstartedRequests) {
  ipso::sync::Mutex mu;
  ipso::sync::CondVar cv;
  bool release = false;
  std::atomic<int> fits{0};

  ServeConfig cfg;
  cfg.threads = 1;
  cfg.fit_hook = [&] {
    // Only the first fit blocks; the deadline victim must never get here.
    if (fits.fetch_add(1) == 0) {
      ipso::sync::MutexLock lock(mu);
      cv.wait(mu, [&] { return release; });
    }
  };
  ServeEngine engine(cfg);

  auto blocker = engine.submit(fit_request(30));
  ASSERT_TRUE(eventually([&] { return fits.load() >= 1; }));

  std::string victim_req = fit_request(31);
  victim_req.insert(victim_req.size() - 1, ",\"deadline_ms\":1");
  auto victim = engine.submit(victim_req);

  std::this_thread::sleep_for(20ms);  // let the deadline lapse in-queue
  {
    ipso::sync::MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();

  EXPECT_TRUE(is_ok(blocker.get()));
  const std::string expired = victim.get();
  EXPECT_TRUE(has_error(expired, "deadline_exceeded")) << expired;
  EXPECT_EQ(fits.load(), 1) << "expired request must not run its fit";
  EXPECT_EQ(engine.stats().deadline_expired, 1u);
}

TEST(ServeEngine, StatsConserveAcrossEveryOutcome) {
  // Drive exactly one request into each outcome bucket and check the
  // ServeStats conservation identity: received == completed +
  // deadline_expired + overloaded + rejected_draining + parse_errors once
  // the queue is empty.
  ipso::sync::Mutex mu;
  ipso::sync::CondVar cv;
  bool release = false;
  std::atomic<int> fits{0};

  ServeConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 2;
  cfg.fit_hook = [&] {
    if (fits.fetch_add(1) == 0) {
      ipso::sync::MutexLock lock(mu);
      cv.wait(mu, [&] { return release; });
    }
  };
  ServeEngine engine(cfg);

  auto completed = engine.submit(fit_request(40));  // admitted, running
  ASSERT_TRUE(eventually([&] { return fits.load() >= 1; }));

  std::string victim_req = fit_request(41);
  victim_req.insert(victim_req.size() - 1, ",\"deadline_ms\":1");
  auto expired = engine.submit(victim_req);  // admitted, will expire queued

  // Queue depth is now 2 (== capacity): the next arrival sheds.
  const std::string overloaded = engine.handle(fit_request(42));
  EXPECT_TRUE(has_error(overloaded, "overloaded")) << overloaded;
  const std::string parse_error = engine.handle("{\"op\":");
  EXPECT_TRUE(has_error(parse_error, "parse_error")) << parse_error;

  std::this_thread::sleep_for(20ms);  // let the victim's deadline lapse
  {
    ipso::sync::MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(is_ok(completed.get()));
  EXPECT_TRUE(has_error(expired.get(), "deadline_exceeded"));

  engine.drain();
  EXPECT_TRUE(has_error(engine.handle(fit_request(43)), "draining"));

  const ServeStats s = engine.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.deadline_expired, 1u);
  EXPECT_EQ(s.overloaded, 1u);
  EXPECT_EQ(s.parse_errors, 1u);
  EXPECT_EQ(s.rejected_draining, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.received, 5u);
  EXPECT_EQ(s.received, s.completed + s.deadline_expired + s.overloaded +
                            s.rejected_draining + s.parse_errors);
}

/// Every `"name":<unsigned integer>` pair in `json`, by name. The stats
/// op's keys are unique across its nested blocks, so names suffice.
std::map<std::string, std::size_t> integer_fields(const std::string& json) {
  std::map<std::string, std::size_t> out;
  for (std::size_t at = json.find("\":"); at != std::string::npos;
       at = json.find("\":", at + 2)) {
    const std::size_t open = json.rfind('"', at - 1);
    std::size_t end = at + 2;
    std::size_t value = 0;
    for (; end < json.size() && json[end] >= '0' && json[end] <= '9'; ++end) {
      value = value * 10 + static_cast<std::size_t>(json[end] - '0');
    }
    if (end > at + 2) out[json.substr(open + 1, at - open - 1)] = value;
  }
  return out;
}

TEST(ServeEngine, StatsOpSerializesTheCounterStructs) {
  // The stats op is a view of the counter structs: after a mixed run,
  // every integer it reports equals the matching field of stats(),
  // store_stats() or observe_stats() (or of the engine's shape), and it
  // reports no other integer.
  ServeConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 8;
  ServeEngine engine(cfg);
  ASSERT_TRUE(is_ok(engine.handle(fit_request(70))));  // miss
  ASSERT_TRUE(is_ok(engine.handle(fit_request(70))));  // hit
  ASSERT_TRUE(has_error(engine.handle("{\"op\":"), "parse_error"));
  const std::string observed = engine.handle(
      "{\"op\":\"observe\",\"key\":\"w\",\"n\":2,\"value\":1.9}");
  ASSERT_NE(observed.find("\"material\":true"), std::string::npos)
      << observed;

  const std::string response = engine.handle("{\"op\":\"stats\"}");
  ASSERT_TRUE(is_ok(response)) << response;
  const ServeStats s = engine.stats();
  const store::TieredStore::Stats st = engine.store_stats();
  const ObservationStore::Stats ob = engine.observe_stats();
  ASSERT_EQ(st.cache.hits, 1u);
  ASSERT_EQ(st.cache.misses, 1u);
  ASSERT_EQ(s.parse_errors, 1u);
  ASSERT_EQ(ob.material, 1u);

  // The stats request was in flight while it serialized: already
  // received, one deep in the queue, not yet completed.
  const std::map<std::string, std::size_t> expected = {
      {"threads", engine.threads()},
      {"queue_capacity", cfg.queue_capacity},
      {"received", s.received},
      {"completed", s.completed - 1},
      {"overloaded", s.overloaded},
      {"rejected_draining", s.rejected_draining},
      {"deadline_exceeded", s.deadline_expired},
      {"parse_errors", s.parse_errors},
      {"queue_depth", s.queue_depth + 1},
      {"peak_queue_depth", s.peak_queue_depth},
      {"capacity", cfg.cache_capacity},
      {"size", st.cache.size},
      {"hits", st.cache.hits},
      {"misses", st.cache.misses},
      {"coalesced", st.cache.coalesced},
      {"evictions", st.cache.evictions},
      {"disk_hits", st.tier.disk_hits},
      {"spilled", st.tier.spilled},
      {"spill_rejected", st.tier.spill_rejected},
      {"spill_errors", st.tier.spill_errors},
      {"decode_failures", st.tier.decode_failures},
      {"records", st.disk.records},
      {"segments", st.disk.segments},
      {"bytes", st.disk.bytes},
      {"recovered", st.disk.recovered},
      {"skipped", st.disk.skipped_total()},
      {"invalidations", st.tier.invalidations},
      {"keys", ob.keys},
      {"points", ob.points},
      {"observed", ob.observed},
      {"material", ob.material},
      {"absorbed", ob.absorbed},
      {"evicted_keys", ob.evicted_keys},
      {"fits_performed", engine.fits_performed()},
  };
  EXPECT_EQ(integer_fields(response), expected) << response;
}

TEST(ServeEngine, LruEvictionForcesRefit) {
  ServeConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 1;
  ServeEngine engine(cfg);
  EXPECT_TRUE(is_ok(engine.handle(fit_request(40))));
  EXPECT_TRUE(is_ok(engine.handle(fit_request(41))));  // evicts 40
  EXPECT_TRUE(is_ok(engine.handle(fit_request(40))));  // refits
  EXPECT_EQ(engine.fits_performed(), 3u);
  EXPECT_EQ(engine.store_stats().cache.hits, 0u);
}

TEST(ServeEngine, DiagnoseRoundTrip) {
  // A sublinear-but-unbounded curve diagnosed without factor observations.
  std::ostringstream os;
  os << "{\"op\":\"diagnose\",\"workload\":\"fixed-time\",\"speedup\":[";
  bool first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (n / (1.0 + 0.05 * n)) << "]";
  }
  os << "]}";
  ServeEngine engine(threads_config(1));
  const std::string response = engine.handle(os.str());
  ASSERT_TRUE(is_ok(response)) << response;
  EXPECT_NE(response.find("\"summary\":"), std::string::npos);
}

// --------------------------------------------------------------------- tcp

TEST(ServeTcp, RoundTripAndShutdownDrains) {
  ServeEngine engine(threads_config(2));
  TcpServer server(engine, ServerConfig{"127.0.0.1", 0});
  auto started = server.start();
  ASSERT_TRUE(started.has_value()) << started.error().message;
  ASSERT_NE(server.port(), 0);

  Client client{Proto::kJson};
  auto connected = client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.has_value()) << connected.error().message;

  auto pong = client.call("{\"op\":\"ping\",\"id\":\"t1\"}");
  ASSERT_TRUE(pong.has_value()) << pong.error().message;
  EXPECT_EQ(*pong,
            "{\"id\":\"t1\",\"op\":\"ping\",\"ok\":true,"
            "\"result\":{\"pong\":true}}");

  // A malformed line gets an error response; the connection survives.
  auto bad = client.call("{broken");
  ASSERT_TRUE(bad.has_value()) << bad.error().message;
  EXPECT_TRUE(has_error(*bad, "parse_error"));

  auto fit = client.call(fit_request(50));
  ASSERT_TRUE(fit.has_value()) << fit.error().message;
  EXPECT_TRUE(is_ok(*fit)) << *fit;
  // The same fit over TCP is served from cache, byte-identical.
  auto fit_again = client.call(fit_request(50));
  ASSERT_TRUE(fit_again.has_value()) << fit_again.error().message;
  EXPECT_EQ(*fit, *fit_again);
  EXPECT_EQ(engine.fits_performed(), 1u);

  EXPECT_EQ(server.connections_accepted(), 1u);
  server.shutdown();
  EXPECT_TRUE(engine.draining());
  // Post-shutdown the engine refuses new work.
  EXPECT_TRUE(has_error(engine.handle("{\"op\":\"ping\"}"), "draining"));
  server.shutdown();  // idempotent
}

TEST(ServeTcp, ConcurrentConnectionsShareTheCache) {
  ServeEngine engine(threads_config(4));
  TcpServer server(engine, {});
  ASSERT_TRUE(server.start().has_value());

  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client{Proto::kJson};
      if (!client.connect("127.0.0.1", server.port())) return;
      if (auto r = client.call(fit_request(60))) responses[c] = *r;
    });
  }
  for (auto& t : clients) t.join();

  for (const std::string& r : responses) {
    ASSERT_FALSE(r.empty());
    EXPECT_TRUE(is_ok(r)) << r;
    EXPECT_EQ(r, responses.front());
  }
  // One underlying fit across all connections (hit or coalesced for the
  // rest).
  EXPECT_EQ(engine.fits_performed(), 1u);
  EXPECT_EQ(server.connections_accepted(), kClients);
}

}  // namespace
}  // namespace ipso::serve
