#include "workloads.h"

#include "core/fit.h"
#include "core/predict.h"
#include "layers.h"
#include "models/ipso_model.h"
#include "models/usl.h"
#include "models/zoo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/framing.h"
#include "serve/observe.h"
#include "serve/placement.h"
#include "serve/proto.h"
#include "serve/router.h"
#include "serve/server.h"
#include "stats/random.h"
#include "stats/regression.h"
#include "store/tiered_store.h"
#include "trace/json.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace servebench {

namespace {

using namespace ipso;
using serve::Client;
using serve::Proto;

constexpr std::size_t kDigestSlots = 64;
constexpr double kReplayBudgetS = 3.0;
/// Width of the windows whose medians give throughput_rps and
/// cpu_ms_per_req: a stall of the shared host moves one or two windows,
/// not the reported figure.
constexpr double kWindowS = 2.0;

const char* const kFitOps[] = {"fit", "predict", "classify", "recommend"};

// ---------------------------------------------------------------------------
// Measurement plumbing shared by every workload.
// ---------------------------------------------------------------------------

/// First few failure reasons plus a total, shared by load threads.
class Errors {
 public:
  void add(std::string why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.size() < 5) first_.push_back(std::move(why));
  }
  [[nodiscard]] std::vector<std::string> first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> first_;
};

/// One measured phase.
struct Tally {
  std::vector<double> ok_latency_ms;  ///< answered correctly
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  ///< refused, failed or wrong
  double elapsed_s = 0.0;
  std::vector<double> lag_ms;  ///< open loop only
  std::vector<double> ok_at_s;  ///< steady_s() at which each ok was answered
};

/// One closed-loop batch: the request lines in send order.
struct Batch {
  std::vector<std::string> lines;
};

/// Closed loop: each connection sends its next batch only after the
/// previous one was answered, until `seconds` have passed. Every record of
/// a batch is timed by the batch round trip. `next(conn)` builds a batch
/// (before the clock starts) and `check(conn, k, response)` judges record
/// k of the batch just answered ("" = correct).
Tally run_closed(std::vector<std::unique_ptr<Client>>& clients,
                 double seconds,
                 const std::function<Batch(std::size_t)>& next,
                 const std::function<std::string(
                     std::size_t, std::size_t, const std::string&)>& check,
                 Errors& errors) {
  Tally total;
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Tally t;
      while (Clock::now() < deadline) {
        Batch batch = next(c);
        const std::size_t n = batch.lines.size();
        const Clock::time_point t0 = Clock::now();
        auto sent = clients[c]->send_batch(batch.lines);
        auto got = sent ? clients[c]->recv_batch(n)
                        : Expected<std::vector<std::string>, serve::NetError>(
                              sent.error());
        const Clock::time_point t1 = Clock::now();
        const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double done_s = steady_s(t1);
        t.sent += n;
        if (!got || got->size() != n) {
          t.failed += n;
          errors.add(got ? "short response batch"
                         : "transport: " + got.error().message);
          break;
        }
        for (std::size_t k = 0; k < n; ++k) {
          std::string why = check(c, k, (*got)[k]);
          if (why.empty()) {
            ++t.ok;
            t.ok_latency_ms.push_back(ms);
            t.ok_at_s.push_back(done_s);
          } else {
            ++t.failed;
            errors.add(std::move(why));
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      total.sent += t.sent;
      total.ok += t.ok;
      total.failed += t.failed;
      total.ok_latency_ms.insert(total.ok_latency_ms.end(),
                                 t.ok_latency_ms.begin(),
                                 t.ok_latency_ms.end());
      total.ok_at_s.insert(total.ok_at_s.end(), t.ok_at_s.begin(),
                           t.ok_at_s.end());
    });
  }
  for (auto& t : threads) t.join();
  total.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

/// One engine behind one TcpServer on an ephemeral loopback port.
struct Node {
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<serve::TcpServer> server;

  void start(const serve::ServeConfig& cfg, std::size_t shards = 1) {
    engine = std::make_unique<serve::ServeEngine>(cfg);
    if (!engine->store_status()) {
      throw std::runtime_error("store open failed in " + cfg.store_dir);
    }
    serve::ServerConfig scfg;
    scfg.shards = shards;
    server = std::make_unique<serve::TcpServer>(*engine, scfg);
    if (auto ok = server->start(); !ok) {
      throw std::runtime_error("server start: " + ok.error().message);
    }
  }
  void stop() {
    if (server) server->shutdown();
    server.reset();
    engine.reset();
  }
};

std::vector<std::unique_ptr<Client>> connect_clients(std::uint16_t port,
                                                     std::size_t n) {
  std::vector<std::unique_ptr<Client>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<Client>(Proto::kBinary));
    if (auto ok = out.back()->connect("127.0.0.1", port); !ok) {
      throw std::runtime_error("connect: " + ok.error().message);
    }
  }
  return out;
}

/// Sends `lines` through `clients` in batches of `batch` (round robin) and
/// returns the responses in order. Used by warm-up and setup fills.
std::vector<std::string> call_all(std::vector<std::unique_ptr<Client>>& clients,
                                  const std::vector<std::string>& lines,
                                  std::size_t batch) {
  std::vector<std::string> out(lines.size());
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t b = c * batch; b < lines.size();
           b += clients.size() * batch) {
        const std::size_t e = std::min(lines.size(), b + batch);
        std::vector<std::string> part(lines.begin() + static_cast<long>(b),
                                      lines.begin() + static_cast<long>(e));
        auto got = clients[c]->call_batch(part);
        if (!got || got->size() != part.size()) {
          failed = true;
          return;
        }
        std::move(got->begin(), got->end(), out.begin() + static_cast<long>(b));
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed) throw std::runtime_error("warm-up request failed on the wire");
  return out;
}

/// Counters read from the public stats snapshots, summed over engines.
struct Counters {
  double hits = 0, misses = 0, coalesced = 0, disk_hits = 0, fits = 0;
  double spilled = 0, spill_rejected = 0, invalidations = 0, disk_bytes = 0;
  double peak_queue = 0;
  double wakeups = 0, requests_in = 0, bytes_in = 0, stalls = 0;
  double routed = 0, keyed = 0, upstream_batches = 0;
  std::vector<double> per_replica;
  double observed = 0, material = 0;

  void add_engine(const serve::ServeEngine& e) {
    const serve::ServeStats s = e.stats();
    const store::TieredStore::Stats st = e.store_stats();
    hits += static_cast<double>(st.cache.hits);
    misses += static_cast<double>(st.cache.misses);
    coalesced += static_cast<double>(st.cache.coalesced);
    disk_hits += static_cast<double>(st.tier.disk_hits);
    fits += static_cast<double>(e.fits_performed());
    spilled += static_cast<double>(st.tier.spilled);
    spill_rejected += static_cast<double>(st.tier.spill_rejected);
    invalidations += static_cast<double>(st.tier.invalidations);
    disk_bytes += static_cast<double>(st.disk.bytes);
    peak_queue = std::max(peak_queue, static_cast<double>(s.peak_queue_depth));
    const serve::ObservationStore::Stats ob = e.observe_stats();
    observed += static_cast<double>(ob.observed);
    material += static_cast<double>(ob.material);
  }
  void add_net(const serve::NetStats& n) {
    wakeups += static_cast<double>(n.wakeups);
    requests_in += static_cast<double>(n.requests_in);
    bytes_in += static_cast<double>(n.bytes_in);
    stalls += static_cast<double>(n.backpressure_stalls);
  }
  void add_router(const serve::RouterStats& r) {
    routed += static_cast<double>(r.routed_keyed + r.routed_keyless);
    keyed += static_cast<double>(r.routed_keyed);
    upstream_batches += static_cast<double>(r.upstream_batches);
    for (std::size_t n : r.per_replica) {
      per_replica.push_back(static_cast<double>(n));
    }
  }
};

/// Layer values read from counter deltas over the traced phase.
void counter_layers(const Counters& a, const Counters& b, LayerValues& v) {
  const double lookups = (b.hits - a.hits) + (b.misses - a.misses) +
                         (b.coalesced - a.coalesced);
  if (lookups > 0) {
    v["store.dram_hit_ratio"] = (b.hits - a.hits) / lookups;
    v["store.disk_hit_ratio"] = (b.disk_hits - a.disk_hits) / lookups;
  }
  v["store.coalesced"] = b.coalesced - a.coalesced;
  v["store.fits_performed"] = b.fits - a.fits;
  v["store.spilled"] = b.spilled - a.spilled;
  v["store.spill_rejected"] = b.spill_rejected - a.spill_rejected;
  v["store.invalidations"] = b.invalidations - a.invalidations;
  if (b.disk_bytes > 0) v["store.disk_mib"] = b.disk_bytes / (1 << 20);
  v["engine.peak_queue_depth"] = b.peak_queue;
  const double reqs = b.requests_in - a.requests_in;
  if (reqs > 0) {
    v["net.bytes_in_per_req"] = (b.bytes_in - a.bytes_in) / reqs;
    v["net.wakeups_per_req"] = (b.wakeups - a.wakeups) / reqs;
  }
  v["net.backpressure_stalls"] = b.stalls - a.stalls;
  const double routed = b.routed - a.routed;
  if (routed > 0 && b.upstream_batches > a.upstream_batches) {
    v["router.keyed_ratio"] = (b.keyed - a.keyed) / routed;
    v["router.upstream_batch_records"] =
        routed / (b.upstream_batches - a.upstream_batches);
    double max = 0, sum = 0;
    for (std::size_t i = 0; i < b.per_replica.size(); ++i) {
      const double d =
          b.per_replica[i] - (i < a.per_replica.size() ? a.per_replica[i] : 0);
      max = std::max(max, d);
      sum += d;
    }
    if (sum > 0) {
      v["router.replica_skew"] =
          max / (sum / static_cast<double>(b.per_replica.size()));
    }
  }
  if (b.observed > a.observed) {
    v["observe.material_ratio"] =
        (b.material - a.material) / (b.observed - a.observed);
  }
}

// ---------------------------------------------------------------------------
// Layer replay: the benchmark calls each layer's public function itself.
// ---------------------------------------------------------------------------

struct Replay {
  LayerClock clock;
  std::size_t requests = 0;
  std::size_t batches = 0;
  double request_bytes = 0;
  std::size_t keys = 0;
  double key_bytes = 0;
  std::size_t hits = 0, promotes = 0, picks = 0;
  double hit_s = 0, promote_s = 0, fit_s = 0, segmented_s = 0, route_s = 0;

  static std::string id_args(std::size_t id) {
    return "\"id\":\"r" + std::to_string(id) + "\"";
  }

  /// Times one lookup and files it under hit or promote.
  store::TieredStore::Result lookup(
      store::TieredStore& store, const std::string& key,
      const std::string& id, const std::function<store::FitOutcome()>& compute) {
    double total = 0;
    store::TieredStore::Result r;
    {
      Span s(clock, "store.lookup", id, &total);
      r = store.get_or_compute(key, compute);
    }
    if (r.hit) {
      hit_s += total;
      ++hits;
    } else if (r.disk_hit) {
      promote_s += total;
      ++promotes;
    }
    return r;
  }

  /// fit_factors, then the stats::fit_segmented call it makes on IN,
  /// repeated on the same input so its share can be timed from outside. The
  /// repeat is charged to core.fit as its child.
  Expected<FactorFits> fit(const serve::Request& r, const std::string& id);

  /// Parse -> key -> store -> derive -> serialize for one fit-path line.
  std::string fit_request(const std::string& line, std::size_t seq,
                          store::TieredStore& store);

  /// Request frame decode and response frame encode for one batch.
  void framing(const std::vector<std::string>& requests,
               const std::vector<std::string>& responses, std::size_t seq) {
    serve::BinaryFrameCodec codec;
    std::string wire = codec.encode(requests);
    const std::string id = id_args(seq);
    std::vector<serve::WireBatch> decoded;
    {
      Span s(clock, "framing.decode", id);
      if (!codec.decode(wire, decoded) || decoded.size() != 1) {
        throw std::runtime_error("replay: frame did not round-trip");
      }
    }
    {
      Span s(clock, "framing.encode", id);
      wire = codec.encode(responses);
    }
    ++batches;
  }

  /// Per-request layer values (README.md: units and denominators).
  void values(LayerValues& v) const {
    const auto put = [&](const char* metric, const char* span,
                         std::size_t per, double scale) {
      if (auto m = clock.mean(span, per, scale)) v[metric] = *m;
    };
    put("proto.parse_ms", "proto.parse", requests, 1e3);
    put("proto.serialize_us", "proto.serialize", requests, 1e6);
    put("store.key_ms", "store.key", requests, 1e3);
    put("core.fit_ms", "core.fit", requests, 1e3);
    put("models.compare_ms", "models.compare", requests, 1e3);
    put("observe.observe_us", "observe.observe", requests, 1e6);
    put("framing.decode_us", "framing.decode", batches, 1e6);
    put("framing.encode_us", "framing.encode", batches, 1e6);
    put("placement.pick_us", "placement.pick", picks, 1e6);
    if (requests > 0) {
      v["proto.request_kib"] = request_bytes / 1024 / static_cast<double>(requests);
    }
    if (keys > 0) v["store.key_kib"] = key_bytes / 1024 / static_cast<double>(keys);
    if (hits > 0) v["store.hit_us"] = hit_s * 1e6 / static_cast<double>(hits);
    if (promotes > 0) {
      v["store.promote_ms"] = promote_s * 1e3 / static_cast<double>(promotes);
    }
    if (segmented_s > 0 && requests > 0) {
      v["stats.segmented_ms"] =
          segmented_s * 1e3 / static_cast<double>(requests);
      v["stats.segmented_share"] = segmented_s / fit_s;
    }
    if (route_s > 0 && requests > 0) {
      v["router.route_ms"] = route_s * 1e3 / static_cast<double>(requests);
    }
  }
};

Expected<FactorFits> Replay::fit(const serve::Request& r,
                                 const std::string& id) {
  double fit_total = 0;
  Expected<FactorFits> fits = FitError::kNotMeasured;
  {
    Span s(clock, "core.fit", id, &fit_total);
    fits = fit_factors(r.workload, r.measurements());
  }
  fit_s += fit_total;
  if (r.eta < 1.0 && !r.in.empty()) {
    double seg = 0;
    {
      Span s(clock, "stats.segmented", id, &seg);
      const stats::SegmentedFit again = stats::fit_segmented(r.in);
      if (!(again.sse >= 0.0)) throw std::runtime_error("replay: bad SSE");
    }
    segmented_s += seg;
    clock.self_s["core.fit"] -= seg;
  }
  return fits;
}

std::string Replay::fit_request(const std::string& line, std::size_t seq,
                                store::TieredStore& store) {
  const std::string id = id_args(seq);
  Span request(clock, "request", id);
  ++requests;
  request_bytes += static_cast<double>(line.size());
  serve::Request r;
  {
    Span s(clock, "proto.parse", id);
    auto parsed = serve::parse_request(line);
    if (!parsed) throw std::runtime_error("replay: " + parsed.error());
    r = std::move(*parsed);
  }
  AsymptoticParams params;
  std::optional<SpeedupPredictor> predictor;
  store::FitOutcomePtr outcome;
  if (r.params) {
    params = *r.params;
    predictor.emplace(params.materialize(), params.eta);
  } else {
    std::string key;
    {
      Span s(clock, "store.key", id);
      key = store::canonical_fit_key(r.workload, r.eta, r.ex, r.in, r.q);
    }
    ++keys;
    key_bytes += static_cast<double>(key.size());
    outcome = lookup(store, key, id, [&] {
      return store::FitOutcome{fit(r, id)};
    }).outcome;
    if (!outcome->fits) throw std::runtime_error("replay: fit failed");
    params = outcome->fits->params;
    if (r.op == serve::Op::kPredict || r.op == serve::Op::kRecommend) {
      predictor.emplace(SpeedupPredictor::from_fits(*outcome->fits));
    }
  }
  const std::vector<double> grid = r.grid();
  stats::Series curve("S(n)");
  ProvisioningPlan plan;
  if (r.op == serve::Op::kPredict) curve = predictor->curve(grid);
  if (r.op == serve::Op::kRecommend) {
    plan = plan_provisioning(*predictor, grid, r.knee_frac);
  }
  Span s(clock, "proto.serialize", id);
  switch (r.op) {
    case serve::Op::kFit:
      return serve::ok_response(r, serve::fit_result_json(*outcome->fits));
    case serve::Op::kClassify:
      return serve::ok_response(
          r, "{\"params\":" + serve::params_json(params) +
                 ",\"classification\":" +
                 serve::classification_json(classify(params)) + "}");
    case serve::Op::kPredict:
      return serve::ok_response(r, serve::predict_result_json(params, curve));
    default:
      return serve::ok_response(r, serve::recommend_result_json(params, plan));
  }
}

// ---------------------------------------------------------------------------
// The workloads.
// ---------------------------------------------------------------------------

/// Digest slots filled by the first measured phase.
class DigestSlots {
 public:
  void put(std::size_t slot, const std::string& response) {
    if (slot >= kDigestSlots || !armed_) return;
    std::lock_guard<std::mutex> lock(mu_);
    slots_[slot] = response;
  }
  void disarm() { armed_ = false; }
  [[nodiscard]] std::optional<std::vector<std::string>> all() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : slots_) {
      if (s.empty()) return std::nullopt;
    }
    return std::vector<std::string>(slots_.begin(), slots_.end());
  }

 private:
  mutable std::mutex mu_;
  std::array<std::string, kDigestSlots> slots_;
  std::atomic<bool> armed_{true};
};

class Workload {
 public:
  explicit Workload(const Args& args, std::string work_dir)
      : args_(args), work_dir_(std::move(work_dir)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Latency limit of slo_ok_ratio. Only the open-loop serve_mix states
  /// one; a closed loop's latency is set by its own concurrency, so there
  /// every correct response counts and slo_ok_ratio equals ok_ratio.
  [[nodiscard]] virtual double slo_ms() const {
    return std::numeric_limits<double>::infinity();
  }
  /// How many times run_workload() times the setup (setup_s is the
  /// median). Setups of about 0.1 s are repeated nine times: thread
  /// start-up jitter is a large share of so short a setup.
  [[nodiscard]] virtual std::size_t setup_reps() const { return 3; }
  /// Builds the serving stack and warms it (the timed setup). `rep`
  /// numbers the repetition.
  virtual void setup(std::size_t rep) = 0;
  virtual void teardown() = 0;
  /// One measured phase; phases continue the workload's request stream.
  virtual Tally measure(double seconds, std::size_t phase) = 0;
  /// Cross-request checks after a phase ("" = correct).
  virtual std::string final_check() { return {}; }
  virtual Counters counters() const = 0;
  /// Stops the stack, then replays a prefix of the traced phase's requests
  /// through the layers.
  virtual void replay(Replay& rp) = 0;
  /// Extra traced-run measurements (the router's replica sweep).
  virtual void extra_layers(LayerValues&) {}

  Errors errors;
  DigestSlots digest;

 protected:
  [[nodiscard]] bool replay_budget_left(const Clock::time_point& start) const {
    return Clock::now() - start < std::chrono::duration<double>(kReplayBudgetS);
  }
  std::string store_dir(std::size_t rep) const {
    return work_dir_ + "/store-" + args_.workload + "-" + std::to_string(rep);
  }

  const Args& args_;
  std::string work_dir_;
};

// --- fit_cold ---------------------------------------------------------------

/// Every request a distinct 2048-point fit-path op; compute dominates.
class FitCold final : public Workload {
 public:
  static constexpr std::size_t kConns = 4;
  static constexpr std::size_t kPoints = 2048;
  static constexpr std::size_t kPool = 64;
  static constexpr std::uint64_t kWarmStream = 1ull << 40;

  /// Series come from a pool of 64 sets (half noisy) so the load generator
  /// stays cheap; each request draws its own eta, which is part of the
  /// canonical fit key, so no two requests share a cache entry.
  FitCold(const Args& args, std::string work_dir)
      : Workload(args, std::move(work_dir)) {
    for (std::size_t j = 0; j < kPool; ++j) {
      pool_.push_back(
          make_fit_set(mix_seed(args_.seed, 1'000'000 + j), kPoints, j % 2 == 1));
    }
  }

  std::size_t setup_reps() const override { return 9; }

  void setup(std::size_t) override {
    serve::ServeConfig cfg;
    cfg.threads = 2;
    cfg.cache_capacity = 128;
    node_.start(cfg);
    clients_ = connect_clients(node_.server->port(), kConns);
    std::vector<std::string> lines;
    std::vector<FitTruth> truths;
    for (std::size_t i = 0; i < 8; ++i) {
      const Pending p = request(kWarmStream + i);
      lines.push_back(line(p));
      truths.push_back(p.truth);
    }
    const auto got = call_all(clients_, lines, 1);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string why = check_fit_response(
          json_field(lines[i], "op").value_or(""), got[i], truths[i]);
      if (!why.empty()) throw std::runtime_error("warm-up: " + why);
    }
  }

  void teardown() override {
    clients_.clear();
    node_.stop();
  }

  Tally measure(double seconds, std::size_t phase) override {
    if (phase == 1) traced_first_ = next_.load();
    std::vector<Pending> inflight(kConns);
    return run_closed(
        clients_, seconds,
        [&](std::size_t c) {
          inflight[c] = request(next_.fetch_add(1));
          return Batch{{line(inflight[c])}};
        },
        [&](std::size_t c, std::size_t, const std::string& resp) {
          const Pending& p = inflight[c];
          digest.put(p.index, resp);
          std::string why = check_fit_response(p.op, resp, p.truth);
          return why.empty() ? why
                             : "request " + std::to_string(p.index) + ": " + why;
        },
        errors);
  }

  Counters counters() const override {
    Counters c;
    c.add_engine(*node_.engine);
    c.add_net(node_.server->net_stats());
    return c;
  }

  void replay(Replay& rp) override {
    teardown();
    store::TieredStore store(store::TieredStoreConfig{128, "", 4ull << 20});
    const Clock::time_point start = Clock::now();
    for (std::size_t i = traced_first_; i < traced_first_ + 40; ++i) {
      if (!replay_budget_left(start)) break;
      const Pending p = request(i);
      const std::string l = line(p);
      const std::string resp = rp.fit_request(l, i, store);
      const std::string why = check_fit_response(p.op, resp, p.truth);
      if (!why.empty()) errors.add("replay: " + why);
      rp.framing({l}, {resp}, i);
    }
  }

 private:
  struct Pending {
    std::size_t index = 0;
    const char* op = "";
    FitTruth truth;
    const std::string* series = nullptr;
  };

  Pending request(std::size_t i) const {
    const std::uint64_t s = mix_seed(args_.seed, i);
    const FitSet& set = pool_[i % kPool];
    Pending p{i, kFitOps[(s >> 17) % 4], set.truth, &set.series};
    p.truth.eta = 0.80 + 0.15 * static_cast<double>(s >> 11) * 0x1.0p-53;
    return p;
  }

  static std::string line(const Pending& p) {
    return fit_line(p.op, p.truth, *p.series);
  }

  std::vector<FitSet> pool_;
  Node node_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<std::size_t> next_{0};
  std::size_t traced_first_ = 0;
};

// --- serve_mix --------------------------------------------------------------

/// Open-loop Zipf traffic over 1024 observation sets, 8x the DRAM tier;
/// almost every request is a DRAM or disk hit.
class ServeMix final : public Workload {
 public:
  static constexpr std::size_t kSets = 1024;
  static constexpr std::size_t kLanes = 2;
  static constexpr double kRate = 300.0;  // requests per second
  static constexpr double kZipf = 1.1;

  /// Set r is the r-th most popular. Its length comes from a fixed cycle
  /// of 20 (7 x 128, 10 x 512, 3 x 2048 points), the same for every seed,
  /// so seeds change the series, ops and arrivals but not how request size
  /// lines up with popularity. Under Zipf(1.1) the cycle gives 22% of the
  /// set traffic to 128, 63% to 512 and 15% to 2048 points; with the 10%
  /// keyless predicts first, the median request lies a third of the way
  /// into the 512-point mode rather than in the gap below it, where p50
  /// would jump between modes from run to run.
  ServeMix(const Args& args, std::string work_dir)
      : Workload(args, std::move(work_dir)) {
    static constexpr std::size_t kCycle[20] = {
        512, 512, 2048, 512, 512, 512, 2048, 512, 128, 128,
        128, 128, 512,  2048, 512, 128, 512, 128, 128, 512};
    for (std::size_t s = 0; s < kSets; ++s) {
      sets_.push_back(make_fit_set(mix_seed(args_.seed, 2'000'000 + s),
                                   kCycle[s % 20], s % 2 == 1));
    }
  }

  double slo_ms() const override { return 50.0; }

  void setup(std::size_t rep) override {
    dir_ = store_dir(rep);
    std::filesystem::remove_all(dir_);
    {
      // Fill the persistent tier: every set fitted once, then flushed.
      serve::ServeConfig fill;
      fill.threads = 4;
      fill.queue_capacity = 2 * kSets;
      fill.cache_capacity = 2 * kSets;
      fill.store_dir = dir_;
      serve::ServeEngine engine(fill);
      std::vector<std::future<std::string>> done;
      for (const FitSet& set : sets_) {
        done.push_back(engine.submit(fit_line("fit", set.truth, set.series)));
      }
      for (std::size_t s = 0; s < kSets; ++s) {
        const std::string why =
            check_fit_response("fit", done[s].get(), sets_[s].truth);
        if (!why.empty()) {
          throw std::runtime_error("fill set " + std::to_string(s) + ": " + why);
        }
      }
      engine.drain();
    }
    serve::ServeConfig cfg;
    cfg.threads = 3;
    cfg.cache_capacity = 128;
    cfg.store_dir = dir_;
    node_.start(cfg, /*shards=*/kLanes);  // one event loop per connection
    clients_ = connect_clients(node_.server->port(), kLanes);
    // Warm the DRAM tier with a Zipf stream of its own.
    const std::vector<std::size_t> ranks =
        zipf_ranks(256, kSets, kZipf, mix_seed(args_.seed, 0x3a11));
    std::vector<std::string> lines;
    for (std::size_t r : ranks) {
      lines.push_back(fit_line("fit", sets_[r].truth, sets_[r].series));
    }
    for (const std::string& resp : call_all(clients_, lines, 16)) {
      if (resp.find("\"ok\":true") == std::string::npos) {
        throw std::runtime_error("warm-up: " + resp.substr(0, 200));
      }
    }
  }

  void teardown() override {
    clients_.clear();
    node_.stop();
    std::filesystem::remove_all(dir_);
  }

  Tally measure(double seconds, std::size_t phase) override {
    schedule(seconds, phase);
    std::vector<std::string> responses(due_.size());
    std::vector<std::size_t> received(kLanes, 0);
    const OpenLoopResult r = run_open_loop(
        due_, kLanes,
        [&](std::size_t lane, std::size_t i) {
          return clients_[lane]->send_batch({line(i)}).has_value();
        },
        [&](std::size_t lane) -> std::optional<std::size_t> {
          auto got = clients_[lane]->recv_batch(1);
          if (!got || got->size() != 1) return std::nullopt;
          const std::size_t i = lane + received[lane]++ * kLanes;
          if (i < responses.size()) responses[i] = std::move((*got)[0]);
          return i;
        });
    Tally t;
    t.sent = r.sent;
    t.elapsed_s = r.elapsed_s;
    t.lag_ms = r.lag_ms;
    if (!r.transport_ok) errors.add("transport failure in the open loop");
    for (std::size_t i = 0; i < r.sent; ++i) {
      std::string why = r.latency_ms[i] < 0 ? "no response" : check(i, responses[i]);
      if (why.empty()) {
        ++t.ok;
        t.ok_latency_ms.push_back(r.latency_ms[i]);
        t.ok_at_s.push_back(r.start_s + due_[i] + r.latency_ms[i] / 1e3);
      } else {
        ++t.failed;
        errors.add("request " + std::to_string(i) + ": " + why);
      }
      digest.put(i, responses[i]);
    }
    return t;
  }

  Counters counters() const override {
    Counters c;
    c.add_engine(*node_.engine);
    c.add_net(node_.server->net_stats());
    return c;
  }

  void replay(Replay& rp) override {
    clients_.clear();
    node_.stop();  // drains and flushes: the replay store sees the same tier
    store::TieredStore store(store::TieredStoreConfig{128, dir_, 4ull << 20});
    if (!store.open()) throw std::runtime_error("replay: store open failed");
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < std::min<std::size_t>(due_.size(), 1500); ++i) {
      if (!replay_budget_left(start)) break;
      const std::string l = line(i);
      const std::string resp = rp.fit_request(l, i, store);
      if (const std::string why = check(i, resp); !why.empty()) {
        errors.add("replay " + std::to_string(i) + ": " + why);
      }
      rp.framing({l}, {resp}, i);
    }
  }

  /// The observe/compare layer replay (ObserveCompare::layer_replay).
  void extra_layers(LayerValues& v) override;

 private:
  enum class Kind { kFit, kPredict, kClassify, kRecommend, kParams };

  void schedule(double seconds, std::size_t phase) {
    due_ = poisson_arrivals(kRate, seconds, mix_seed(args_.seed, 10 + phase));
    const std::vector<std::size_t> ranks = zipf_ranks(
        due_.size(), kSets, kZipf, mix_seed(args_.seed, 20 + phase));
    ipso::stats::Rng rng(mix_seed(args_.seed, 30 + phase));
    set_of_.clear();
    kind_of_.clear();
    for (std::size_t i = 0; i < due_.size(); ++i) {
      set_of_.push_back(ranks[i]);
      const double u = rng.uniform();
      kind_of_.push_back(u < 0.40   ? Kind::kFit
                         : u < 0.65 ? Kind::kPredict
                         : u < 0.80 ? Kind::kClassify
                         : u < 0.90 ? Kind::kRecommend
                                    : Kind::kParams);
    }
  }

  std::string line(std::size_t i) const {
    const FitSet& set = sets_[set_of_[i]];
    switch (kind_of_[i]) {
      case Kind::kFit: return fit_line("fit", set.truth, set.series);
      case Kind::kPredict: return fit_line("predict", set.truth, set.series);
      case Kind::kClassify: return fit_line("classify", set.truth, set.series);
      case Kind::kRecommend: return fit_line("recommend", set.truth, set.series);
      case Kind::kParams: break;
    }
    const FitTruth& t = set.truth;
    return std::string("{\"op\":\"predict\",\"params\":{\"workload\":\"") +
           (t.type == WorkloadType::kFixedTime ? "fixed-time" : "fixed-size") +
           "\",\"eta\":" + trace::json_double(t.eta) +
           ",\"alpha\":" + trace::json_double(t.alpha) +
           ",\"delta\":" + trace::json_double(t.delta) +
           ",\"beta\":0,\"gamma\":0}}";
  }

  /// The first answer per (set, op) is judged against the truth; every
  /// repeat must be byte-identical to it.
  std::string check(std::size_t i, const std::string& resp) {
    const auto key = std::make_pair(set_of_[i], static_cast<int>(kind_of_[i]));
    const auto it = first_.find(key);
    if (it != first_.end()) {
      return it->second == resp ? std::string()
                                : "repeat differs from its first answer";
    }
    std::string why;
    if (kind_of_[i] == Kind::kParams) {
      if (resp.find("\"ok\":true") == std::string::npos ||
          resp.find("\"speedup\":") == std::string::npos) {
        why = "params predict failed: " + resp.substr(0, 200);
      }
    } else {
      static const char* const ops[] = {"fit", "predict", "classify",
                                        "recommend"};
      why = check_fit_response(ops[static_cast<int>(kind_of_[i])], resp,
                               sets_[set_of_[i]].truth);
    }
    if (why.empty()) first_.emplace(key, resp);
    return why;
  }

  std::vector<FitSet> sets_;
  std::vector<double> due_;
  std::vector<std::size_t> set_of_;
  std::vector<Kind> kind_of_;
  std::map<std::pair<std::size_t, int>, std::string> first_;
  std::string dir_;
  Node node_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// --- observe_compare --------------------------------------------------------

/// One connection's request stream over the 16 workload keys it owns. The
/// stream simulates each key's window exactly as ObservationStore keeps it,
/// so it knows which observes are material and which are absorbed.
class ObserveStream {
 public:
  static constexpr std::size_t kKeysPerConn = 16;
  static constexpr int kMaxN = 64;  // = the default window capacity
  static constexpr std::uint64_t kKeyStreams = 0x0b5e0000;

  struct Item {
    std::string line;
    std::size_t key = 0;
    bool compare = false;
    bool material = false;
    bool absorbed = false;
    std::uint64_t version = 0;
    std::size_t points = 0;
    double n = 0, value = 0;
  };

  /// Key g (of 64) follows the USL curve at point g of a fixed 8 x 8 grid
  /// of (sigma, kappa). Its own request sequence (which n each observe
  /// hits, the noise, which requests are compares) comes from a stream of
  /// its own that is the same for every seed. Compare cost depends on the
  /// window's data (the unified model's simplex may stop early or run to
  /// its iteration cap), so seeded window data would make a run's mean
  /// cost vary by seed; seeds change which keys share each batch and in
  /// what order, so the engine sees another interleaving of the same work.
  ObserveStream(std::uint64_t seed, std::size_t conn)
      : rng_(mix_seed(seed, 0x0b5e + conn)) {
    for (std::size_t k = 0; k < kKeysPerConn; ++k) {
      const std::size_t g = conn * kKeysPerConn + k;
      Key key;
      key.rng = ipso::stats::Rng(mix_seed(kKeyStreams, g));
      key.name = "wk-" + std::to_string(g);
      key.sigma = 0.02 + 0.06 * static_cast<double>(g % 8) / 7.0;
      key.kappa = 0.0002 + 0.0018 * static_cast<double>(g / 8) / 7.0;
      for (int n = 1; n <= kMaxN; ++n) key.unused.push_back(n);
      for (std::size_t i = key.unused.size() - 1; i > 0; --i) {
        std::swap(key.unused[i], key.unused[key.rng.uniform_below(i + 1)]);
      }
      keys_.push_back(std::move(key));
    }
  }

  /// Warm-up: every n in 1..64 observed once per key, so each window is
  /// full before measurement and the measured mix is stationary (compare
  /// cost does not grow as windows fill).
  std::vector<Item> warm() {
    std::vector<Item> out;
    for (std::size_t k = 0; k < kKeysPerConn; ++k) {
      while (!keys_[k].unused.empty()) out.push_back(add_new(k));
    }
    return out;
  }

  /// One batch of `n` requests on `n` distinct keys: records of one frame
  /// run concurrently in the engine, so no key may appear twice in it.
  std::vector<Item> next_batch(std::size_t n) {
    std::vector<std::size_t> order(kKeysPerConn);
    for (std::size_t i = 0; i < kKeysPerConn; ++i) order[i] = i;
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(order[i], order[i + rng_.uniform_below(kKeysPerConn - i)]);
    }
    std::vector<Item> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(next(order[i]));
    return out;
  }

  /// About 20% keyed compares; of the observes a quarter re-observe an
  /// existing n within 0.3% (absorbed), the rest move an existing n by
  /// 4-10% (material).
  Item next(std::size_t k) {
    Key& key = keys_[k];
    if (key.rng.uniform() < 0.2) return compare(k);
    const double u = key.rng.uniform();
    if (u < 0.25) {
      auto p = pick(key);
      const double v = p->second.value * (1.0 + key.rng.uniform(-0.003, 0.003));
      return observe(k, p->first, v, /*material=*/false);
    }
    auto p = pick(key);
    const double e =
        (p->second.error > 0 ? -1.0 : 1.0) * key.rng.uniform(0.02, 0.05);
    p->second.error = e;
    return observe(k, p->first, usl(key, p->first) * (1.0 + e), true);
  }

  /// A keyed compare of key k's current window.
  [[nodiscard]] Item compare(std::size_t k) const {
    const Key& key = keys_[k];
    Item it;
    it.key = k;
    it.compare = true;
    it.version = key.version;
    it.points = key.points.size();
    it.line = "{\"op\":\"compare\",\"key\":\"" + key.name +
              "\",\"workload\":\"fixed-size\"}";
    return it;
  }

  [[nodiscard]] const std::string& key_name(std::size_t k) const {
    return keys_[k].name;
  }

 private:
  struct Point {
    double value = 0;
    double error = 0;  ///< relative offset from the key's USL curve
  };
  struct Key {
    std::string name;
    double sigma = 0, kappa = 0;
    ipso::stats::Rng rng;  ///< the key's own sequence, the same for every seed
    std::vector<int> unused;
    std::map<int, Point> points;
    std::uint64_t version = 0;
  };

  static double usl(const Key& key, int n) {
    const double x = n;
    return x / (1.0 + key.sigma * (x - 1.0) + key.kappa * x * (x - 1.0));
  }

  std::map<int, Point>::iterator pick(Key& key) {
    auto it = key.points.begin();
    std::advance(it, static_cast<long>(key.rng.uniform_below(key.points.size())));
    return it;
  }

  Item add_new(std::size_t k) {
    Key& key = keys_[k];
    const int n = key.unused.back();
    key.unused.pop_back();
    const double e =
        (key.rng.uniform() < 0.5 ? -1.0 : 1.0) * key.rng.uniform(0.02, 0.05);
    key.points[n].error = e;
    return observe(k, n, usl(key, n) * (1.0 + e), true);
  }

  Item observe(std::size_t k, int n, double value, bool material) {
    Key& key = keys_[k];
    if (material) {
      key.points[n].value = value;
      ++key.version;
    }
    Item it;
    it.key = k;
    it.material = material;
    it.absorbed = !material;
    it.version = key.version;
    it.points = key.points.size();
    it.n = n;
    it.value = value;
    it.line = "{\"op\":\"observe\",\"key\":\"" + key.name +
              "\",\"n\":" + std::to_string(n) +
              ",\"value\":" + trace::json_double(value) + "}";
    return it;
  }

  ipso::stats::Rng rng_;  ///< batch composition only
  std::vector<Key> keys_;
};

/// Observe/compare streams on 64 keys: writes beside reads on one store.
class ObserveCompare final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::size_t kConns = 4;
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kDigestPerConn = kDigestSlots / kConns;

  void setup(std::size_t) override {
    serve::ServeConfig cfg;
    cfg.threads = 2;
    cfg.cache_capacity = 128;
    node_.start(cfg);
    clients_ = connect_clients(node_.server->port(), kConns);
    conns_.clear();
    for (std::size_t c = 0; c < kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>(args_.seed, c));
    }
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    std::mutex why_mu;
    std::string why;
    const auto fail = [&](std::string reason) {
      std::lock_guard<std::mutex> lock(why_mu);
      why = std::move(reason);
      failed = true;
    };
    for (std::size_t c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        // Batches of 16 keep the four connections within the engine's
        // admission queue.
        std::vector<std::string> lines;
        for (const auto& it : conns_[c]->stream.warm()) {
          lines.push_back(it.line);
          if (lines.size() < 16) continue;
          auto got = clients_[c]->call_batch(lines);
          if (!got || got->size() != lines.size()) return fail("transport");
          for (const auto& r : *got) {
            if (json_field(r, "material") != std::optional<std::string_view>("true")) {
              return fail("warm observe not material: " + r.substr(0, 200));
            }
          }
          lines.clear();
        }
        // One compare per key fills the store's zoo-fit entries; later
        // compares at the same window version must repeat these bytes.
        Conn& conn = *conns_[c];
        lines.clear();
        for (std::size_t k = 0; k < ObserveStream::kKeysPerConn; ++k) {
          lines.push_back(conn.stream.compare(k).line);
        }
        auto got = clients_[c]->call_batch(lines);
        if (!got || got->size() != lines.size()) return fail("transport");
        for (std::size_t k = 0; k < lines.size(); ++k) {
          const std::string w = check(conn, conn.stream.compare(k), (*got)[k]);
          if (!w.empty()) return fail(w);
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) throw std::runtime_error("observe warm-up: " + why);
  }

  void teardown() override {
    clients_.clear();
    node_.stop();
  }

  Tally measure(double seconds, std::size_t phase) override {
    before_ = node_.engine->observe_stats();
    for (auto& c : conns_) c->observes = c->materials = 0;
    return run_closed(
        clients_, seconds,
        [&](std::size_t c) {
          Conn& conn = *conns_[c];
          conn.pending = conn.stream.next_batch(kBatch);
          Batch b;
          for (const auto& it : conn.pending) {
            b.lines.push_back(it.line);
            if (!it.compare) {
              ++conn.observes;
              conn.materials += it.material ? 1 : 0;
            }
          }
          return b;
        },
        [&, phase](std::size_t c, std::size_t k, const std::string& resp) {
          Conn& conn = *conns_[c];
          if (phase == 0 && conn.answered < kDigestPerConn) {
            digest.put(c * kDigestPerConn + conn.answered, resp);
          }
          ++conn.answered;
          return check(conn, conn.pending[k], resp);
        },
        errors);
  }

  std::string final_check() override {
    const serve::ObservationStore::Stats after = node_.engine->observe_stats();
    std::size_t observes = 0, materials = 0;
    for (const auto& c : conns_) {
      observes += c->observes;
      materials += c->materials;
    }
    const std::size_t got_obs = after.observed - before_.observed;
    const std::size_t got_mat = after.material - before_.material;
    if (got_obs != observes || got_mat != materials) {
      return "material observes " + std::to_string(got_mat) + "/" +
             std::to_string(got_obs) + ", designed " +
             std::to_string(materials) + "/" + std::to_string(observes);
    }
    return {};
  }

  Counters counters() const override {
    Counters c;
    c.add_engine(*node_.engine);
    c.add_net(node_.server->net_stats());
    return c;
  }

  void replay(Replay& rp) override {
    teardown();
    serve::ObservationStore windows;
    const models::ModelZoo zoo;
    store::TieredStore store(store::TieredStoreConfig{128, "", 4ull << 20});
    std::vector<ObserveStream> streams;
    Replay warm;  // the setup's observes and compares, untimed
    for (std::size_t c = 0; c < kConns; ++c) {
      streams.emplace_back(args_.seed, c);
      for (const auto& it : streams[c].warm()) {
        (void)windows.observe(streams[c].key_name(it.key), it.n, it.value);
      }
      for (std::size_t k = 0; k < ObserveStream::kKeysPerConn; ++k) {
        (void)replay_item(warm, streams[c].compare(k), 0, windows, zoo, store);
      }
    }
    const serve::ObservationStore::Stats windows0 = windows.stats();
    const std::size_t invalidations0 = store.stats().tier.invalidations;
    const Clock::time_point start = Clock::now();
    std::size_t seq = 0;
    const auto served = digest.all();
    for (std::size_t j = 0; j < 20 && replay_budget_left(start); ++j) {
      for (std::size_t c = 0; c < kConns; ++c) {
        std::vector<std::string> requests, responses;
        for (const auto& it : streams[c].next_batch(kBatch)) {
          responses.push_back(replay_item(rp, it, seq++, windows, zoo, store));
          if (!it.compare &&
              json_field(responses.back(), "material") !=
                  std::string_view(it.material ? "true" : "false")) {
            errors.add("replayed observe disagrees with the designed window");
          }
          requests.push_back(it.line);
          // The stream restarted, so its first records are the ones whose
          // served answers the digest slots hold.
          const std::size_t pos = j * kBatch + requests.size() - 1;
          if (served && pos < kDigestPerConn &&
              (*served)[c * kDigestPerConn + pos] != responses.back()) {
            errors.add("replay differs from the served response");
          }
        }
        rp.framing(requests, responses, seq);
      }
    }
    const serve::ObservationStore::Stats windows1 = windows.stats();
    replay_observed_ = windows1.observed - windows0.observed;
    replay_material_ = windows1.material - windows0.material;
    replay_invalidations_ = store.stats().tier.invalidations - invalidations0;
  }

  /// The observe/compare layers without a server: replay() of this
  /// workload's streams through ObservationStore, ModelZoo and a
  /// TieredStore. Gives models.compare_ms, observe.observe_us,
  /// observe.material_ratio and store.invalidations, which serve_mix's
  /// traced run reports: observe_compare is not a BENCHMARK.json workload
  /// (README.md, "Workloads").
  LayerValues layer_replay() {
    Replay rp;
    replay(rp);
    LayerValues all;
    rp.values(all);
    LayerValues v;
    for (const char* name : {"models.compare_ms", "observe.observe_us"}) {
      if (const auto it = all.find(name); it != all.end()) v[name] = it->second;
    }
    if (replay_observed_ > 0) {
      v["observe.material_ratio"] = static_cast<double>(replay_material_) /
                                    static_cast<double>(replay_observed_);
    }
    v["store.invalidations"] = static_cast<double>(replay_invalidations_);
    return v;
  }

 private:
  struct Conn {
    Conn(std::uint64_t seed, std::size_t c) : stream(seed, c) {}
    ObserveStream stream;
    std::vector<ObserveStream::Item> pending;  ///< the batch in flight
    std::size_t answered = 0;
    std::size_t observes = 0, materials = 0;
    /// First compare answer per (key, window version).
    std::map<std::pair<std::size_t, std::uint64_t>, std::string> compares;
  };

  static std::string check(Conn& conn, const ObserveStream::Item& it,
                           const std::string& resp) {
    if (resp.find("\"ok\":true") == std::string::npos) {
      return "not ok: " + resp.substr(0, 200);
    }
    if (it.compare) {
      if (!json_field(resp, "winner")) return "compare without a winner";
      const auto key = std::make_pair(it.key, it.version);
      const auto [pos, fresh] = conn.compares.emplace(key, resp);
      if (!fresh && pos->second != resp) {
        return "compare at an unchanged window differs from its first answer";
      }
      return {};
    }
    const auto flag = [](bool b) { return std::string_view(b ? "true" : "false"); };
    if (json_field(resp, "material") != flag(it.material) ||
        json_field(resp, "absorbed") != flag(it.absorbed) ||
        json_field(resp, "version") != std::to_string(it.version) ||
        json_field(resp, "points") != std::to_string(it.points)) {
      return "observe answer disagrees with the designed window: " +
             resp.substr(0, 200);
    }
    return {};
  }

  static std::string replay_item(Replay& rp, const ObserveStream::Item& it,
                                 std::size_t seq,
                                 serve::ObservationStore& windows,
                                 const models::ModelZoo& zoo,
                                 store::TieredStore& store) {
    const std::string id = Replay::id_args(seq);
    Span request(rp.clock, "request", id);
    ++rp.requests;
    rp.request_bytes += static_cast<double>(it.line.size());
    serve::Request r;
    {
      Span s(rp.clock, "proto.parse", id);
      auto parsed = serve::parse_request(it.line);
      if (!parsed) throw std::runtime_error("replay: " + parsed.error());
      r = std::move(*parsed);
    }
    if (r.op == serve::Op::kObserve) {
      serve::ObservationStore::ObserveResult res;
      {
        Span s(rp.clock, "observe.observe", id);
        res = windows.observe(r.workload_key, r.observe_n, r.observe_value);
      }
      if (!res.superseded_fit_key.empty()) store.invalidate(res.superseded_fit_key);
      Span s(rp.clock, "proto.serialize", id);
      return serve::ok_response(r, serve::observe_result_json(r.workload_key, res));
    }
    auto snap = windows.snapshot(r.workload_key);
    if (!snap) throw std::runtime_error("replay: unknown key");
    models::Observations obs;
    obs.type = r.workload;
    obs.eta = r.eta;
    obs.speedup = std::move(snap->window);
    std::string fit_key;
    {
      Span s(rp.clock, "store.key", id);
      fit_key = store::canonical_fit_key(obs.type, obs.eta, obs.speedup,
                                         stats::Series(), stats::Series());
      fit_key[0] = 'Z';
    }
    ++rp.keys;
    rp.key_bytes += static_cast<double>(fit_key.size());
    Expected<models::ZooResult> zoo_result = FitError::kNotMeasured;
    {
      Span s(rp.clock, "models.compare", id);
      zoo_result = zoo.compare(
          obs, [&](const models::Observations& o) -> Expected<FactorFits> {
            return rp.lookup(store, fit_key, id, [&] {
              Span f(rp.clock, "core.fit", id);
              return store::FitOutcome{models::IpsoModel::fit_observations(o)};
            }).outcome->fits;
          });
    }
    if (!zoo_result) throw std::runtime_error("replay: compare failed");
    windows.note_fit(r.workload_key, snap->version, fit_key);
    Span s(rp.clock, "proto.serialize", id);
    return serve::ok_response(
        r, serve::compare_result_json(*zoo_result, r.workload_key, obs.speedup));
  }

  Node node_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Conn>> conns_;
  serve::ObservationStore::Stats before_;
  std::size_t replay_observed_ = 0, replay_material_ = 0;
  std::size_t replay_invalidations_ = 0;
};

void ServeMix::extra_layers(LayerValues& v) {
  ObserveCompare observe_compare(args_, work_dir_);
  for (const auto& [name, value] : observe_compare.layer_replay()) v[name] = value;
  for (std::string& e : observe_compare.errors.first()) errors.add(std::move(e));
}

// --- router_mix -------------------------------------------------------------

/// Replica tier: N engines behind TcpServers, fronted by one Router.
struct Tier {
  std::vector<Node> nodes;
  std::unique_ptr<serve::Router> router;

  void start(std::size_t replicas) {
    serve::RouterConfig rcfg;
    rcfg.placement = "hash";
    rcfg.connections_per_replica = 1;
    rcfg.max_upstream_batch = 16;
    // Two front-end loops: with one, the router's per-record parse and key
    // on a single thread set router_mix's throughput, and that thread's
    // share of a shared host moved the figure by 14% from run to run.
    rcfg.shards = 2;
    nodes.resize(replicas);
    for (Node& n : nodes) {
      serve::ServeConfig cfg;
      cfg.threads = 1;
      cfg.cache_capacity = 256;
      n.start(cfg);
      rcfg.replicas.push_back({"127.0.0.1", n.server->port()});
    }
    router = std::make_unique<serve::Router>(rcfg);
    if (auto ok = router->start(); !ok) {
      throw std::runtime_error("router start: " + ok.error().message);
    }
  }
  void stop() {
    if (router) router->shutdown();
    router.reset();
    for (Node& n : nodes) n.stop();
    nodes.clear();
  }
};

/// Zipf traffic through an in-process hash-placement Router fronting 2
/// replicas; every request is a replica DRAM hit after warm-up.
class RouterMix final : public Workload {
 public:
  static constexpr std::size_t kKeys = 96;
  static constexpr std::size_t kPoints = 512;
  static constexpr std::size_t kConns = 4;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kReplicas = 2;
  static constexpr std::size_t kStreamLen = 1 << 16;

  /// The 96 series are the default seed's for every seed, and so is the
  /// replica each one hashes to: with Zipf traffic the hottest few keys
  /// decide how the load splits over the two replicas, and seeded series
  /// would move that split from seed to seed. Seeds change the Zipf draws
  /// and the ops.
  RouterMix(const Args& args, std::string work_dir)
      : Workload(args, std::move(work_dir)) {
    std::vector<FitTruth> truths;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const FitSet set =
          make_fit_set(mix_seed(kDefaultSeed, 3'000'000 + k), kPoints, k % 2 == 1);
      for (const char* op : kFitOps) {
        lines_.push_back(fit_line(op, set.truth, set.series));
        truths.push_back(set.truth);
      }
    }
    // Direct answers from a standalone engine: the routed bytes must match.
    serve::ServeConfig cfg;
    cfg.threads = 4;
    cfg.queue_capacity = lines_.size();
    cfg.cache_capacity = 256;
    serve::ServeEngine direct(cfg);
    std::vector<std::future<std::string>> done;
    for (const std::string& l : lines_) done.push_back(direct.submit(l));
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      reference_.push_back(done[i].get());
      const std::string why =
          check_fit_response(kFitOps[i % 4], reference_[i], truths[i]);
      if (!why.empty()) throw std::runtime_error("direct answer: " + why);
    }
  }

  std::size_t setup_reps() const override { return 9; }

  void setup(std::size_t) override {
    tier_.start(kReplicas);
    clients_ = connect_clients(tier_.router->port(), kConns);
    warm(clients_);
  }

  void teardown() override {
    clients_.clear();
    tier_.stop();
  }

  Tally measure(double seconds, std::size_t phase) override {
    streams(phase);
    std::vector<std::size_t> batches(kConns, 0);
    return run_closed(
        clients_, seconds, [&](std::size_t c) { return next(c, batches[c]); },
        [&, phase](std::size_t c, std::size_t k, const std::string& resp) {
          const std::size_t idx = record(c, (batches[c] - 1) * kBatch + k);
          if (phase == 0 && batches[c] == 1) digest.put(c * kBatch + k, resp);
          return resp == reference_[idx]
                     ? std::string()
                     : "routed answer differs from the direct one: " +
                           resp.substr(0, 200);
        },
        errors);
  }

  Counters counters() const override {
    Counters c;
    for (const Node& n : tier_.nodes) c.add_engine(*n.engine);
    c.add_net(tier_.router->net_stats());
    c.add_router(tier_.router->stats());
    return c;
  }

  void replay(Replay& rp) override {
    teardown();
    streams(1);  // the traced phase's record sequence
    serve::ConsistentHashPlacement placement(kReplicas);
    std::vector<std::unique_ptr<store::TieredStore>> stores;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      stores.push_back(std::make_unique<store::TieredStore>(
          store::TieredStoreConfig{256, "", 4ull << 20}));
    }
    // Replica caches are warm in the served run; warm these the same way.
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::string& l = lines_[k * 4];
      const auto r = serve::parse_request(l);
      const std::string key =
          store::canonical_fit_key(r->workload, r->eta, r->ex, r->in, r->q);
      stores[placement.replica_for(key)]->get_or_compute(key, [&] {
        return store::FitOutcome{fit_factors(r->workload, r->measurements())};
      });
    }
    const Clock::time_point start = Clock::now();
    std::size_t seq = 0;
    for (std::size_t b = 0; b < 24 && replay_budget_left(start); ++b) {
      for (std::size_t c = 0; c < kConns; ++c) {
        std::vector<std::string> requests, responses;
        for (std::size_t k = 0; k < kBatch; ++k, ++seq) {
          const std::size_t idx = record(c, b * kBatch + k);
          const std::string& l = lines_[idx];
          const std::string id = Replay::id_args(seq);
          std::size_t replica = 0;
          double route_total = 0;
          {
            Span route(rp.clock, "router.route", id, &route_total);
            serve::Request r;
            {
              Span s(rp.clock, "proto.parse", id);
              auto parsed = serve::parse_request(l);
              if (!parsed) throw std::runtime_error("replay: " + parsed.error());
              r = std::move(*parsed);
            }
            std::string key;
            {
              Span s(rp.clock, "store.key", id);
              key = store::canonical_fit_key(r.workload, r.eta, r.ex, r.in, r.q);
            }
            {
              Span s(rp.clock, "placement.pick", id);
              replica = placement.replica_for(key);
            }
            ++rp.picks;
          }
          rp.route_s += route_total;
          responses.push_back(rp.fit_request(l, seq, *stores[replica]));
          if (responses.back() != reference_[idx]) {
            errors.add("replayed answer differs from the direct one");
          }
          requests.push_back(l);
        }
        rp.framing(requests, responses, seq);
      }
    }
  }

  void extra_layers(LayerValues& v) override {
    // Replica sweep: the tier is a fixed-size IPSO workload (constant
    // request stream, growing n), so its throughput curve gives q(n).
    stats::Series ex("EX(n)"), q("q(n)");
    double x1 = 0;
    for (std::size_t n = 1; n <= 3; ++n) {
      tier_.start(n);
      clients_ = connect_clients(tier_.router->port(), kConns);
      warm(clients_);
      const Tally t = measure(2.0, 2 + n);
      teardown();
      if (t.failed > 0 || t.ok == 0) {
        throw std::runtime_error("replica sweep failed at n=" + std::to_string(n));
      }
      const double x = static_cast<double>(t.ok) / t.elapsed_s;
      if (n == 1) x1 = x;
      const double speedup = x / x1;
      ex.add(static_cast<double>(n), 1.0);
      q.add(static_cast<double>(n), static_cast<double>(n) / speedup - 1.0);
      std::fprintf(stderr, "servebench: replica sweep n=%zu: %.1f req/s\n", n, x);
    }
    FactorMeasurements m;
    m.eta = 1.0;
    m.ex = ex;
    m.q = q;
    if (const auto fits = fit_factors(WorkloadType::kFixedSize, m)) {
      v["tier.gamma"] = fits->params.gamma;
    }
    if (const auto usl = models::UslModel::fit_from_q(q)) {
      v["tier.usl_sigma"] = usl->sigma;
      v["tier.usl_kappa"] = usl->kappa;
    }
  }

 private:
  void warm(std::vector<std::unique_ptr<Client>>& clients) {
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < kKeys; ++k) lines.push_back(lines_[k * 4]);
    const auto got = call_all(clients, lines, kBatch);
    for (std::size_t k = 0; k < kKeys; ++k) {
      if (got[k] != reference_[k * 4]) {
        throw std::runtime_error("warm-up: routed answer differs");
      }
    }
  }

  /// Per-connection record streams of one phase: Zipf keys, uniform ops.
  void streams(std::size_t phase) {
    ranks_.clear();
    ops_.clear();
    for (std::size_t c = 0; c < kConns; ++c) {
      const std::uint64_t s = mix_seed(args_.seed, 40 + phase * 8 + c);
      ranks_.push_back(zipf_ranks(kStreamLen, kKeys, 1.1, s));
      ipso::stats::Rng rng(s ^ 0x0f5);
      std::vector<std::uint8_t> ops(kStreamLen);
      for (auto& o : ops) o = static_cast<std::uint8_t>(rng.uniform_below(4));
      ops_.push_back(std::move(ops));
    }
  }

  std::size_t record(std::size_t c, std::size_t pos) const {
    pos %= kStreamLen;
    return ranks_[c][pos] * 4 + ops_[c][pos];
  }

  Batch next(std::size_t c, std::size_t& batch_no) {
    Batch b;
    for (std::size_t k = 0; k < kBatch; ++k) {
      b.lines.push_back(lines_[record(c, batch_no * kBatch + k)]);
    }
    ++batch_no;
    return b;
  }

  std::vector<std::string> lines_;
  std::vector<std::string> reference_;
  std::vector<std::vector<std::size_t>> ranks_;
  std::vector<std::vector<std::uint8_t>> ops_;
  Tier tier_;
  std::vector<std::unique_ptr<Client>> clients_;
};

std::unique_ptr<Workload> make_workload(const Args& args,
                                        const std::string& work_dir) {
  if (args.workload == "fit_cold") return std::make_unique<FitCold>(args, work_dir);
  if (args.workload == "serve_mix") return std::make_unique<ServeMix>(args, work_dir);
  if (args.workload == "observe_compare") {
    return std::make_unique<ObserveCompare>(args, work_dir);
  }
  return std::make_unique<RouterMix>(args, work_dir);
}

/// User plus system CPU time of this process (server and load generator).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Samples the steady clock and the process CPU time once at start-up and
/// then every kWindowS on a thread of its own, until stop().
class TickSampler {
 public:
  TickSampler() : thread_([this] { run(); }) {}
  ~TickSampler() { (void)stop(); }
  TickSampler(const TickSampler&) = delete;
  TickSampler& operator=(const TickSampler&) = delete;

  std::vector<Tick> stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return ticks_;
  }

 private:
  void run() {
    const Clock::time_point start = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t k = 0;; ++k) {
      const Clock::time_point at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kWindowS * static_cast<double>(k)));
      if (cv_.wait_until(lock, at, [&] { return stopping_; })) return;
      ticks_.push_back({steady_s(Clock::now()), process_cpu_s()});
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<Tick> ticks_;
  std::thread thread_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fit_cold", "serve_mix",
                                                 "observe_compare", "router_mix"};
  return names;
}

Outcome run_workload(const Args& args, const std::string& work_dir) {
  std::unique_ptr<Workload> w = make_workload(args, work_dir);
  Outcome out;

  std::vector<double> setup_s;
  const std::size_t reps = w->setup_reps();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    w->setup(rep);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (rep + 1 < reps) w->teardown();
  }

  // peak_rss_mib covers the measured phase only, not the setups before it.
  const bool rss_reset = reset_peak_rss();
  out.info.emplace_back("peak_rss_scope", rss_reset ? "measured" : "process");
  const Counters c0 = w->counters();
  // throughput_rps and cpu_ms_per_req are medians over kWindowS windows;
  // the whole-phase means go to the info line.
  const double cpu0 = process_cpu_s();
  TickSampler sampler;
  const Tally t = w->measure(static_cast<double>(args.seconds), 0);
  const WindowRates windows = window_rates(sampler.stop(), t.ok_at_s);
  const double cpu_s = process_cpu_s() - cpu0;
  out.info.emplace_back("windows", std::to_string(windows.rps.size()));
  out.info.emplace_back("phase_rps",
                        std::to_string(static_cast<double>(t.ok) / t.elapsed_s));
  out.info.emplace_back(
      "phase_cpu_ms_per_req",
      std::to_string(cpu_s * 1e3 /
                     static_cast<double>(std::max<std::size_t>(t.ok, 1))));
  if (windows.rps.size() < 3 || windows.cpu_ms_per_ok.size() < 3) {
    out.errors.push_back("fewer than 3 measurement windows");
  }
  w->digest.disarm();
  const Counters c1 = w->counters();
  LayerValues phase0;
  counter_layers(c0, c1, phase0);
  for (const char* name : {"store.dram_hit_ratio", "store.disk_hit_ratio"}) {
    if (const auto it = phase0.find(name); it != phase0.end()) {
      out.info.emplace_back(name, std::to_string(it->second));
    }
  }
  const double rss = peak_rss_mib();
  out.attempted = t.sent;
  out.failed = t.failed;
  if (std::string why = w->final_check(); !why.empty()) out.errors.push_back(why);

  std::vector<double> sorted = t.ok_latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const auto p50 = supported_percentile(sorted, 0.50);
  const auto p99 = supported_percentile(sorted, 0.99);
  if (!p99) out.errors.push_back("p99_ms: " + p99.error());
  std::size_t slo_ok = 0;
  for (double ms : t.ok_latency_ms) slo_ok += ms <= w->slo_ms() ? 1 : 0;
  const double sent = static_cast<double>(std::max<std::size_t>(t.sent, 1));

  if (const auto slots = w->digest.all()) {
    const std::string hex = response_digest(*slots);
    out.info.emplace_back("digest", hex);
    if (!args.golden.empty() && args.seed == kDefaultSeed) {
      const auto golden = read_golden(args.golden);
      if (!golden) {
        out.errors.push_back(golden.error());
      } else if (auto ok = check_digest(*golden, args.workload, *slots); !ok) {
        out.errors.push_back(ok.error());
      }
      out.info.emplace_back("digest_checked", "true");
    }
  } else {
    out.errors.push_back("fewer than " + std::to_string(kDigestSlots) +
                         " digest responses in the measured phase");
  }
  out.info.emplace_back("sent", std::to_string(t.sent));
  out.info.emplace_back("succeeded", std::to_string(t.ok));
  out.info.emplace_back("failed", std::to_string(t.failed));
  out.info.emplace_back("samples", std::to_string(sorted.size()));
  if (p50) out.info.emplace_back("p50_ms", std::to_string(*p50));
  if (p99) out.info.emplace_back("p99_ms", std::to_string(*p99));

  if (!args.trace) {
    out.metrics = {
        {"setup_s", {median(setup_s), "s"}},
        {"throughput_rps", {median(windows.rps), "1/s"}},
        {"ok_ratio", {static_cast<double>(t.ok) / sent, "ratio"}},
        {"peak_rss_mib", {rss, "MiB"}},
        {"slo_ok_ratio", {static_cast<double>(slo_ok) / sent, "ratio"}},
        {"cpu_ms_per_req", {median(windows.cpu_ms_per_ok), "ms"}},
    };
  } else {
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
    obs::Tracer::global().name_thread_track("servebench-main");
    obs::set_enabled(true);
    const Counters before = w->counters();
    const Tally traced = w->measure(static_cast<double>(args.seconds), 1);
    const Counters after = w->counters();
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    out.attempted += traced.sent;
    out.failed += traced.failed;
    out.info.emplace_back("traced_sent", std::to_string(traced.sent));
    out.info.emplace_back("traced_failed", std::to_string(traced.failed));

    LayerValues v;
    counter_layers(before, after, v);
    if (const auto it = snap.histograms.find("serve.queue_wait_seconds");
        it != snap.histograms.end() && it->second.count > 0) {
      v["engine.queue_wait_ms_p50"] = it->second.quantile(0.50) * 1e3;
      v["engine.queue_wait_ms_p99"] = it->second.quantile(0.99) * 1e3;
    }
    if (const auto it = snap.histograms.find("serve.request_latency_seconds");
        it != snap.histograms.end() && it->second.count > 0) {
      v["engine.latency_ms_p50"] = it->second.quantile(0.50) * 1e3;
    }
    const double base = p50 ? *p50 : 0.0;
    if (base > 0 && !traced.ok_latency_ms.empty()) {
      v["trace.overhead_ratio"] = median(traced.ok_latency_ms) / base;
    }
    if (!t.lag_ms.empty()) {
      std::vector<double> lag = t.lag_ms;
      std::sort(lag.begin(), lag.end());
      if (const auto l = supported_percentile(lag, 0.99)) {
        v["loadgen.lag_p99_ms"] = *l;
      }
    }

    Replay rp;
    w->replay(rp);
    rp.values(v);
    obs::set_enabled(false);
    if (!args.trace_out.empty() && !obs::write_chrome_trace(args.trace_out)) {
      out.errors.push_back("cannot write trace " + args.trace_out);
    }
    w->extra_layers(v);

    // Self-time table (stderr): where a replayed request spends its time.
    double total = 0;
    for (const auto& [name, s] : rp.clock.self_s) total += s;
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, s] : rp.clock.self_s) rows.emplace_back(s, name);
    std::sort(rows.rbegin(), rows.rend());
    std::fprintf(stderr, "servebench: self time over %zu replayed requests\n",
                 rp.requests);
    for (const auto& [s, name] : rows) {
      std::fprintf(stderr, "  %-18s %10.4f ms/req  %5.1f%%\n", name.c_str(),
                   s * 1e3 / static_cast<double>(std::max<std::size_t>(rp.requests, 1)),
                   total > 0 ? 100.0 * s / total : 0.0);
    }

    std::vector<std::string> missing;
    out.metrics = layer_result(args.workload, v, &missing);
    for (const std::string& m : missing) {
      out.errors.push_back("per-layer metric " + m + " is empty");
    }
  }
  w->teardown();
  for (std::string& e : w->errors.first()) out.errors.push_back(std::move(e));
  return out;
}

}  // namespace servebench
