/// Tests for the scaling-law model zoo (src/models) and the streaming
/// observe/compare path through the serve engine: each law recovers the
/// parameters of curves generated from its own closed form, degenerate
/// windows fail with named errors instead of crashing, zoo selection is
/// shape-driven and deterministic (the linear tie resolves to Amdahl by
/// registry order), and the serve `observe`/`compare` ops drive real
/// refits — material observes invalidate the cached zoo fit in every
/// store tier, absorbed observes leave it untouched, and a warm restart
/// serves the same compare byte-identically with zero fits performed.

#include "models/ipso_model.h"
#include "models/laws.h"
#include "models/unified.h"
#include "models/usl.h"
#include "models/zoo.h"
#include "serve/engine.h"
#include "serve/observe.h"
#include "trace/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ipso_models_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

}  // namespace

namespace ipso::models {
namespace {

const std::vector<double> kNs{1, 2, 4, 8, 16, 24, 32, 48, 64};

Observations amdahl_curve(double f) {
  Observations obs;
  obs.type = WorkloadType::kFixedSize;
  for (const double n : kNs) obs.speedup.add(n, AmdahlModel::speedup(f, n));
  return obs;
}

Observations contention_curve(double sigma, double kappa) {
  Observations obs;
  obs.type = WorkloadType::kFixedSize;
  for (const double n : kNs) {
    obs.speedup.add(
        n, n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0)));
  }
  return obs;
}

/// IPSO Eq. 16 fixed-time curve (alpha = 1), the paper's Fig. 9 shape.
Observations eq16_fixed_time_curve(double eta, double delta, double beta,
                                   double gamma) {
  Observations obs;
  obs.type = WorkloadType::kFixedTime;
  obs.eta = eta;
  for (const double n : kNs) {
    const double num = eta * std::pow(n, delta) + 1.0 - eta;
    const double den =
        eta * std::pow(n, delta - 1.0) * (1.0 + beta * std::pow(n, gamma)) +
        1.0 - eta;
    obs.speedup.add(n, num / den);
  }
  return obs;
}

double param(const FittedModel& m, const std::string& name) {
  for (const auto& [k, v] : m.params) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "missing param " << name;
  return std::numeric_limits<double>::quiet_NaN();
}

// ---------------------------------------------------------------------
// Individual laws recover the curves generated from their own forms.
// ---------------------------------------------------------------------

TEST(Laws, AmdahlRecoversSerialFraction) {
  const auto fit = AmdahlModel().fit(amdahl_curve(0.9));
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(param(*fit, "f"), 0.9, 1e-9);
  EXPECT_NEAR(residual_ss(*fit, amdahl_curve(0.9).speedup), 0.0, 1e-18);
}

TEST(Laws, GustafsonRecoversScaledFraction) {
  Observations obs;
  obs.type = WorkloadType::kFixedTime;
  const double f = 0.8;
  for (const double n : kNs) {
    obs.speedup.add(n, GustafsonModel::speedup(f, n));
  }
  const auto fit = GustafsonModel().fit(obs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(param(*fit, "f"), 0.8, 1e-9);
}

TEST(Laws, UslRecoversContentionAndCoherence) {
  const auto obs = contention_curve(0.05, 0.002);
  const auto fit = UslModel().fit(obs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(param(*fit, "sigma"), 0.05, 1e-9);
  EXPECT_NEAR(param(*fit, "kappa"), 0.002, 1e-9);

  // fit_from_q on the q(n) transform of the same curve is the same fit.
  stats::Series q("q(n)");
  for (const auto& p : obs.speedup.points()) q.add(p.x, p.x / p.y - 1.0);
  const auto direct = UslModel::fit_from_q(q);
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(direct->sigma, 0.05, 1e-9);
  EXPECT_NEAR(direct->kappa, 0.002, 1e-9);
}

TEST(Laws, UnifiedReducesToAmdahlWithoutOverhead) {
  const auto obs = amdahl_curve(0.7);
  const auto fit = UnifiedModel().fit(obs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(param(*fit, "f"), 0.7, 1e-3);
  EXPECT_LT(residual_ss(*fit, obs.speedup), 1e-6);
}

TEST(Laws, IpsoFixedSizeRecoversPowerLawOverhead) {
  // S(n) from the fixed-size inversion: q(n) = beta * n^gamma for n > 1,
  // eta = 1. Overhead is structural (scale-out-induced), so S(1) = 1 —
  // the same convention the model's own predict path uses.
  Observations obs;
  obs.type = WorkloadType::kFixedSize;
  const double beta = 0.01, gamma = 1.5;
  for (const double n : kNs) {
    obs.speedup.add(
        n, n > 1.0 ? n / (1.0 + beta * std::pow(n, gamma)) : 1.0);
  }
  const auto fit = IpsoModel().fit(obs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(param(*fit, "beta"), beta, 1e-6);
  EXPECT_NEAR(param(*fit, "gamma"), gamma, 1e-6);
  EXPECT_LT(residual_ss(*fit, obs.speedup), 1e-12);
}

TEST(Laws, IpsoFixedTimeRecoversEq16) {
  const auto obs = eq16_fixed_time_curve(0.95, 0.5, 0.005, 1.3);
  const auto fit = IpsoModel().fit(obs);
  ASSERT_TRUE(fit.has_value());
  // Nelder-Mead recovery is approximate; what matters is that the fitted
  // curve reproduces the data far better than any other family can.
  EXPECT_LT(residual_ss(*fit, obs.speedup), 1e-3);
  EXPECT_NEAR(param(*fit, "delta"), 0.5, 0.05);
}

// ---------------------------------------------------------------------
// Degenerate windows: named errors, never crashes.
// ---------------------------------------------------------------------

TEST(Laws, DegenerateWindowsFailWithNamedErrors) {
  Observations empty;
  empty.type = WorkloadType::kFixedSize;

  Observations single;  // one point, and it is n = 1
  single.type = WorkloadType::kFixedSize;
  single.speedup.add(1.0, 1.0);

  Observations ones_only;  // several points, none with n > 1
  ones_only.type = WorkloadType::kFixedSize;
  ones_only.speedup.add(1.0, 1.0);
  ones_only.speedup.add(1.0, 1.01);

  const ModelZoo zoo;
  for (const auto& law : zoo.laws()) {
    EXPECT_FALSE(law->fit(empty).has_value()) << law->name();
    EXPECT_FALSE(law->fit(single).has_value()) << law->name();
    EXPECT_FALSE(law->fit(ones_only).has_value()) << law->name();
  }

  // Non-positive speedup is a domain error, not a NaN factory.
  Observations nonpos;
  nonpos.type = WorkloadType::kFixedSize;
  nonpos.speedup.add(1.0, 1.0);
  nonpos.speedup.add(2.0, -1.8);
  const auto bad = AmdahlModel().fit(nonpos);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), FitError::kNonPositiveValue);

  // Unified needs >= 3 points with n > 1 for its 3 parameters.
  Observations two;
  two.type = WorkloadType::kFixedSize;
  two.speedup.add(1.0, 1.0);
  two.speedup.add(2.0, 1.9);
  two.speedup.add(4.0, 3.5);
  const auto unified = UnifiedModel().fit(two);
  ASSERT_FALSE(unified.has_value());
  EXPECT_EQ(unified.error(), FitError::kInsufficientData);

  // IPSO validates eta's domain before fitting.
  Observations bad_eta = amdahl_curve(0.9);
  bad_eta.eta = 0.0;
  const auto ipso = IpsoModel().fit(bad_eta);
  ASSERT_FALSE(ipso.has_value());
  EXPECT_EQ(ipso.error(), FitError::kOutOfDomain);

  // The zoo itself refuses a window it cannot score.
  EXPECT_FALSE(ModelZoo().compare(single).has_value());
}

// ---------------------------------------------------------------------
// Zoo selection: shape-driven, deterministic.
// ---------------------------------------------------------------------

TEST(Zoo, LinearSpeedupTieBreaksToAmdahlDeterministically) {
  Observations obs;
  obs.type = WorkloadType::kFixedSize;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0}) obs.speedup.add(n, n);

  const ModelZoo zoo;
  for (int round = 0; round < 3; ++round) {
    const auto r = zoo.compare(obs);
    ASSERT_TRUE(r.has_value());
    // Every law fits S = n exactly; the registry-order tie-break makes
    // the fewest-assumption law (Amdahl, f = 1) the deterministic winner.
    EXPECT_EQ(r->winner_name, "amdahl");
    const ModelScore& winner = r->scores[r->winner];
    ASSERT_TRUE(winner.ok);
    EXPECT_NEAR(winner.params[0].second, 1.0, 1e-12);
  }
}

TEST(Zoo, ContentionCurveSelectsUslOverAmdahl) {
  const auto r = ModelZoo().compare(contention_curve(0.05, 0.002));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner_name, "usl");
  const ModelScore* amdahl = nullptr;
  const ModelScore* usl = nullptr;
  for (const ModelScore& s : r->scores) {
    if (s.model == "amdahl") amdahl = &s;
    if (s.model == "usl") usl = &s;
  }
  ASSERT_NE(amdahl, nullptr);
  ASSERT_NE(usl, nullptr);
  ASSERT_TRUE(amdahl->ok);
  ASSERT_TRUE(usl->ok);
  // Amdahl's single parameter cannot express the n*(n-1) coherence term;
  // USL refits the generating form exactly.
  EXPECT_LT(usl->rss, 1e-12);
  EXPECT_GT(amdahl->rss, 1.0);
  EXPECT_LT(usl->aic, amdahl->aic);
}

TEST(Zoo, Fig9FixedTimeCurveSelectsIpso) {
  const auto r =
      ModelZoo().compare(eq16_fixed_time_curve(0.95, 0.5, 0.005, 1.3));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner_name, "ipso");
}

TEST(Zoo, IpsoHookReplacesTheFactorFit) {
  const auto obs = eq16_fixed_time_curve(0.95, 0.5, 0.005, 1.3);
  std::size_t calls = 0;
  const IpsoFitHook hook =
      [&calls](const Observations& o) -> Expected<FactorFits> {
    ++calls;
    return IpsoModel::fit_observations(o);
  };
  const auto r = ModelZoo().compare(obs, hook);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner_name, "ipso");
  // Exactly one hook call: the scoreboard fit. The leave-one-out refits
  // inside the CV computation deliberately bypass the hook so cache
  // instrumentation is not churned m extra times per compare.
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace ipso::models

namespace ipso::serve {
namespace {

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

bool has_error(const std::string& response, const std::string& code) {
  return response.find("\"error\":\"" + code + "\"") != std::string::npos;
}

std::string observe_request(const std::string& key, double n, double s) {
  return "{\"op\":\"observe\",\"key\":\"" + key +
         "\",\"n\":" + trace::json_double(n) +
         ",\"value\":" + trace::json_double(s) + "}";
}

std::string compare_request(const std::string& key) {
  return "{\"op\":\"compare\",\"workload\":\"fixed-size\",\"key\":\"" + key +
         "\"}";
}

/// The scoreboard part of a compare response — shared between keyed and
/// inline compares of the same window contents.
std::string scoreboard_of(const std::string& response) {
  const std::size_t at = response.find("\"models\":");
  EXPECT_NE(at, std::string::npos) << response;
  return at == std::string::npos ? response : response.substr(at);
}

// ---------------------------------------------------------------------
// ObservationStore: value-determinism, materiality, eviction.
// ---------------------------------------------------------------------

TEST(ObservationStore, WindowIsArrivalOrderIndependent) {
  ObserveConfig cfg;
  cfg.window_capacity = 4;
  ObservationStore a(cfg), b(cfg);
  // Same multiset of points, different arrival orders; capacity pressure
  // evicts the smallest n either way.
  const std::vector<std::pair<double, double>> pts{
      {1, 1.0}, {2, 1.9}, {4, 3.5}, {8, 6.0}, {16, 9.0}, {32, 11.0}};
  for (const auto& [n, s] : pts) a.observe("w", n, s);
  for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
    b.observe("w", it->first, it->second);
  }
  const auto sa = a.snapshot("w");
  const auto sb = b.snapshot("w");
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  ASSERT_EQ(sa->window.size(), 4u);
  ASSERT_EQ(sb->window.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sa->window[i].x, sb->window[i].x);
    EXPECT_EQ(sa->window[i].y, sb->window[i].y);
  }
  // Smallest n evicted: the window holds the {4, 8, 16, 32} tail.
  EXPECT_EQ(sa->window[0].x, 4.0);
}

TEST(ObservationStore, AbsorbedPointsKeepWindowBytesUnchanged) {
  ObservationStore store;
  store.observe("w", 2.0, 1.9);
  const auto before = store.snapshot("w");
  ASSERT_TRUE(before.has_value());

  // A sub-threshold repeat is absorbed: the OLD value is kept, so the
  // window (and any content-derived fit key) is byte-unchanged.
  const auto r = store.observe("w", 2.0, 1.9 * 1.001);
  EXPECT_TRUE(r.absorbed);
  EXPECT_FALSE(r.material);
  const auto after = store.snapshot("w");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->version, before->version);
  EXPECT_EQ(after->window[0].y, 1.9);

  // A material move bumps the version and surrenders the recorded fit key.
  store.note_fit("w", after->version, "Zfitkey");
  const auto m = store.observe("w", 2.0, 3.8);
  EXPECT_TRUE(m.material);
  EXPECT_EQ(m.superseded_fit_key, "Zfitkey");
  EXPECT_EQ(m.version, before->version + 1);
}

// ---------------------------------------------------------------------
// The serve ops: observe streams, compare refits, invalidation.
// ---------------------------------------------------------------------

TEST(ServeObserve, ObserveThenCompareFitsOnceAndCaches) {
  ServeEngine engine;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const std::string r =
        engine.handle(observe_request("job", n, n / (1.0 + 0.02 * n)));
    ASSERT_TRUE(is_ok(r)) << r;
    EXPECT_NE(r.find("\"material\":true"), std::string::npos) << r;
  }
  EXPECT_EQ(engine.fits_performed(), 0u);

  const std::string first = engine.handle(compare_request("job"));
  ASSERT_TRUE(is_ok(first)) << first;
  EXPECT_NE(first.find("\"winner\":"), std::string::npos);
  EXPECT_EQ(engine.fits_performed(), 1u);

  // Same window, second compare: the zoo's IPSO member comes from the
  // fit store; the response is byte-identical and nothing is re-fitted.
  const std::string second = engine.handle(compare_request("job"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.fits_performed(), 1u);

  const ObservationStore::Stats obs = engine.observe_stats();
  EXPECT_EQ(obs.keys, 1u);
  EXPECT_EQ(obs.points, 6u);
  EXPECT_EQ(obs.observed, 6u);
  EXPECT_EQ(obs.material, 6u);
}

TEST(ServeObserve, MaterialObserveInvalidatesAndRefits) {
  ServeEngine engine;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    engine.handle(observe_request("job", n, n / (1.0 + 0.02 * n)));
  }
  const std::string first = engine.handle(compare_request("job"));
  ASSERT_TRUE(is_ok(first));
  ASSERT_EQ(engine.fits_performed(), 1u);
  ASSERT_EQ(engine.store_stats().tier.invalidations, 0u);

  // Absorbed repeat: window bytes unchanged, cached zoo fit stays valid.
  const std::string absorbed = engine.handle(
      observe_request("job", 8.0, (8.0 / (1.0 + 0.02 * 8.0)) * 1.001));
  EXPECT_NE(absorbed.find("\"absorbed\":true"), std::string::npos);
  EXPECT_EQ(engine.handle(compare_request("job")), first);
  EXPECT_EQ(engine.fits_performed(), 1u);
  EXPECT_EQ(engine.store_stats().tier.invalidations, 0u);

  // Material move: the superseded fit is invalidated in the store and the
  // next compare is a genuine refit over the new window.
  const std::string material =
      engine.handle(observe_request("job", 8.0, 2.0));
  EXPECT_NE(material.find("\"material\":true"), std::string::npos);
  EXPECT_EQ(engine.store_stats().tier.invalidations, 1u);

  const std::string refit = engine.handle(compare_request("job"));
  ASSERT_TRUE(is_ok(refit));
  EXPECT_NE(refit, first);
  EXPECT_EQ(engine.fits_performed(), 2u);
}

TEST(ServeObserve, InlineCompareMatchesKeyedScoreboard) {
  ServeEngine engine;
  std::string inline_req =
      "{\"op\":\"compare\",\"workload\":\"fixed-size\",\"observations\":[";
  bool first = true;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double s = n / (1.0 + 0.05 * (n - 1.0) + 0.002 * n * (n - 1.0));
    engine.handle(observe_request("job", n, s));
    if (!first) inline_req += ",";
    first = false;
    inline_req += "[";
    inline_req += trace::json_double(n) + "," + trace::json_double(s) + "]";
  }
  inline_req += "]}";

  const std::string keyed = engine.handle(compare_request("job"));
  const std::string inline_resp = engine.handle(inline_req);
  ASSERT_TRUE(is_ok(keyed)) << keyed;
  ASSERT_TRUE(is_ok(inline_resp)) << inline_resp;
  // Same window contents => identical scoreboard (and identical content
  // key, so the second compare reuses the first's cached IPSO fit).
  EXPECT_EQ(scoreboard_of(keyed), scoreboard_of(inline_resp));
  EXPECT_NE(keyed.find("\"winner\":\"usl\""), std::string::npos) << keyed;
  EXPECT_EQ(engine.fits_performed(), 1u);
}

TEST(ServeObserve, CompareOpSelectsModelByCurveShape) {
  // The Zoo.* curves again, now through the request path (parse, dispatch,
  // serialization) instead of a direct ModelZoo call.
  models::Observations linear;
  linear.type = WorkloadType::kFixedSize;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0}) linear.speedup.add(n, n);
  const std::vector<std::pair<models::Observations, std::string>> cases{
      {models::contention_curve(0.05, 0.002), "usl"},
      {models::eq16_fixed_time_curve(0.95, 0.5, 0.005, 1.3), "ipso"},
      {linear, "amdahl"},
  };
  ServeEngine engine;
  for (const auto& [obs, winner] : cases) {
    std::string req = "{\"op\":\"compare\",\"workload\":\"" +
                      std::string(to_string(obs.type)) + "\"";
    if (obs.type == WorkloadType::kFixedTime) {
      req += ",\"eta\":" + trace::json_double(obs.eta);
    }
    req += ",\"observations\":[";
    for (std::size_t i = 0; i < obs.speedup.size(); ++i) {
      req += i ? ",[" : "[";
      req += trace::json_double(obs.speedup[i].x) + "," +
             trace::json_double(obs.speedup[i].y) + "]";
    }
    req += "]}";
    const std::string response = engine.handle(req);
    EXPECT_TRUE(is_ok(response)) << response;
    EXPECT_NE(response.find("\"winner\":\"" + winner + "\""),
              std::string::npos)
        << "expected " << winner << ": " << response;
  }
}

TEST(ServeObserve, AdmissionValidatesObserveAndCompare) {
  ServeEngine engine;
  // Admission-stage violations are rejected before dispatch with the
  // parse_error code, like every other malformed request.
  EXPECT_TRUE(has_error(
      engine.handle("{\"op\":\"observe\",\"n\":2,\"value\":1.5}"),
      "parse_error"));  // missing key
  EXPECT_TRUE(has_error(
      engine.handle(
          "{\"op\":\"observe\",\"key\":\"w\",\"n\":0.5,\"value\":1.5}"),
      "parse_error"));  // n < 1
  EXPECT_TRUE(has_error(
      engine.handle(
          "{\"op\":\"observe\",\"key\":\"w\",\"n\":2,\"value\":-1}"),
      "parse_error"));  // non-positive speedup
  EXPECT_TRUE(has_error(
      engine.handle("{\"op\":\"compare\"}"),
      "parse_error"));  // neither key nor observations
  EXPECT_TRUE(has_error(
      engine.handle("{\"op\":\"compare\",\"key\":\"w\",\"observations\":"
                    "[[1,1],[2,1.9]]}"),
      "parse_error"));  // both key and observations
  EXPECT_TRUE(has_error(
      engine.handle("{\"op\":\"compare\",\"observations\":[[4,3.5]]}"),
      "parse_error"));  // inline window too small
  // An unknown key parses fine but fails at dispatch: bad_request.
  EXPECT_TRUE(has_error(
      engine.handle("{\"op\":\"compare\",\"key\":\"nobody\"}"),
      "bad_request"));
}

TEST(ServeObserve, StatsOpReportsObserveCounters) {
  ServeEngine engine;
  engine.handle(observe_request("a", 1.0, 1.0));
  engine.handle(observe_request("a", 2.0, 1.9));
  engine.handle(observe_request("b", 2.0, 1.5));
  const std::string stats = engine.handle("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"observe\":{\"keys\":2"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"fits_performed\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"invalidations\":0"), std::string::npos) << stats;
}

TEST(ServeObserve, WarmRestartServesCompareByteIdenticalWithoutRefit) {
  TempDir dir;
  ServeConfig cfg;
  cfg.store_dir = dir.str();

  std::string inline_req =
      "{\"op\":\"compare\",\"workload\":\"fixed-size\",\"observations\":[";
  bool first = true;
  for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) inline_req += ",";
    first = false;
    inline_req += "[";
    inline_req += trace::json_double(n) + "," +
                  trace::json_double(n / (1.0 + 0.03 * n)) + "]";
  }
  inline_req += "]}";

  std::string cold;
  {
    ServeEngine engine(cfg);
    ASSERT_TRUE(engine.store_status());
    cold = engine.handle(inline_req);
    ASSERT_TRUE(is_ok(cold)) << cold;
    EXPECT_EQ(engine.fits_performed(), 1u);
    engine.drain();  // flushes the zoo fit to the persistent tier
  }
  {
    ServeEngine engine(cfg);
    ASSERT_TRUE(engine.store_status());
    const std::string warm = engine.handle(inline_req);
    EXPECT_EQ(cold, warm);
    // The IPSO member was promoted from disk, not re-fitted.
    EXPECT_EQ(engine.fits_performed(), 0u);
    EXPECT_GE(engine.store_stats().tier.disk_hits, 1u);
  }
}

TEST(ServeObserve, ConcurrentObserveCompareIsRaceFree) {
  ServeConfig cfg;
  cfg.threads = 4;
  ServeEngine engine(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&engine, t] {
      const std::string key = "job-" + std::to_string(t % 2);
      for (int i = 0; i < kPerThread; ++i) {
        const double n = 1.0 + i % 8;
        engine.handle(observe_request(key, n, n / (1.0 + 0.05 * n)));
        if (i % 4 == 3) {
          const std::string r = engine.handle(compare_request(key));
          EXPECT_TRUE(is_ok(r)) << r;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  engine.drain();
  const ObservationStore::Stats obs = engine.observe_stats();
  EXPECT_EQ(obs.keys, 2u);
  EXPECT_EQ(obs.observed,
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace ipso::serve
