#pragma once

#include "core/classify.h"
#include "core/diagnose.h"
#include "core/fit.h"
#include "core/predict.h"
#include "models/zoo.h"
#include "serve/observe.h"
#include "stats/series.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file proto.h
/// The ipso::serve wire protocol: newline-delimited JSON request/response
/// (one object per line). parse_request decodes a line in one pass, with
/// no document tree; responses use trace/json's max_digits10 double
/// formatting, so they round-trip bit-exactly.
///
/// Request grammar (field order free; unknown fields ignored; a repeated
/// field keeps its last value):
///
///   {"op":"fit"|"predict"|"classify"|"diagnose"|"recommend"
///         |"observe"|"compare"|"ping"|"stats",
///    "id":"r1",                       // optional, echoed back verbatim
///    "workload":"fixed-time"|"fixed-size"|"memory-bounded",
///    "eta":0.59,                      // parallelizable fraction at n = 1
///    "ex":[[n,EX(n)],...],            // factor observations (fit inputs)
///    "in":[[n,IN(n)],...],
///    "q":[[n,q(n)],...],
///    "params":{"workload":...,"eta":..,"alpha":..,"delta":..,
///              "beta":..,"gamma":..}, // skips the fit (predict/classify/
///                                     // recommend only)
///    "speedup":[[n,S(n)],...],        // diagnose input
///    "ns":[1,2,4,...],                // predict/recommend grid
///    "knee_frac":0.9,                 // recommend knee threshold
///    "key":"etl-hourly",              // workload window key (observe/compare)
///    "n":8, "value":5.2,              // one streamed point (observe)
///    "observations":[[n,S(n)],...],   // inline list (compare without a key)
///    "deadline_ms":500}               // per-request deadline (0 = none)
///
/// Response: {"id":...,"op":"...","ok":true,"result":{...}} on success,
/// {"id":...,"op":"...","ok":false,"error":"<code>","message":"..."} on
/// failure. Error codes: parse_error, bad_request, fit_failed, overloaded,
/// draining, deadline_exceeded, contract_violation, internal. A response is a pure function of
/// the request (no timestamps, no cache markers), so cached, coalesced and
/// recomputed answers are byte-identical.

namespace ipso::serve {

/// Protocol operations.
enum class Op {
  kPing,       ///< liveness probe
  kFit,        ///< fit factor observations -> params + classification
  kPredict,    ///< fit (or take params) -> S(n) over a grid
  kClassify,   ///< fit (or take params) -> scaling-type classification
  kDiagnose,   ///< speedup curve (+ optional factors) -> diagnostic report
  kRecommend,  ///< fit (or take params) -> provisioning plan (n*, knee)
  kObserve,    ///< stream one (key, n, S) point into a workload window
  kCompare,    ///< model zoo over a window (or inline list) -> scoreboard
  kStats,      ///< server counters (not deterministic, never cached)
  kUnknown,
};

std::string_view to_string(Op op) noexcept;
Op op_from_string(std::string_view name) noexcept;

/// One parsed request.
struct Request {
  Op op = Op::kUnknown;
  std::string id;                        ///< echoed back; may be empty
  WorkloadType workload = WorkloadType::kFixedTime;
  double eta = 1.0;
  stats::Series ex{"EX(n)"};
  stats::Series in{"IN(n)"};
  stats::Series q{"q(n)"};
  stats::Series speedup{"S(n)"};
  std::optional<AsymptoticParams> params;  ///< explicit-params fast path
  std::vector<double> ns;                  ///< empty = default grid
  double knee_frac = 0.9;
  std::string workload_key;                ///< observe/compare window key
  double observe_n = 0.0;                  ///< observe: scale-out degree
  double observe_value = 0.0;              ///< observe: measured speedup
  stats::Series observations{"S(n)"};      ///< compare: inline point list
  double deadline_ms = 0.0;                ///< 0 = no deadline

  /// True when factor observations were supplied (the fit path).
  [[nodiscard]] bool has_observations() const noexcept { return !ex.empty(); }

  /// The prediction grid: `ns` or the default geometric 1..1024.
  [[nodiscard]] std::vector<double> grid() const;

  /// Factor observations bundled for fit_factors().
  [[nodiscard]] FactorMeasurements measurements() const;
};

/// Parses one request line. The error string is a human-readable reason
/// ("expected array of [n,v] pairs for 'ex'", ...).
[[nodiscard]] Expected<Request, std::string> parse_request(
    const std::string& line);

/// {"id":...,"op":"...","ok":true,"result":<result>}; id omitted if empty.
[[nodiscard]] std::string ok_response(const Request& req,
                                      const std::string& result);

/// {"id":...,"op":"...","ok":false,"error":"<code>","message":"..."}.
[[nodiscard]] std::string error_response(const std::string& id, Op op,
                                         std::string_view code,
                                         std::string_view message);

/// Result-body builders (deterministic field order, max_digits10 doubles).
[[nodiscard]] std::string params_json(const AsymptoticParams& p);
[[nodiscard]] std::string classification_json(const Classification& c);
[[nodiscard]] std::string fit_result_json(const FactorFits& fits);
[[nodiscard]] std::string predict_result_json(const AsymptoticParams& p,
                                              const stats::Series& curve);
[[nodiscard]] std::string recommend_result_json(const AsymptoticParams& p,
                                                const ProvisioningPlan& plan);
[[nodiscard]] std::string diagnose_result_json(const DiagnosticReport& report);
/// {"key":...,"material":...,"absorbed":...,"dropped":...,"version":...,
///  "points":N,"window":[[n,S],...]} — a pure function of the observe
/// sequence for the key, so replicas that saw the same stream answer
/// byte-identically.
[[nodiscard]] std::string observe_result_json(
    const std::string& key, const ObservationStore::ObserveResult& r);
/// {"key":...(omitted when inline),"observations":[[n,S],...],"models":
///  [{"model":...,"ok":...,...}],"winner":"..."} — deterministic field
/// order, max_digits10 doubles; carries no engine state, so JSON/binary,
/// routed/standalone, and cold/warm-restart answers are byte-identical.
[[nodiscard]] std::string compare_result_json(const models::ZooResult& zoo,
                                              const std::string& key,
                                              const stats::Series& window);

}  // namespace ipso::serve
