#pragma once

#include "harness.h"
#include "obs/span.h"

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file layers.h
/// Per-layer timing for the traced run. Every call the benchmark makes into
/// a layer's public function is wrapped in a Span: an obs::ScopedSpan (so
/// it lands in the Chrome trace, tagged with the request id) plus a
/// steady_clock self-time account. A span's self time is its duration
/// minus the durations of the spans opened inside it on the same thread.

namespace servebench {

/// Self-time totals per span name.
struct LayerClock {
  std::map<std::string, double> self_s;

  /// Mean self time of `name` per `per` units (requests, batches, ...) in
  /// `scale` units of a second (1e3 = ms, 1e6 = us); nullopt when the span
  /// never ran or `per` is 0.
  [[nodiscard]] std::optional<double> mean(const std::string& name,
                                           std::size_t per,
                                           double scale) const;
};

class Span {
 public:
  /// `id_args` is the request-id argument body shared by every span of one
  /// request (e.g. `"id":"r17"`). When `total_out` is set it receives the
  /// span's whole duration (children included) in seconds at destruction.
  Span(LayerClock& clock, const char* name, const std::string& id_args,
       double* total_out = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ipso::obs::ScopedSpan span_;
  LayerClock& clock_;
  const char* name_;
  double* total_out_;
  Span* parent_;
  double child_s_ = 0.0;
  Clock::time_point start_;
};

/// The per-layer metric table: every name the traced run reports, with its
/// unit. A metric a workload does not exercise reads 0; `required` lists,
/// per workload, the metrics that must come out non-empty.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();
[[nodiscard]] const std::vector<std::string>& required_layers(
    const std::string& workload);

/// Collected layer values: a missing entry is an empty metric.
using LayerValues = std::map<std::string, double>;

/// Orders `values` by layer_metrics() (absent ones as 0) and reports every
/// required metric that is absent.
[[nodiscard]] std::vector<std::pair<std::string, Metric>> layer_result(
    const std::string& workload, const LayerValues& values,
    std::vector<std::string>* missing);

}  // namespace servebench
