#include "layers.h"

namespace servebench {

namespace {

thread_local Span* current_span = nullptr;

}  // namespace

std::optional<double> LayerClock::mean(const std::string& name,
                                       std::size_t per, double scale) const {
  const auto it = self_s.find(name);
  if (it == self_s.end() || per == 0) return std::nullopt;
  return it->second * scale / static_cast<double>(per);
}

Span::Span(LayerClock& clock, const char* name, const std::string& id_args,
           double* total_out)
    : span_(name, "servebench", id_args),
      clock_(clock),
      name_(name),
      total_out_(total_out),
      parent_(current_span),
      start_(Clock::now()) {
  current_span = this;
}

Span::~Span() {
  const double d = std::chrono::duration<double>(Clock::now() - start_).count();
  clock_.self_s[name_] += d - child_s_;
  if (total_out_ != nullptr) *total_out_ = d;
  if (parent_ != nullptr) parent_->child_s_ += d;
  current_span = parent_;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"proto.parse_ms", "ms"},
      {"proto.request_kib", "KiB"},
      {"proto.serialize_us", "us"},
      {"store.key_ms", "ms"},
      {"store.key_kib", "KiB"},
      {"store.hit_us", "us"},
      {"store.promote_ms", "ms"},
      {"store.dram_hit_ratio", "ratio"},
      {"store.disk_hit_ratio", "ratio"},
      {"store.coalesced", "count"},
      {"store.fits_performed", "count"},
      {"store.spilled", "count"},
      {"store.spill_rejected", "count"},
      {"store.disk_mib", "MiB"},
      {"store.invalidations", "count"},
      {"core.fit_ms", "ms"},
      {"stats.segmented_ms", "ms"},
      {"stats.segmented_share", "ratio"},
      {"models.compare_ms", "ms"},
      {"observe.observe_us", "us"},
      {"observe.material_ratio", "ratio"},
      {"engine.queue_wait_ms_p50", "ms"},
      {"engine.queue_wait_ms_p99", "ms"},
      {"engine.peak_queue_depth", "count"},
      {"engine.latency_ms_p50", "ms"},
      {"framing.decode_us", "us"},
      {"framing.encode_us", "us"},
      {"net.bytes_in_per_req", "B"},
      {"net.wakeups_per_req", "count"},
      {"net.backpressure_stalls", "count"},
      {"router.route_ms", "ms"},
      {"placement.pick_us", "us"},
      {"router.keyed_ratio", "ratio"},
      {"router.replica_skew", "ratio"},
      {"router.upstream_batch_records", "count"},
      {"tier.gamma", "1"},
      {"tier.usl_sigma", "1"},
      {"tier.usl_kappa", "1"},
      {"loadgen.lag_p99_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return table;
}

const std::vector<std::string>& required_layers(const std::string& workload) {
  // The layers each workload was chosen to load (README.md, "Layer map").
  static const std::vector<std::string> common = {
      "proto.parse_ms",          "proto.request_kib",
      "proto.serialize_us",      "engine.queue_wait_ms_p50",
      "engine.queue_wait_ms_p99", "engine.peak_queue_depth",
      "engine.latency_ms_p50",
      "framing.decode_us",       "framing.encode_us",
      "net.bytes_in_per_req",    "net.wakeups_per_req",
      "trace.overhead_ratio"};
  static const std::map<std::string, std::vector<std::string>> extra = {
      {"fit_cold",
       {"store.key_ms", "store.key_kib", "store.dram_hit_ratio",
        "store.fits_performed", "core.fit_ms", "stats.segmented_ms",
        "stats.segmented_share"}},
      {"serve_mix",
       {"store.key_ms", "store.key_kib", "store.hit_us", "store.promote_ms",
        "store.dram_hit_ratio", "store.disk_hit_ratio", "store.disk_mib",
        "loadgen.lag_p99_ms", "models.compare_ms", "observe.observe_us",
        "observe.material_ratio", "store.invalidations"}},
      {"observe_compare",
       {"store.key_ms", "store.dram_hit_ratio", "models.compare_ms",
        "observe.observe_us", "observe.material_ratio"}},
      {"router_mix",
       {"store.key_ms", "store.key_kib", "store.hit_us",
        "store.dram_hit_ratio", "router.route_ms", "placement.pick_us",
        "router.keyed_ratio", "router.replica_skew",
        "router.upstream_batch_records", "tier.gamma", "tier.usl_sigma",
        "tier.usl_kappa"}},
  };
  static const auto merged = [] {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& [w, names] : extra) {
      out[w] = common;
      out[w].insert(out[w].end(), names.begin(), names.end());
    }
    return out;
  }();
  return merged.at(workload);
}

std::vector<std::pair<std::string, Metric>> layer_result(
    const std::string& workload, const LayerValues& values,
    std::vector<std::string>* missing) {
  for (const std::string& name : required_layers(workload)) {
    if (values.find(name) == values.end()) missing->push_back(name);
  }
  std::vector<std::pair<std::string, Metric>> out;
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = values.find(m.name);
    out.emplace_back(m.name, Metric{it == values.end() ? 0.0 : it->second,
                                    m.unit});
  }
  return out;
}

}  // namespace servebench
