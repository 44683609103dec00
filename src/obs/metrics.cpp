#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace ipso::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Log-2 bucket index: bucket 0 for v <= 0 (or non-finite), otherwise
/// floor(log2(v)) shifted so seconds-scale values land mid-range.
std::size_t bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;
  const int e = std::ilogb(v);
  const long idx = static_cast<long>(e) + 32;
  if (idx < 1) return 1;
  if (idx >= static_cast<long>(kHistogramBuckets)) {
    return kHistogramBuckets - 1;
  }
  return static_cast<std::size_t>(idx);
}

/// Geometric midpoint of bucket b (the inverse of bucket_index).
double bucket_mid(std::size_t b) noexcept {
  if (b == 0) return 0.0;
  return std::ldexp(1.5, static_cast<int>(b) - 32);  // 1.5 * 2^(b-32)
}

}  // namespace

bool enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

double HistogramStats::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target && buckets[b] > 0) return bucket_mid(b);
  }
  return bucket_mid(buckets.size() - 1);
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() noexcept {
  static MetricsRegistry instance;
  return instance;
}

std::size_t MetricsRegistry::register_name(
    std::unordered_map<std::string, std::size_t>* map,
    std::vector<std::string>* names, const std::string& name,
    std::size_t cap) {
  sync::MutexLock lk(mu_);
  const auto it = map->find(name);
  if (it != map->end()) return it->second;
  if (names->size() >= cap) return kInvalidInstrument;
  const std::size_t id = names->size();
  names->push_back(name);
  map->emplace(name, id);
  return id;
}

std::size_t MetricsRegistry::counter_id(const std::string& name) {
  return register_name(&counter_ids_, &counter_names_, name, kMaxCounters);
}

std::size_t MetricsRegistry::gauge_id(const std::string& name) {
  return register_name(&gauge_ids_, &gauge_names_, name, kMaxGauges);
}

std::size_t MetricsRegistry::histogram_id(const std::string& name) {
  return register_name(&histogram_ids_, &histogram_names_, name,
                       kMaxHistograms);
}

MetricsRegistry::Shard& MetricsRegistry::find_or_create_shard() {
  const std::thread::id me = std::this_thread::get_id();
  sync::MutexLock lk(mu_);
  for (const auto& s : shards_) {
    if (s->owner == me) return *s;
  }
  shards_.push_back(std::make_unique<Shard>());
  shards_.back()->owner = me;
  return *shards_.back();
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() noexcept {
  // Fast path: a one-entry thread-local cache for the global registry (the
  // only one on hot paths). Other instances (unit tests) take the lock.
  thread_local Shard* cached = nullptr;
  if (this == &global()) {
    if (cached == nullptr) cached = &find_or_create_shard();
    return *cached;
  }
  return find_or_create_shard();
}

void MetricsRegistry::add(std::size_t counter, double delta) noexcept {
  if (counter >= kMaxCounters) return;
  local_shard().counters[counter].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(std::size_t gauge, double value) noexcept {
  if (gauge >= kMaxGauges) return;
  gauges_[gauge].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(std::size_t histogram, double value) noexcept {
  if (histogram >= kMaxHistograms) return;
  Shard& s = local_shard();
  s.hist_sum[histogram].fetch_add(value, std::memory_order_relaxed);
  s.hist_count[histogram].fetch_add(1, std::memory_order_relaxed);
  s.hist_buckets[histogram * kHistogramBuckets + bucket_index(value)]
      .fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  sync::MutexLock lk(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    double total = 0.0;
    for (const auto& s : shards_) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    out.counters[counter_names_[i]] = total;
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    out.gauges[gauge_names_[i]] = gauges_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramStats h;
    for (const auto& s : shards_) {
      h.sum += s->hist_sum[i].load(std::memory_order_relaxed);
      h.count += s->hist_count[i].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] += s->hist_buckets[i * kHistogramBuckets + b].load(
            std::memory_order_relaxed);
      }
    }
    out.histograms[histogram_names_[i]] = h;
  }
  return out;
}

void MetricsRegistry::reset() noexcept {
  sync::MutexLock lk(mu_);
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
  for (const auto& s : shards_) {
    for (auto& c : s->counters) c.store(0.0, std::memory_order_relaxed);
    for (auto& v : s->hist_sum) v.store(0.0, std::memory_order_relaxed);
    for (auto& v : s->hist_count) v.store(0, std::memory_order_relaxed);
    for (auto& v : s->hist_buckets) v.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ipso::obs
