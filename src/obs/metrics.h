#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.h"

/// \file metrics.h
/// Lock-cheap metrics for the always-on telemetry layer (ipso::obs).
///
/// A MetricsRegistry holds named counters, gauges, and log-scale histograms.
/// Counter and histogram updates go to a *thread-local shard* — the hot path
/// is one (for counters) or three (for histograms) relaxed atomic adds with
/// no lock and no sharing between writer threads. snapshot() merges the
/// shards under the registry mutex. Gauges are last-write-wins and live as
/// single atomics in the registry itself.
///
/// Instrument handles (Counter / Gauge / Histogram) resolve the name to a
/// stable id once and gate every update on obs::enabled(), so a
/// runtime-disabled binary pays one relaxed load per call site.

namespace ipso::obs {

/// Global runtime switch for the whole obs subsystem (metrics + spans).
/// One relaxed atomic load; false by default so untraced runs pay nothing.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Fixed instrument capacities: shards are flat atomic arrays so they can be
/// read by the snapshotting thread while owners keep writing (relaxed).
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 64;
/// Histogram buckets are powers of two: bucket b (b >= 1) covers
/// [2^(b-32), 2^(b-31)), i.e. ~2.3e-10 .. 4.3e9 for seconds-scale values;
/// bucket 0 collects v <= 0. One relaxed add per observation.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Registration beyond an instrument-kind capacity returns this id; updates
/// against it are silently dropped (a 1024-worker pool must not crash the
/// telemetry layer).
inline constexpr std::size_t kInvalidInstrument =
    static_cast<std::size_t>(-1);

/// Merged view of one histogram.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Bucket-resolution quantile estimate (geometric bucket midpoint);
  /// q in [0, 1]. Returns 0 for an empty histogram.
  double quantile(double q) const noexcept;
};

/// Point-in-time merge of every shard, keyed by instrument name.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Named-instrument registry with thread-local shards. Intended use is the
/// process-global instance (global()); independent instances work too (unit
/// tests) but take a short lock to find their shard where the global
/// registry uses a thread-local cache.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-global registry every instrument handle defaults to.
  static MetricsRegistry& global() noexcept;

  /// Name -> stable id; the same name always yields the same id. Returns
  /// kInvalidInstrument when the capacity for that kind is exhausted.
  std::size_t counter_id(const std::string& name) IPSO_EXCLUDES(mu_);
  std::size_t gauge_id(const std::string& name) IPSO_EXCLUDES(mu_);
  std::size_t histogram_id(const std::string& name) IPSO_EXCLUDES(mu_);

  /// Hot-path updates (relaxed atomics; invalid ids are ignored).
  void add(std::size_t counter, double delta) noexcept;
  void gauge_set(std::size_t gauge, double value) noexcept;
  void observe(std::size_t histogram, double value) noexcept;

  /// Merges every shard. Relaxed reads: a snapshot taken while writers run
  /// is a consistent-enough point-in-time view, not a barrier.
  MetricsSnapshot snapshot() const IPSO_EXCLUDES(mu_);

  /// Zeroes every counter/gauge/histogram cell (names and ids survive).
  void reset() noexcept IPSO_EXCLUDES(mu_);

 private:
  struct Shard {
    std::thread::id owner;
    std::array<std::atomic<double>, kMaxCounters> counters{};
    std::array<std::atomic<double>, kMaxHistograms> hist_sum{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_count{};
    std::array<std::atomic<std::uint64_t>,
               kMaxHistograms * kHistogramBuckets>
        hist_buckets{};
  };

  Shard& local_shard() noexcept IPSO_EXCLUDES(mu_);
  Shard& find_or_create_shard() IPSO_EXCLUDES(mu_);
  std::size_t register_name(std::unordered_map<std::string, std::size_t>* map,
                            std::vector<std::string>* names,
                            const std::string& name, std::size_t cap)
      IPSO_EXCLUDES(mu_);

  /// Guards the name maps and the shard list (DESIGN.md §13, capability
  /// "obs.registry" — a leaf: the engine increments instruments while
  /// holding its own mutex, so nothing here may call back out). Shard
  /// *contents* are relaxed atomics read while writers run; only the list
  /// and the name tables need the lock.
  mutable sync::Mutex mu_;
  std::unordered_map<std::string, std::size_t> counter_ids_
      IPSO_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::size_t> gauge_ids_
      IPSO_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::size_t> histogram_ids_
      IPSO_GUARDED_BY(mu_);
  std::vector<std::string> counter_names_ IPSO_GUARDED_BY(mu_);
  std::vector<std::string> gauge_names_ IPSO_GUARDED_BY(mu_);
  std::vector<std::string> histogram_names_ IPSO_GUARDED_BY(mu_);
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
  /// Shards live until the registry dies: a worker thread that exits simply
  /// stops writing, and its totals keep contributing to snapshots.
  std::vector<std::unique_ptr<Shard>> shards_ IPSO_GUARDED_BY(mu_);
};

/// Cached-id counter handle. Construct once (e.g. function-local static) and
/// add() from any thread; updates are dropped while obs is disabled.
class Counter {
 public:
  explicit Counter(const std::string& name)
      : id_(MetricsRegistry::global().counter_id(name)) {}
  void add(double delta = 1.0) const noexcept {
    if (enabled()) MetricsRegistry::global().add(id_, delta);
  }

 private:
  std::size_t id_;
};

/// Last-write-wins gauge handle.
class Gauge {
 public:
  explicit Gauge(const std::string& name)
      : id_(MetricsRegistry::global().gauge_id(name)) {}
  void set(double value) const noexcept {
    if (enabled()) MetricsRegistry::global().gauge_set(id_, value);
  }

 private:
  std::size_t id_;
};

/// Log-scale histogram handle.
class Histogram {
 public:
  explicit Histogram(const std::string& name)
      : id_(MetricsRegistry::global().histogram_id(name)) {}
  void observe(double value) const noexcept {
    if (enabled()) MetricsRegistry::global().observe(id_, value);
  }

 private:
  std::size_t id_;
};

}  // namespace ipso::obs
