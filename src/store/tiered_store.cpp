#include "store/tiered_store.h"

#include "obs/span.h"
#include "store/fit_codec.h"

#include <algorithm>
#include <utility>

namespace ipso::store {

namespace {

/// Minimum sketch estimate for a DRAM-evicted outcome to be spilled.
constexpr std::uint32_t kSpillMinFreq = 2;

}  // namespace

TieredStore::TieredStore(TieredStoreConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache_capacity),
      has_disk_(!cfg_.store_dir.empty()),
      disk_(DiskTierConfig{cfg_.store_dir, cfg_.max_segment_bytes}),
      sketch_(std::max<std::size_t>(cfg_.cache_capacity, 64)) {
  if (has_disk_) {
    cache_.set_evict_hook([this](const std::string& key,
                                 FitOutcomePtr outcome) {
      spill(key, outcome);
    });
    cache_.set_admission_filter(
        [this](const std::string& incoming, const std::string& victim) {
          sync::MutexLock lock(mu_);
          return sketch_.estimate(incoming) >= sketch_.estimate(victim);
        });
  }
}

TieredStore::~TieredStore() { flush(); }

IoStatus TieredStore::open() {
  if (!has_disk_) return {};
  obs::ScopedSpan span("store recover", "store");
  sync::MutexLock lock(mu_);
  return disk_.open();
}

TieredStore::Result TieredStore::get_or_compute(
    const std::string& key, const std::function<FitOutcome()>& compute) {
  if (has_disk_) {
    sync::MutexLock lock(mu_);
    sketch_.record(key);
  }

  // `disk_hit` is written by the wrapped compute, which get_or_compute
  // runs synchronously on this thread (leader path) or not at all.
  bool disk_hit = false;
  const auto tiered_compute = [&]() -> FitOutcome {
    if (has_disk_) {
      std::optional<std::string> bytes;
      {
        sync::MutexLock lock(mu_);
        bytes = disk_.get(key);
      }
      if (bytes) {
        if (auto fits = decode_factor_fits(*bytes)) {
          sync::MutexLock lock(mu_);
          ++tier_.disk_hits;
          disk_hit = true;
          return FitOutcome{std::move(*fits)};
        }
        sync::MutexLock lock(mu_);
        ++tier_.decode_failures;
      }
    }
    return compute();
  };

  const FitCache::Result r = cache_.get_or_compute(key, tiered_compute);
  return Result{r.outcome, r.hit, r.coalesced, disk_hit};
}

void TieredStore::spill(const std::string& key, const FitOutcomePtr& outcome) {
  // Only successful fits carry measurement value; errors recompute cheaply.
  if (!outcome || !outcome->fits.has_value()) return;
  sync::MutexLock lock(mu_);
  if (!disk_.is_open()) return;
  if (sketch_.estimate(key) < kSpillMinFreq) {
    ++tier_.spill_rejected;
    return;
  }
  if (disk_.put(key, encode_factor_fits(*outcome->fits))) {
    ++tier_.spilled;
  } else {
    ++tier_.spill_errors;
  }
}

void TieredStore::flush() {
  if (!has_disk_) return;
  obs::ScopedSpan span("store flush", "store");
  const auto ready = cache_.snapshot_ready();
  sync::MutexLock lock(mu_);
  if (!disk_.is_open()) return;
  for (const auto& [key, outcome] : ready) {
    if (!outcome || !outcome->fits.has_value()) continue;
    if (disk_.put(key, encode_factor_fits(*outcome->fits))) {
      ++tier_.spilled;
    } else {
      ++tier_.spill_errors;
    }
  }
  if (auto st = disk_.flush(); !st) ++tier_.spill_errors;
}

bool TieredStore::invalidate(const std::string& key) {
  const bool dram = cache_.erase(key);
  bool disk = false;
  {
    sync::MutexLock lock(mu_);
    if (has_disk_ && disk_.is_open()) disk = disk_.invalidate(key) > 0;
    if (dram || disk) ++tier_.invalidations;
  }
  return dram || disk;
}

void TieredStore::clear_memory() { cache_.clear(); }

TieredStore::Stats TieredStore::stats() const {
  Stats s;
  s.cache = cache_.stats();
  sync::MutexLock lock(mu_);
  s.tier = tier_;
  s.disk = disk_.stats();
  s.persistent = has_disk_;
  return s;
}

std::size_t TieredStore::fits_performed() const {
  const std::size_t misses = cache_.stats().misses;
  sync::MutexLock lock(mu_);
  return misses - std::min(misses, tier_.disk_hits);
}

void TieredStore::set_coalesce_wake_hook(std::function<void()> hook) {
  cache_.set_coalesce_wake_hook(std::move(hook));
}

}  // namespace ipso::store
