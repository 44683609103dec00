#include "store/tiered_store.h"

#include "obs/span.h"
#include "store/fit_codec.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ipso::store {

namespace {

/// Minimum sketch estimate for a DRAM-evicted outcome to be spilled.
constexpr std::uint32_t kSpillMinFreq = 2;

void append_u64(std::string* key, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    key->push_back(static_cast<char>(v & 0xFF));
    v >>= 8;
  }
}

void append_double(std::string* key, double v) {
  append_u64(key, std::bit_cast<std::uint64_t>(v));
}

void append_series(std::string* key, char tag, const stats::Series& s) {
  key->push_back(tag);
  append_u64(key, s.size());
  for (const auto& p : s) {
    append_double(key, p.x);
    append_double(key, p.y);
  }
}

}  // namespace

std::string canonical_fit_key(WorkloadType type, Eta eta,
                              const stats::Series& ex,
                              const stats::Series& in,
                              const stats::Series& q) {
  std::string key;
  key.reserve(2 + 8 + 3 * 9 + 16 * (ex.size() + in.size() + q.size()));
  key.push_back('F');  // key-format version
  key.push_back(static_cast<char>(type));
  append_double(&key, eta);
  append_series(&key, 'E', ex);
  append_series(&key, 'I', in);
  append_series(&key, 'Q', q);
  return key;
}

TieredStore::TieredStore(TieredStoreConfig cfg)
    : capacity_(std::max<std::size_t>(1, cfg.cache_capacity)),
      has_disk_(!cfg.store_dir.empty()),
      disk_(DiskTierConfig{cfg.store_dir, cfg.max_segment_bytes}) {
  if (has_disk_) {
    sketch_.emplace(std::max<std::size_t>(cfg.cache_capacity, 64));
  }
}

TieredStore::~TieredStore() { flush(); }

IoStatus TieredStore::open() {
  if (!has_disk_) return {};
  obs::ScopedSpan span("store recover", "store");
  sync::MutexLock lock(disk_mu_);
  return disk_.open();
}

TieredStore::Result TieredStore::get_or_compute(
    const std::string& key, const std::function<FitOutcome()>& compute) {
  std::shared_ptr<Entry> entry;
  {
    sync::MutexLock lock(mu_);
    if (sketch_) sketch_->record(key);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      entry = it->second;
      if (entry->ready) {
        // Hit: refresh LRU position.
        lru_.splice(lru_.begin(), lru_, entry->lru_it);
        ++stats_.hits;
        return {entry->outcome, true, false, false};
      }
      // Coalesce: another request is fitting this key right now.
      ++stats_.coalesced;
      ready_cv_.wait(mu_, [&]() IPSO_REQUIRES(mu_) { return entry->ready; });
      const FitOutcomePtr outcome = entry->outcome;
      // The hook may call back into the store, so it runs unlocked; the
      // copy keeps the hook itself from racing its setter.
      const std::function<void()> wake_hook = coalesce_wake_hook_;
      if (wake_hook) {
        lock.unlock();
        wake_hook();
        lock.lock();
      }
      // A follower is a consumer too: refresh the key's LRU recency so a
      // key kept hot purely by coalesced waiters doesn't age as untouched
      // and get evicted mid-demand. Re-find the key — clear_memory() or
      // eviction may have dropped it while we waited (or while the hook
      // ran), and only a READY mapped entry has a valid lru_it.
      const auto again = entries_.find(key);
      if (again != entries_.end() && again->second->ready) {
        lru_.splice(lru_.begin(), lru_, again->second->lru_it);
      }
      return {outcome, false, true, false};
    }
    entry = std::make_shared<Entry>();
    entries_.emplace(key, entry);
    ++stats_.misses;
  }

  // Leader path: promote or compute with no lock held. The callback must
  // not throw (fit errors travel inside Expected); if it somehow does,
  // publish a kFitFailed outcome so followers are never stranded on the cv.
  bool disk_hit = false;
  FitOutcomePtr outcome;
  try {
    std::optional<FitOutcome> promoted;
    if (has_disk_) promoted = promote(key);
    disk_hit = promoted.has_value();
    outcome = std::make_shared<const FitOutcome>(
        promoted ? std::move(*promoted) : compute());
  } catch (...) {
    outcome = std::make_shared<const FitOutcome>(
        FitOutcome{FitError::kFitFailed});
  }

  std::vector<Victim> evicted;
  {
    sync::MutexLock lock(mu_);
    entry->outcome = outcome;
    entry->ready = true;
    evicted = admit(key, entry);
  }
  ready_cv_.notify_all();
  spill(evicted);
  return {outcome, false, false, disk_hit};
}

std::optional<FitOutcome> TieredStore::promote(const std::string& key) {
  std::optional<std::string> bytes;
  {
    sync::MutexLock lock(disk_mu_);
    bytes = disk_.get(key);
  }
  if (!bytes) return std::nullopt;
  std::optional<FactorFits> fits = decode_factor_fits(*bytes);
  sync::MutexLock lock(disk_mu_);
  if (!fits) {
    ++tier_.decode_failures;
    return std::nullopt;
  }
  ++tier_.disk_hits;
  return FitOutcome{std::move(*fits)};
}

std::vector<TieredStore::Victim> TieredStore::admit(
    const std::string& key, const std::shared_ptr<Entry>& entry) {
  std::vector<Victim> evicted;
  // clear_memory() may have dropped the map entry while the leader
  // computed; only a key still present joins the LRU.
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second != entry) return evicted;
  lru_.push_front(key);
  entry->lru_it = lru_.begin();
  while (lru_.size() > capacity_) {
    std::string victim = lru_.back();
    // Frequency-driven admission: on the first overflow caused by this
    // publication, a newcomer colder than the coldest resident is the one
    // demoted, so the warm set stays intact (scan resistance).
    if (sketch_ && victim != key && lru_.size() == capacity_ + 1 &&
        sketch_->estimate(key) < sketch_->estimate(victim)) {
      victim = key;
    }
    // Every LRU key maps to a READY entry, so the find cannot miss.
    const auto vit = entries_.find(victim);
    const std::uint32_t freq = sketch_ ? sketch_->estimate(victim) : 0;
    evicted.push_back({std::move(victim), vit->second->outcome, freq});
    lru_.erase(vit->second->lru_it);
    entries_.erase(vit);
    ++stats_.evictions;
  }
  return evicted;
}

void TieredStore::spill(const std::vector<Victim>& victims) {
  if (!has_disk_ || victims.empty()) return;
  sync::MutexLock lock(disk_mu_);
  if (!disk_.is_open()) return;
  for (const Victim& v : victims) {
    // Only successful fits carry measurement value; errors recompute
    // cheaply.
    if (!v.outcome->fits.has_value()) continue;
    if (v.freq < kSpillMinFreq) {
      ++tier_.spill_rejected;
    } else {
      persist(v.key, *v.outcome->fits);
    }
  }
}

void TieredStore::persist(const std::string& key, const FactorFits& fits) {
  if (disk_.put(key, encode_factor_fits(fits))) {
    ++tier_.spilled;
  } else {
    ++tier_.spill_errors;
  }
}

void TieredStore::flush() {
  if (!has_disk_) return;
  obs::ScopedSpan span("store flush", "store");
  std::vector<std::pair<std::string, FitOutcomePtr>> ready;
  {
    sync::MutexLock lock(mu_);
    ready.reserve(lru_.size());
    for (const std::string& key : lru_) {
      ready.emplace_back(key, entries_.find(key)->second->outcome);
    }
  }
  sync::MutexLock lock(disk_mu_);
  if (!disk_.is_open()) return;
  for (const auto& [key, outcome] : ready) {
    if (outcome->fits.has_value()) persist(key, *outcome->fits);
  }
  if (auto st = disk_.flush(); !st) ++tier_.spill_errors;
}

bool TieredStore::invalidate(const std::string& key) {
  bool dram = false;
  {
    sync::MutexLock lock(mu_);
    const auto it = entries_.find(key);
    // Pending entries are untouched: their leader publishes normally.
    if (it != entries_.end() && it->second->ready) {
      lru_.erase(it->second->lru_it);
      entries_.erase(it);
      dram = true;
    }
  }
  sync::MutexLock lock(disk_mu_);
  const bool disk = disk_.is_open() && disk_.invalidate(key) > 0;
  if (dram || disk) ++tier_.invalidations;
  return dram || disk;
}

void TieredStore::clear_memory() {
  sync::MutexLock lock(mu_);
  // Pending entries stay in the map (their leaders publish into the
  // emptied LRU); READY entries drop now.
  for (const std::string& key : lru_) entries_.erase(key);
  lru_.clear();
}

TieredStore::Stats TieredStore::stats() const {
  Stats s;
  {
    sync::MutexLock lock(mu_);
    s.cache = stats_;
    s.cache.size = lru_.size();
  }
  sync::MutexLock lock(disk_mu_);
  s.tier = tier_;
  s.disk = disk_.stats();
  s.persistent = has_disk_;
  return s;
}

std::size_t TieredStore::fits_performed() const {
  std::size_t misses = 0;
  {
    sync::MutexLock lock(mu_);
    misses = stats_.misses;
  }
  sync::MutexLock lock(disk_mu_);
  return misses - std::min(misses, tier_.disk_hits);
}

void TieredStore::set_coalesce_wake_hook(std::function<void()> hook) {
  sync::MutexLock lock(mu_);
  coalesce_wake_hook_ = std::move(hook);
}

}  // namespace ipso::store
