#pragma once

#include "store/disk_tier.h"
#include "store/fit_cache.h"
#include "store/sketch.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/sync.h"

/// \file tiered_store.h
/// The store facade the serve layer talks to: tier 0 is the DRAM FitCache
/// (LRU + coalescing), tier 1 an optional on-disk DiskTier. Data moves
/// between tiers by observed access frequency:
///
///  * **spill (demote)**: a READY outcome evicted from DRAM by capacity
///    pressure is persisted iff the frequency sketch says it was touched
///    more than once — single-touch keys (a one-shot parameter sweep) age
///    out of existence instead of bloating the segments;
///  * **promote**: a DRAM miss consults the disk index before computing;
///    a disk hit decodes the persisted fit (bit-exact, fit_codec.h) and
///    re-enters it into DRAM — no re-fit;
///  * **admission**: when publishing a new entry would evict a resident
///    one, the sketch compares their recent frequencies and the colder of
///    the two is the one demoted (scan resistance).
///
/// Without a directory (store_dir empty) the facade degrades to exactly
/// the old single-tier cache: no sketch vetoes, no I/O, same stats.
///
/// Thread-safe. The disk tier and sketch are guarded by one store mutex.
/// Lock order: the DRAM tier's lock may be held when the store mutex is
/// taken (the admission filter runs inside the cache), never the reverse
/// — every store-mutex holder calls into the disk tier or sketch only,
/// never back into the cache. Fits compute with neither lock held.

namespace ipso::store {

struct TieredStoreConfig {
  std::size_t cache_capacity = 1024;
  /// Empty => DRAM-only (tier 1 disabled).
  std::string store_dir;
  std::uint64_t max_segment_bytes = 4ull << 20;
};

/// Tier-crossing counters (DRAM-tier counters live in FitCache::Stats).
struct TierStats {
  std::size_t disk_hits = 0;        ///< promotes: misses served from disk
  std::size_t spilled = 0;          ///< evictions persisted to disk
  std::size_t spill_rejected = 0;   ///< evictions judged too cold to keep
  std::size_t spill_errors = 0;     ///< I/O or encode failures on spill
  std::size_t decode_failures = 0;  ///< disk records that failed to decode
  std::size_t invalidations = 0;    ///< invalidate() calls that dropped data
};

class TieredStore {
 public:
  explicit TieredStore(TieredStoreConfig cfg);
  ~TieredStore();

  /// Opens (or creates) the disk tier when store_dir is set. Returns the
  /// recovery outcome; a DRAM-only store trivially succeeds. Corrupt
  /// records are counted, never an error. Call once before serving.
  [[nodiscard]] IoStatus open() IPSO_EXCLUDES(mu_);

  struct Result {
    FitOutcomePtr outcome;
    bool hit = false;        ///< served from DRAM
    bool coalesced = false;  ///< waited on an in-flight fit
    bool disk_hit = false;   ///< miss served from the persistent tier
  };

  /// The single lookup entry point: DRAM, then disk, then `compute`.
  Result get_or_compute(const std::string& key,
                        const std::function<FitOutcome()>& compute)
      IPSO_EXCLUDES(mu_);

  /// Persists every READY DRAM outcome (unlike eviction spills this is
  /// not frequency-gated: an explicit flush keeps everything) and syncs.
  /// The drain path of the serve engine, and the destructor's last act.
  void flush() IPSO_EXCLUDES(mu_);

  /// Drops the DRAM tier only (persisted records survive — this is what
  /// makes the bench's warm phase honest: byte-identical responses must
  /// come from disk, not from lingering DRAM).
  void clear_memory();

  /// Drops `key` from every tier: the READY DRAM entry and the disk index
  /// entries (record bytes stay orphaned until compaction). The observe
  /// path calls this when a workload's window changes materially — the
  /// superseded window's fit must not survive anywhere, so the next
  /// compare is a genuine refit. Returns true when anything was dropped.
  bool invalidate(const std::string& key) IPSO_EXCLUDES(mu_);

  struct Stats {
    FitCache::Stats cache;
    TierStats tier;
    DiskTierStats disk;
    bool persistent = false;
  };
  [[nodiscard]] Stats stats() const IPSO_EXCLUDES(mu_);

  [[nodiscard]] std::size_t cache_capacity() const noexcept {
    return cache_.capacity();
  }
  [[nodiscard]] bool persistent() const noexcept { return has_disk_; }

  /// Fits actually computed: DRAM misses minus the misses the disk tier
  /// absorbed. The warm-restart contract ("no re-fit") is this == 0.
  [[nodiscard]] std::size_t fits_performed() const IPSO_EXCLUDES(mu_);

  /// Test hook, forwarded to the DRAM tier (see FitCache).
  void set_coalesce_wake_hook(std::function<void()> hook);

 private:
  void spill(const std::string& key, const FitOutcomePtr& outcome)
      IPSO_EXCLUDES(mu_);

  TieredStoreConfig cfg_;
  FitCache cache_;
  bool has_disk_ = false;

  /// Guards disk_, sketch_, tier_ — never cache_. DESIGN.md §13,
  /// capability "store.tiered", order rank 3: acquired *inside* the DRAM
  /// tier's "store.cache" lock (the admission filter runs under it), so no
  /// store-mutex holder may ever call back into cache_.
  mutable sync::Mutex mu_{"store.tiered"};
  DiskTier disk_ IPSO_GUARDED_BY(mu_);
  FrequencySketch sketch_ IPSO_GUARDED_BY(mu_);
  TierStats tier_ IPSO_GUARDED_BY(mu_);
};

}  // namespace ipso::store
