#pragma once

#include "core/domain.h"
#include "core/fit.h"
#include "store/disk_tier.h"
#include "store/line_digest.h"
#include "store/sketch.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sync.h"

/// \file tiered_store.h
/// The fit store the serve layer talks to: a DRAM LRU of READY fit
/// outcomes with request coalescing — concurrent lookups of the same key
/// share one in-flight computation instead of fitting N times — backed by
/// an optional on-disk DiskTier. Data moves between the two by observed
/// access frequency:
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
/// Without a directory (store_dir empty) the store is a plain LRU: no
/// sketch, no I/O.
///
/// **Answers.** A DRAM entry also carries the response bytes of up to
/// kAnswerSlots request lines it answered (one per slot; the serve engine
/// uses one slot per fit-path op), indexed by the lines' keyed digests
/// (line_digest.h), so a repeated line is answered before it is parsed.
/// The lines themselves are not stored: a digest hit is trusted. The
/// answers leave with their entry (eviction, invalidate(), clear_memory()).
///
/// Concurrency contract: two locks, never nested. The cache lock guards
/// the LRU map, the coalescing condvar, the DRAM counters, the sketch and
/// the answer index;
/// the disk lock guards the disk tier and the tier-crossing counters.
/// Promotion reads and fits run with the cache lock released (a slow fit
/// never blocks lookups of other keys); evicted outcomes are spilled under
/// the disk lock after the cache lock is released. Followers that arrive
/// while a key is pending block until the leader publishes; the published
/// outcome is immutable and shared by pointer, so readers never copy or
/// race. Hits and served followers both refresh the key's LRU recency — a
/// key kept hot purely by coalesced waiters is hot, not idle. Only READY
/// entries occupy LRU slots — a pending entry cannot be evicted from under
/// its followers, and DRAM is bounded by capacity + in-flight fits (itself
/// bounded by the engine's admission queue).

namespace ipso::store {

/// The cached unit of work: everything downstream ops derive from one
/// observation set. Immutable once published.
struct FitOutcome {
  Expected<FactorFits> fits = FitError::kNotMeasured;
};

using FitOutcomePtr = std::shared_ptr<const FitOutcome>;

/// Canonical cache key: the exact bit patterns of eta and every (x, y)
/// observation, plus the workload type and per-series tags/lengths. Two
/// requests map to the same key iff fit_factors() would see identical
/// input, so a cache hit is always semantically exact (no epsilon
/// comparisons, no hash collisions — the key *is* the input). The leading
/// byte is the key-format version; the persistent tier stores keys
/// verbatim, so bumping it orphans (never corrupts) old records.
[[nodiscard]] std::string canonical_fit_key(WorkloadType type, Eta eta,
                                            const stats::Series& ex,
                                            const stats::Series& in,
                                            const stats::Series& q);

struct TieredStoreConfig {
  /// READY outcomes retained in DRAM (>= 1 enforced).
  std::size_t cache_capacity = 1024;
  /// Empty => DRAM-only (tier 1 disabled).
  std::string store_dir;
  std::uint64_t max_segment_bytes = 4ull << 20;
};

/// DRAM-tier counters.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;     ///< leader lookups: promotes + compute() calls
  std::size_t coalesced = 0;  ///< followers that waited on a leader
  std::size_t evictions = 0;
  std::size_t size = 0;       ///< READY entries currently cached
};

/// Tier-crossing counters.
struct TierStats {
  std::size_t disk_hits = 0;        ///< promotes: misses served from disk
  std::size_t spilled = 0;          ///< evictions persisted to disk
  std::size_t spill_rejected = 0;   ///< evictions judged too cold to keep
  std::size_t spill_errors = 0;     ///< I/O or encode failures on spill
  std::size_t decode_failures = 0;  ///< disk records that failed to decode
  std::size_t invalidations = 0;    ///< invalidate() calls that dropped data
};

/// Thread-safe.
class TieredStore {
 public:
  explicit TieredStore(TieredStoreConfig cfg);
  ~TieredStore();

  /// Opens (or creates) the disk tier when store_dir is set. Returns the
  /// recovery outcome; a DRAM-only store trivially succeeds. Corrupt
  /// records are counted, never an error. Call once before serving.
  [[nodiscard]] IoStatus open() IPSO_EXCLUDES(disk_mu_);

  struct Result {
    FitOutcomePtr outcome;
    bool hit = false;        ///< served from DRAM
    bool coalesced = false;  ///< waited on an in-flight fit
    bool disk_hit = false;   ///< miss served from the persistent tier
  };

  /// The single lookup entry point: DRAM, then disk, then `compute` —
  /// which runs exactly once across all concurrent callers of the same
  /// key, unless the disk tier already holds the fit.
  Result get_or_compute(const std::string& key,
                        const std::function<FitOutcome()>& compute)
      IPSO_EXCLUDES(mu_, disk_mu_);

  /// Persists every READY DRAM outcome (unlike eviction spills this is
  /// not frequency-gated: an explicit flush keeps everything) and syncs.
  /// The drain path of the serve engine, and the destructor's last act.
  void flush() IPSO_EXCLUDES(mu_, disk_mu_);

  /// Answer slots per DRAM entry, and the largest answer kept: a typical
  /// fit-path response is 1-3 KiB, and only a client-supplied grid of
  /// thousands of points makes one larger, so with both bounds no client
  /// can grow an entry by more than 256 KiB.
  static constexpr std::size_t kAnswerSlots = 4;
  static constexpr std::size_t kMaxAnswerBytes = 64u << 10;

  /// The response remembered for the request line with digest `d`, if a
  /// DRAM entry carries one. A hit is a DRAM hit: it counts in
  /// cache.hits, is recorded in the sketch and refreshes LRU recency.
  [[nodiscard]] std::optional<std::string> find_answer(const LineDigest& d)
      IPSO_EXCLUDES(mu_);

  /// Attaches `response`, the answer to the line with digest `d`, to the
  /// READY DRAM entry of `key` in slot `slot` (< kAnswerSlots), replacing
  /// that slot's previous answer. A no-op when `key` is not READY in DRAM
  /// or `response` is longer than kMaxAnswerBytes.
  void remember_answer(const std::string& key, std::size_t slot,
                       const LineDigest& d, std::string response)
      IPSO_EXCLUDES(mu_);

  /// Drops the DRAM tier only (persisted records survive — this is what
  /// makes the bench's warm phase honest: byte-identical responses must
  /// come from disk, not from lingering DRAM). Spills nothing: dropping
  /// DRAM is not a demotion. Pending fits publish into the emptied cache.
  void clear_memory() IPSO_EXCLUDES(mu_);

  /// Drops `key` from every tier: the READY DRAM entry (without spilling
  /// it — superseded data must not be persisted) and the disk index
  /// entries (record bytes stay orphaned until compaction). The observe
  /// path calls this when a workload's window changes materially — the
  /// superseded window's fit must not survive anywhere, so the next
  /// compare is a genuine refit. Returns true when anything was dropped.
  bool invalidate(const std::string& key) IPSO_EXCLUDES(mu_, disk_mu_);

  struct Stats {
    CacheStats cache;
    TierStats tier;
    DiskTierStats disk;
    bool persistent = false;
  };
  [[nodiscard]] Stats stats() const IPSO_EXCLUDES(mu_, disk_mu_);

  [[nodiscard]] std::size_t cache_capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] bool persistent() const noexcept { return has_disk_; }

  /// Fits actually computed: DRAM misses minus the misses the disk tier
  /// absorbed. The warm-restart contract ("no re-fit") is this == 0.
  [[nodiscard]] std::size_t fits_performed() const
      IPSO_EXCLUDES(mu_, disk_mu_);

  /// Test hook: runs on a *follower* thread after its leader publishes but
  /// before the follower refreshes the key's LRU recency, with the cache
  /// lock released (so the hook may call back into the store). Lets tests
  /// deterministically interleave an insertion into that window; never set
  /// in production. Mirrors ServeConfig::fit_hook.
  void set_coalesce_wake_hook(std::function<void()> hook) IPSO_EXCLUDES(mu_);

 private:
  /// A remembered response and the digest of the line it answered.
  struct Answer {
    LineDigest digest;
    std::string response;
  };
  /// Entry fields are guarded by mu_ as well (every access in
  /// tiered_store.cpp is under the lock), but the analysis cannot express
  /// "guarded by the owning container's mutex" for a heap-shared node, so
  /// the discipline is documented here and enforced by review + TSan.
  struct Entry {
    FitOutcomePtr outcome;  ///< null while the leader is computing
    bool ready = false;
    std::uint64_t sketch_hash = 0;  ///< FrequencySketch::hash(key)
    std::list<const std::string*>::iterator lru_it{};  ///< valid iff ready
    std::array<std::optional<Answer>, kAnswerSlots> answers;
  };
  /// Where an indexed answer lives.
  struct AnswerRef {
    Entry* entry = nullptr;
    std::size_t slot = 0;
  };

  /// An outcome leaving DRAM by capacity pressure, with the sketch's
  /// frequency estimate taken at eviction time.
  struct Victim {
    std::string key;
    FitOutcomePtr outcome;
    std::uint32_t freq = 0;
  };

  /// Leader path: the persisted fit for `key`, if the disk tier holds one
  /// that decodes.
  std::optional<FitOutcome> promote(const std::string& key)
      IPSO_EXCLUDES(mu_, disk_mu_);
  /// Links a freshly published entry into the LRU and evicts down to
  /// capacity; returns the evicted outcomes for spill().
  std::vector<Victim> admit(const std::string& key,
                            const std::shared_ptr<Entry>& entry)
      IPSO_REQUIRES(mu_);
  void spill(const std::vector<Victim>& victims) IPSO_EXCLUDES(mu_, disk_mu_);
  /// Unindexes and frees the answers of an entry leaving DRAM.
  void drop_answers(Entry& entry) IPSO_REQUIRES(mu_);
  void persist(const std::string& key, const FactorFits& fits)
      IPSO_REQUIRES(disk_mu_);

  const std::size_t capacity_;
  const bool has_disk_;

  /// DESIGN.md §13, capability "store.cache" — a leaf: never held across
  /// compute(), a disk read or a spill, and no path takes disk_mu_ under it.
  mutable sync::Mutex mu_{"store.cache"};
  sync::CondVar ready_cv_;
  /// Test-only; see setter.
  std::function<void()> coalesce_wake_hook_ IPSO_GUARDED_BY(mu_);
  /// Most-recent first; READY keys only. Each points at the key inside
  /// its entries_ node (nodes stay put across rehashing), so a key, which
  /// can be hundreds of KiB, is stored once.
  std::list<const std::string*> lru_ IPSO_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      IPSO_GUARDED_BY(mu_);
  /// Digest of a remembered line -> its answer; READY entries only.
  std::unordered_map<LineDigest, AnswerRef, LineDigestHash> answers_
      IPSO_GUARDED_BY(mu_);
  CacheStats stats_ IPSO_GUARDED_BY(mu_);
  /// Present iff has_disk_: admission and spill decisions only.
  std::optional<FrequencySketch> sketch_ IPSO_GUARDED_BY(mu_);

  /// DESIGN.md §13, capability "store.disk" — a leaf: no path takes mu_
  /// under it.
  mutable sync::Mutex disk_mu_{"store.disk"};
  DiskTier disk_ IPSO_GUARDED_BY(disk_mu_);
  TierStats tier_ IPSO_GUARDED_BY(disk_mu_);
};

}  // namespace ipso::store
