#include "store/disk_tier.h"
#include "store/fit_codec.h"
#include "store/segment.h"
#include "store/sketch.h"
#include "store/tiered_store.h"

#include "serve/engine.h"
#include "trace/json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace ipso::store {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ipso_store_XXXXXX").string();
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

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void dump(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".seg") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Deterministic synthetic fits exercising awkward doubles (negative zero,
/// denormals, infinities) so bit-exactness is actually tested.
FactorFits make_fits(int seed) {
  FactorFits f;
  f.params.type = static_cast<WorkloadType>(seed % 3);
  f.params.eta = 0.5 + seed * 1e-3;
  f.params.alpha = seed == 0 ? -0.0 : 1.25 * seed;
  f.params.delta = std::numeric_limits<double>::denorm_min() * seed;
  f.params.beta = seed * 0.015625;  // exact in binary
  f.params.gamma = -seed * 0.33;
  f.epsilon_fit = {1.0 + seed, -0.5, 0.999, 1e-3 * seed};
  if (seed % 2 == 0) {
    f.q_fit = stats::PowerFit{0.01 * seed, 1.5, 0.9, 0.1};
  } else {
    f.q_fit = FitError::kNegligibleOverhead;
  }
  if (seed % 3 == 0) {
    f.in_linear = stats::LinearFit{1.05, 0.4, 0.98, 0.01, 0.02};
  } else {
    f.in_linear = FitError::kNotMeasured;
  }
  if (seed % 5 == 0) {
    f.in_segmented = stats::SegmentedFit{{1.0, 0.0, 1.0, 0.0, 0.0},
                                         {2.0, -8.0, 1.0, 0.0, 0.0},
                                         8.0,
                                         0.125};
    f.in_has_changepoint = true;
  } else {
    f.in_segmented = FitError::kNoChangepoint;
  }
  return f;
}

std::string key_of(int seed) {
  return "key-" + std::to_string(seed) + "-" + std::string(seed % 7, 'x');
}

// ---------------------------------------------------------------------------
// Segment format
// ---------------------------------------------------------------------------

TEST(Segment, RoundTripsRecordsInOrder) {
  std::string img = segment_header();
  for (int i = 0; i < 10; ++i) {
    img += encode_record(key_of(i), "value-" + std::to_string(i));
  }
  std::vector<std::string> keys;
  const ScanStats st = scan_segment(img, [&](const ScannedRecord& r) {
    keys.emplace_back(r.key);
    EXPECT_EQ(r.value, "value-" + std::to_string(keys.size() - 1));
  });
  EXPECT_EQ(st.recovered, 10u);
  EXPECT_EQ(st.skipped_total(), 0u);
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), key_of(0));
  EXPECT_EQ(keys.back(), key_of(9));
}

TEST(Segment, ScannedOffsetsSupportPointDecode) {
  std::string img = segment_header();
  img += encode_record("a", "alpha");
  img += encode_record("b", "beta");
  std::vector<ScannedRecord> recs;
  scan_segment(img, [&](const ScannedRecord& r) { recs.push_back(r); });
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& r : recs) {
    std::string_view key;
    std::string_view value;
    ASSERT_TRUE(decode_record_at(
        std::string_view(img).substr(r.offset, r.length), &key, &value));
  }
  // decode_record_at must reject trailing bytes (exact-length contract).
  std::string_view key;
  std::string_view value;
  EXPECT_FALSE(decode_record_at(
      std::string_view(img).substr(recs[0].offset, recs[0].length + 1), &key,
      &value));
}

TEST(Segment, TruncatedTailStopsScanWithCounter) {
  std::string img = segment_header();
  img += encode_record("a", "alpha");
  const std::string partial = encode_record("b", "beta");
  img += partial.substr(0, partial.size() / 2);  // crash mid-append
  const ScanStats st = scan_segment(img, [](const ScannedRecord&) {});
  EXPECT_EQ(st.recovered, 1u);
  EXPECT_EQ(st.truncated, 1u);
  EXPECT_EQ(st.skipped_checksum, 0u);
}

TEST(Segment, FlippedValueBitSkipsOneRecordAndContinues) {
  std::string img = segment_header();
  img += encode_record("a", "alpha");
  const std::size_t corrupt_at = img.size() + kRecordHeaderBytes + 1;
  img += encode_record("b", "beta");
  img += encode_record("c", "gamma");
  img[corrupt_at] = static_cast<char>(img[corrupt_at] ^ 0x40);
  std::vector<std::string> keys;
  const ScanStats st = scan_segment(
      img, [&](const ScannedRecord& r) { keys.emplace_back(r.key); });
  EXPECT_EQ(st.recovered, 2u);
  EXPECT_EQ(st.skipped_checksum, 1u);
  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c"}));
}

TEST(Segment, VersionMismatchSkipsWithDedicatedCounter) {
  std::string img = segment_header();
  img += encode_record("old", "bytes", kSegmentFormatVersion + 1);
  img += encode_record("new", "bytes");
  std::vector<std::string> keys;
  const ScanStats st = scan_segment(
      img, [&](const ScannedRecord& r) { keys.emplace_back(r.key); });
  EXPECT_EQ(st.recovered, 1u);
  EXPECT_EQ(st.skipped_version, 1u);
  EXPECT_EQ(st.skipped_checksum, 0u);
  EXPECT_EQ(keys, (std::vector<std::string>{"new"}));
}

TEST(Segment, BadHeaderCountsBadSegment) {
  std::string img = "NOTASEGM";
  img += encode_record("a", "alpha");
  const ScanStats st = scan_segment(img, [](const ScannedRecord&) {
    FAIL() << "no record should be delivered from a bad segment";
  });
  EXPECT_EQ(st.bad_segment, 1u);
  EXPECT_EQ(st.recovered, 0u);
}

// ---------------------------------------------------------------------------
// Fit codec
// ---------------------------------------------------------------------------

TEST(FitCodec, RoundTripIsBitExact) {
  for (int seed = 0; seed < 32; ++seed) {
    const FactorFits fits = make_fits(seed);
    const std::string bytes = encode_factor_fits(fits);
    const auto back = decode_factor_fits(bytes);
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    // Bit-exactness via the codec itself: identical bits => identical
    // encoding. (operator== on doubles would miss -0.0 vs 0.0 and NaN.)
    EXPECT_EQ(encode_factor_fits(*back), bytes) << "seed " << seed;
  }
}

TEST(FitCodec, RejectsWrongVersionTruncationAndTrailingBytes) {
  const std::string bytes = encode_factor_fits(make_fits(4));
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(kFitCodecVersion + 1);
  EXPECT_FALSE(decode_factor_fits(wrong_version).has_value());
  EXPECT_FALSE(
      decode_factor_fits(std::string_view(bytes).substr(0, bytes.size() - 1))
          .has_value());
  EXPECT_FALSE(decode_factor_fits(bytes + "x").has_value());
  EXPECT_FALSE(decode_factor_fits("").has_value());
}

TEST(FitCodec, RejectsOutOfRangeEnums) {
  std::string bytes = encode_factor_fits(make_fits(1));
  bytes[1] = 17;  // workload type byte
  EXPECT_FALSE(decode_factor_fits(bytes).has_value());
}

// ---------------------------------------------------------------------------
// Frequency sketch
// ---------------------------------------------------------------------------

TEST(FrequencySketch, HotKeysEstimateAboveColdKeys) {
  FrequencySketch sketch(64);
  for (int i = 0; i < 6; ++i) sketch.record("hot");
  sketch.record("lukewarm");
  EXPECT_GE(sketch.estimate("hot"), 6u);
  EXPECT_GT(sketch.estimate("hot"), sketch.estimate("never-seen"));
  EXPECT_GT(sketch.estimate("hot"), sketch.estimate("lukewarm"));
}

TEST(FrequencySketch, AgingDecaysStalePopularity) {
  FrequencySketch sketch(8);  // window = 64 additions
  for (int i = 0; i < 20; ++i) sketch.record("stale");
  const std::uint32_t peak = sketch.estimate("stale");
  for (int i = 0; i < 500; ++i) sketch.record("filler-" + std::to_string(i));
  EXPECT_LT(sketch.estimate("stale"), peak);
}

TEST(FrequencySketch, SaturatesInsteadOfWrapping) {
  FrequencySketch sketch(1024);  // window large enough to avoid aging here
  for (int i = 0; i < 300; ++i) sketch.record("pegged");
  EXPECT_LE(sketch.estimate("pegged"), 255u);
  EXPECT_GT(sketch.estimate("pegged"), 200u);
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

TEST(DiskTier, PutGetRoundTripAndDedup) {
  TempDir dir;
  DiskTier tier(DiskTierConfig{dir.str()});
  ASSERT_TRUE(tier.open());
  ASSERT_TRUE(tier.put("k1", "v1"));
  ASSERT_TRUE(tier.put("k2", "v2"));
  ASSERT_TRUE(tier.put("k1", "v1"));  // dedup
  EXPECT_EQ(tier.stats().appended, 2u);
  EXPECT_EQ(tier.stats().duplicates, 1u);
  const auto v1 = tier.get("k1");
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, "v1");
  EXPECT_FALSE(tier.get("absent").has_value());
}

TEST(DiskTier, SurvivesReopenWithRecoveryCounters) {
  TempDir dir;
  {
    DiskTier tier(DiskTierConfig{dir.str()});
    ASSERT_TRUE(tier.open());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(tier.put(key_of(i), "value-" + std::to_string(i)));
    }
    ASSERT_TRUE(tier.flush());
  }
  DiskTier reopened(DiskTierConfig{dir.str()});
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.stats().recovered, 20u);
  EXPECT_EQ(reopened.stats().skipped_total(), 0u);
  for (int i = 0; i < 20; ++i) {
    const auto v = reopened.get(key_of(i));
    ASSERT_TRUE(v.has_value()) << key_of(i);
    EXPECT_EQ(*v, "value-" + std::to_string(i));
  }
}

TEST(DiskTier, RotatesSegmentsPastSizeLimit) {
  TempDir dir;
  DiskTier tier(DiskTierConfig{dir.str(), /*max_segment_bytes=*/256});
  ASSERT_TRUE(tier.open());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tier.put(key_of(i), std::string(40, 'v')));
  }
  EXPECT_GT(tier.stats().segments, 1u);
  EXPECT_GT(segment_files(dir.path).size(), 1u);
  // Every record stays reachable across the rotation boundary.
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(tier.get(key_of(i)).has_value()) << key_of(i);
  }
  // And across a reopen of the multi-segment directory.
  DiskTier reopened(DiskTierConfig{dir.str(), 256});
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.stats().recovered, 30u);
}

TEST(DiskTier, TruncatedTailIsSkippedAndSealedOnReopen) {
  TempDir dir;
  {
    DiskTier tier(DiskTierConfig{dir.str()});
    ASSERT_TRUE(tier.open());
    ASSERT_TRUE(tier.put("intact", "value"));
    ASSERT_TRUE(tier.flush());
  }
  // Simulate a crash mid-append: a partial record at the tail.
  const auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  const std::string partial = encode_record("lost", "to-the-crash");
  dump(segs[0], slurp(segs[0]) + partial.substr(0, partial.size() - 7));

  DiskTier reopened(DiskTierConfig{dir.str()});
  ASSERT_TRUE(reopened.open());  // never an error, always a counter
  EXPECT_EQ(reopened.stats().recovered, 1u);
  EXPECT_EQ(reopened.stats().truncated, 1u);
  EXPECT_TRUE(reopened.get("intact").has_value());
  EXPECT_FALSE(reopened.get("lost").has_value());
  // The dirty segment is sealed; appends land in a fresh one so the new
  // records are never shadowed by the unreachable tail.
  EXPECT_EQ(reopened.stats().segments, 2u);
  ASSERT_TRUE(reopened.put("after-crash", "ok"));
  ASSERT_TRUE(reopened.flush());
  DiskTier third(DiskTierConfig{dir.str()});
  ASSERT_TRUE(third.open());
  EXPECT_TRUE(third.get("after-crash").has_value());
  EXPECT_TRUE(third.get("intact").has_value());
}

TEST(DiskTier, FlippedBitIsCountedNeverACrash) {
  TempDir dir;
  {
    DiskTier tier(DiskTierConfig{dir.str()});
    ASSERT_TRUE(tier.open());
    ASSERT_TRUE(tier.put("a", "alpha"));
    ASSERT_TRUE(tier.put("b", "beta"));
    ASSERT_TRUE(tier.put("c", "gamma"));
    ASSERT_TRUE(tier.flush());
  }
  const auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  std::string img = slurp(segs[0]);
  // Corrupt one payload byte of the middle record ("b" -> value "beta").
  const std::size_t rec1 = kSegmentHeaderBytes + kRecordHeaderBytes + 1 + 5;
  const std::size_t corrupt_at = rec1 + kRecordHeaderBytes + 1 + 2;
  img[corrupt_at] = static_cast<char>(img[corrupt_at] ^ 0x01);
  dump(segs[0], img);

  DiskTier reopened(DiskTierConfig{dir.str()});
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.stats().skipped_checksum, 1u);
  EXPECT_EQ(reopened.stats().recovered, 2u);
  EXPECT_TRUE(reopened.get("a").has_value());
  EXPECT_FALSE(reopened.get("b").has_value());
  EXPECT_TRUE(reopened.get("c").has_value());
}

TEST(DiskTier, ListedButMissingSegmentIsACrashArtifactNotAnError) {
  TempDir dir;
  {
    DiskTier tier(DiskTierConfig{dir.str()});
    ASSERT_TRUE(tier.open());
    ASSERT_TRUE(tier.put("k", "v"));
    ASSERT_TRUE(tier.flush());
  }
  // Manifest-then-file ordering means a crash can leave the *next* segment
  // listed but absent; emulate by listing a phantom segment.
  const fs::path manifest = dir.path / "MANIFEST";
  dump(manifest, slurp(manifest) + "segment seg-000099.seg\n");
  DiskTier reopened(DiskTierConfig{dir.str()});
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.stats().recovered, 1u);
  EXPECT_TRUE(reopened.get("k").has_value());
  ASSERT_TRUE(reopened.put("k2", "v2"));
  EXPECT_TRUE(reopened.get("k2").has_value());
}

// ---------------------------------------------------------------------------
// Tiered store
// ---------------------------------------------------------------------------

FitOutcome outcome_for(int seed) { return FitOutcome{make_fits(seed)}; }

TEST(TieredStore, DramOnlyModeNeverTouchesDisk) {
  TieredStoreConfig cfg;
  cfg.cache_capacity = 2;
  TieredStore tiered(cfg);
  ASSERT_TRUE(tiered.open());
  int computes = 0;
  auto r1 = tiered.get_or_compute("k", [&] {
    ++computes;
    return outcome_for(1);
  });
  auto r2 = tiered.get_or_compute("k", [&] {
    ++computes;
    return outcome_for(1);
  });
  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(r1.hit);
  EXPECT_TRUE(r2.hit);
  EXPECT_FALSE(r2.disk_hit);
  EXPECT_FALSE(tiered.stats().persistent);
  EXPECT_EQ(tiered.fits_performed(), 1u);
}

TEST(TieredStore, SpillsFrequentEvictionsAndPromotesThemBack) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 2;
  cfg.store_dir = dir.str();
  TieredStore tiered(cfg);
  ASSERT_TRUE(tiered.open());

  int computes = 0;
  auto compute = [&](int seed) {
    return [&computes, seed] {
      ++computes;
      return outcome_for(seed);
    };
  };
  // Make "hot-1" and "hot-2" frequent (two touches each). A one-shot cold
  // key must NOT displace them (scan resistance) ...
  for (int round = 0; round < 2; ++round) {
    (void)tiered.get_or_compute("hot-1", compute(1));
    (void)tiered.get_or_compute("hot-2", compute(2));
  }
  (void)tiered.get_or_compute("cold", compute(3));
  EXPECT_EQ(tiered.stats().tier.spilled, 0u)
      << "a one-shot scan key is rejected before it evicts the warm set";
  EXPECT_TRUE(tiered.get_or_compute("hot-1", compute(1)).hit)
      << "the warm set survives the scan";

  // ... but a newcomer whose frequency catches up IS admitted, evicting
  // the LRU hot entry, which — being frequent — spills to disk.
  for (int round = 0; round < 3; ++round) {
    (void)tiered.get_or_compute("riser", compute(6));
  }
  const auto spilled = tiered.stats();
  EXPECT_GE(spilled.tier.spilled, 1u) << "hot evictions must persist";

  // The spilled key ("hot-2", the LRU victim) promotes back from disk:
  // bit-identical and not recomputed.
  tiered.clear_memory();
  const int computes_before = computes;
  auto promoted = tiered.get_or_compute("hot-2", compute(2));
  EXPECT_EQ(computes, computes_before) << "promote must not re-fit";
  EXPECT_TRUE(promoted.disk_hit);
  ASSERT_TRUE(promoted.outcome->fits.has_value());
  EXPECT_EQ(encode_factor_fits(*promoted.outcome->fits),
            encode_factor_fits(make_fits(2)));
  EXPECT_GE(tiered.stats().tier.disk_hits, 1u);
}

TEST(TieredStore, FlushThenRestartServesWithoutRefit) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 8;
  cfg.store_dir = dir.str();
  {
    TieredStore tiered(cfg);
    ASSERT_TRUE(tiered.open());
    for (int i = 0; i < 5; ++i) {
      (void)tiered.get_or_compute(key_of(i), [i] { return outcome_for(i); });
    }
    tiered.flush();
  }
  TieredStore restarted(cfg);
  ASSERT_TRUE(restarted.open());
  EXPECT_EQ(restarted.stats().disk.records, 5u);
  for (int i = 0; i < 5; ++i) {
    auto r = restarted.get_or_compute(key_of(i), [i]() -> FitOutcome {
      ADD_FAILURE() << "warm restart must not re-fit " << key_of(i);
      return outcome_for(i);
    });
    EXPECT_TRUE(r.disk_hit);
    ASSERT_TRUE(r.outcome->fits.has_value());
    EXPECT_EQ(encode_factor_fits(*r.outcome->fits),
              encode_factor_fits(make_fits(i)));
  }
  EXPECT_EQ(restarted.fits_performed(), 0u);
}

TEST(TieredStore, ErrorOutcomesAreNotPersisted) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 4;
  cfg.store_dir = dir.str();
  {
    TieredStore tiered(cfg);
    ASSERT_TRUE(tiered.open());
    (void)tiered.get_or_compute("failed", [] {
      return FitOutcome{FitError::kFitFailed};
    });
    tiered.flush();
    EXPECT_EQ(tiered.stats().disk.records, 0u);
  }
  TieredStore restarted(cfg);
  ASSERT_TRUE(restarted.open());
  int computes = 0;
  (void)restarted.get_or_compute("failed", [&] {
    ++computes;
    return FitOutcome{FitError::kFitFailed};
  });
  EXPECT_EQ(computes, 1) << "errors are recomputed, never served from disk";
}

TEST(TieredStore, ConcurrentMixedWorkloadKeepsCountersConserved) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 4;
  cfg.store_dir = dir.str();
  TieredStore tiered(cfg);
  ASSERT_TRUE(tiered.open());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  constexpr int kKeys = 32;
  std::atomic<int> computes{0};
  std::atomic<int> bad_outcomes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int seed = (t * 31 + i * 7) % kKeys;
        auto r = tiered.get_or_compute(key_of(seed), [&computes, seed] {
          computes.fetch_add(1, std::memory_order_relaxed);
          return outcome_for(seed);
        });
        if (!r.outcome || !r.outcome->fits.has_value() ||
            encode_factor_fits(*r.outcome->fits) !=
                encode_factor_fits(make_fits(seed))) {
          bad_outcomes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_outcomes.load(), 0);
  const auto st = tiered.stats();
  // Every lookup lands in exactly one bucket.
  EXPECT_EQ(st.cache.hits + st.cache.misses + st.cache.coalesced,
            static_cast<std::size_t>(kThreads) * kOpsPerThread);
  // A disk hit is a miss that did not compute; everything else did.
  EXPECT_EQ(st.cache.misses,
            static_cast<std::size_t>(computes.load()) + st.tier.disk_hits);
  EXPECT_EQ(tiered.fits_performed(),
            static_cast<std::size_t>(computes.load()));
  // Every eviction is handed to the disk tier exactly once (the destructor's
  // flush has not run yet, so spilled counts evictions only).
  EXPECT_EQ(st.cache.evictions,
            st.tier.spilled + st.tier.spill_rejected + st.tier.spill_errors);
}

TEST(TieredStore, CapacityEvictionSpillsWarmKeysButClearMemoryDoesNot) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 2;
  cfg.store_dir = dir.str();
  TieredStore tiered(cfg);
  ASSERT_TRUE(tiered.open());
  // Two touches each make keys 0..2 warm; the second touch of key 2 ties
  // the LRU victim's frequency, so key 2 is admitted and key 0 leaves DRAM
  // by capacity pressure.
  for (int i = 0; i < 3; ++i) {
    for (int touch = 0; touch < 2; ++touch) {
      (void)tiered.get_or_compute(key_of(i), [i] { return outcome_for(i); });
    }
  }
  const auto evicted = tiered.stats();
  EXPECT_EQ(evicted.cache.evictions, 2u);
  EXPECT_EQ(evicted.tier.spill_rejected, 1u)
      << "key 2's first publish lost admission as a one-touch newcomer";
  EXPECT_EQ(evicted.tier.spilled, 1u) << "the warm victim key 0 spills";
  EXPECT_EQ(evicted.disk.appended, 1u);

  tiered.clear_memory();
  const auto cleared = tiered.stats();
  EXPECT_EQ(cleared.cache.size, 0u);
  EXPECT_EQ(cleared.cache.evictions, 2u) << "clearing is not eviction";
  EXPECT_EQ(cleared.tier.spilled, 1u) << "clear_memory() must not spill";
  EXPECT_EQ(cleared.disk.appended, 1u);
  EXPECT_TRUE(tiered
                  .get_or_compute(key_of(0), [] { return outcome_for(0); })
                  .disk_hit)
      << "the spilled key promotes back from disk";
}

TEST(TieredStore, OneShotNewcomerIsNotAdmittedOverWarmSet) {
  TempDir dir;
  TieredStoreConfig cfg;
  cfg.cache_capacity = 2;
  cfg.store_dir = dir.str();
  TieredStore tiered(cfg);
  ASSERT_TRUE(tiered.open());
  for (int touch = 0; touch < 2; ++touch) {
    (void)tiered.get_or_compute("warm-a", [] { return outcome_for(1); });
    (void)tiered.get_or_compute("warm-b", [] { return outcome_for(2); });
  }
  auto scan = tiered.get_or_compute("scan", [] { return outcome_for(3); });
  ASSERT_TRUE(scan.outcome->fits.has_value())
      << "the caller still gets its outcome even when not admitted";
  const auto st = tiered.stats();
  EXPECT_EQ(st.cache.evictions, 1u) << "the newcomer itself is demoted";
  EXPECT_EQ(st.tier.spill_rejected, 1u) << "a one-touch key never spills";
  EXPECT_EQ(st.tier.spilled, 0u);
  EXPECT_TRUE(tiered.get_or_compute("warm-a", [] {
                     return outcome_for(1);
                   }).hit);
  EXPECT_TRUE(tiered.get_or_compute("warm-b", [] {
                     return outcome_for(2);
                   }).hit);
}

// ---------------------------------------------------------------------------
// Engine-level warm restart: the byte-identical contract
// ---------------------------------------------------------------------------

std::string engine_fit_request(int seed) {
  const double t1 = 100.0 + seed;
  std::ostringstream os;
  os << "{\"op\":\"fit\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  bool first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (t1 / n + 0.5) << "]";
  }
  os << "],\"in\":[";
  first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (0.4 + 1.05 * n) << "]";
  }
  os << "]}";
  return os.str();
}

/// A fit request over `points` observations per series whose IN line has a
/// changepoint at n/2: at 4,096 points its store record is 64-131 KiB, the
/// size `bench_serve_load` persists in its warm-restart phase.
std::string engine_knee_fit_request(int seed, int points) {
  const double t1 = 100.0 + seed;
  const double knee = 1.0 + points / 2.0;
  std::ostringstream os;
  os << "{\"op\":\"fit\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  for (int i = 0; i < points; ++i) {
    const double n = 1.0 + i;
    os << (i ? ",[" : "[") << n << "," << trace::json_double(t1 / n + 0.5)
       << "]";
  }
  os << "],\"in\":[";
  for (int i = 0; i < points; ++i) {
    const double n = 1.0 + i;
    const double in =
        n <= knee ? 0.4 + 0.6 * n : 0.4 + 0.6 * knee + 2.5 * (n - knee);
    os << (i ? ",[" : "[") << n << "," << trace::json_double(in) << "]";
  }
  os << "]}";
  return os.str();
}

TEST(EngineWarmRestart, RestartedEngineServesByteIdenticalWithoutRefit) {
  TempDir dir;
  serve::ServeConfig cfg;
  cfg.threads = 2;
  cfg.cache_capacity = 16;
  cfg.store_dir = dir.str();

  std::vector<std::string> corpus;
  for (int i = 0; i < 6; ++i) corpus.push_back(engine_fit_request(i));
  corpus.push_back(engine_knee_fit_request(6, 4096));

  std::vector<std::string> first_responses;
  {
    serve::ServeEngine engine(cfg);
    ASSERT_TRUE(engine.store_status());
    for (const std::string& req : corpus) {
      first_responses.push_back(engine.handle(req));
      ASSERT_NE(first_responses.back().find("\"ok\":true"),
                std::string::npos);
    }
    EXPECT_EQ(engine.fits_performed(), corpus.size());
    engine.drain();  // the SIGTERM path: flushes the store
  }

  serve::ServeEngine restarted(cfg);
  ASSERT_TRUE(restarted.store_status());
  EXPECT_EQ(restarted.store_stats().disk.records, corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(restarted.handle(corpus[i]), first_responses[i])
        << "warm response " << i << " must be byte-identical";
  }
  EXPECT_EQ(restarted.fits_performed(), 0u)
      << "warm restart must serve persisted fits without re-fitting";
  EXPECT_EQ(restarted.store_stats().tier.disk_hits, corpus.size());
}

TEST(EngineWarmRestart, CorruptedStoreIsSkippedWithCounterNeverACrash) {
  TempDir dir;
  serve::ServeConfig cfg;
  cfg.threads = 2;
  cfg.cache_capacity = 16;
  cfg.store_dir = dir.str();
  std::vector<std::string> before;
  {
    serve::ServeEngine engine(cfg);
    for (int i = 0; i < 4; ++i) {
      before.push_back(engine.handle(engine_fit_request(i)));
      ASSERT_NE(before.back().find("\"ok\":true"), std::string::npos);
    }
  }
  // Flip one payload byte in the first persisted record.
  const auto segs = segment_files(dir.path);
  ASSERT_FALSE(segs.empty());
  std::string img = slurp(segs[0]);
  ASSERT_GT(img.size(), kSegmentHeaderBytes + kRecordHeaderBytes + 64);
  const std::size_t corrupt_at = kSegmentHeaderBytes + kRecordHeaderBytes + 40;
  img[corrupt_at] = static_cast<char>(img[corrupt_at] ^ 0x10);
  dump(segs[0], img);

  serve::ServeEngine restarted(cfg);
  ASSERT_TRUE(restarted.store_status());
  EXPECT_GE(restarted.store_stats().disk.skipped_total(), 1u);
  // Every request is still answered with the pre-corruption bytes; the
  // corrupted one just re-fits.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restarted.handle(engine_fit_request(i)), before[i])
        << "response " << i << " after the corrupt restart";
  }
  EXPECT_GE(restarted.fits_performed(), 1u);
  EXPECT_LT(restarted.fits_performed(), 4u);
}

}  // namespace
}  // namespace ipso::store
