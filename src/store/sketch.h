#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

/// \file sketch.h
/// Compact access-frequency sketch for the tiered store's admission and
/// eviction decisions (the TinyLFU idea, as used by frequency-driven
/// buffer managers): a count-min sketch of saturating 8-bit counters with
/// periodic halving, so the estimate tracks *recent* popularity in O(1)
/// space regardless of how many distinct keys pass by.
///
/// Why a sketch instead of per-entry counters: admission must be able to
/// compare a key that is NOT resident (a newcomer, or a spilled entry)
/// against the resident victim — a one-shot scan of never-seen-again keys
/// then loses every comparison against the warm set and cannot flush it.
///
/// Deterministic (one FNV-1a pass, mixed with fixed per-row seeds) and
/// unsynchronized: the owner (TieredStore) serializes access under its
/// cache lock.

namespace ipso::store {

class FrequencySketch {
 public:
  /// `expected_keys` sizes the sketch (~8 counters per expected resident
  /// key, rounded up to a power of two; >= 64). The aging window is
  /// 8 x expected_keys increments.
  explicit FrequencySketch(std::size_t expected_keys);

  /// One pass over the key; every row's counter is derived from this
  /// hash, so a caller that keeps it (the store keeps one per entry)
  /// records and estimates in O(1) however long the key is.
  [[nodiscard]] static std::uint64_t hash(std::string_view key) noexcept;

  /// Records one access. Saturates at 255; after every `window` record()
  /// calls all counters are halved, so stale popularity decays.
  void record(std::uint64_t key_hash);
  void record(std::string_view key) { record(hash(key)); }

  /// Estimated recent access count (count-min: minimum over rows; an
  /// over-approximation only, never an undercount modulo aging).
  [[nodiscard]] std::uint32_t estimate(std::uint64_t key_hash) const;
  [[nodiscard]] std::uint32_t estimate(std::string_view key) const {
    return estimate(hash(key));
  }

  /// Total record() calls since construction (not reset by aging).
  [[nodiscard]] std::uint64_t additions() const noexcept {
    return additions_;
  }

 private:
  static constexpr std::size_t kRows = 4;

  [[nodiscard]] std::size_t slot(std::size_t row,
                                 std::uint64_t key_hash) const noexcept;
  void age();

  std::size_t width_;           ///< power of two, so mask_ = width_ - 1
  std::size_t mask_;
  std::uint64_t window_;        ///< record() calls between halvings
  std::uint64_t since_age_ = 0;
  std::uint64_t additions_ = 0;
  std::vector<std::uint8_t> counters_;  ///< kRows x width_, row-major
};

}  // namespace ipso::store
