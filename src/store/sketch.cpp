#include "store/sketch.h"

#include <algorithm>

namespace ipso::store {

namespace {

/// SplitMix64's finalizer: spreads a row seed mixed into the key hash
/// over all 64 bits, so each sketch row indexes independently.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Fixed per-row seeds (arbitrary odd constants, stable across runs).
constexpr std::uint64_t kRowSeeds[] = {
    0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
    0x94d049bb133111ebull, 0x2545f4914f6cdd1dull};

std::size_t next_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

FrequencySketch::FrequencySketch(std::size_t expected_keys)
    : width_(next_pow2(std::max<std::size_t>(64, expected_keys * 8))),
      mask_(width_ - 1),
      window_(8 * std::max<std::size_t>(8, expected_keys)),
      counters_(kRows * width_, 0) {}

std::uint64_t FrequencySketch::hash(std::string_view key) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t FrequencySketch::slot(std::size_t row,
                                  std::uint64_t key_hash) const noexcept {
  return row * width_ + (mix(key_hash ^ kRowSeeds[row]) & mask_);
}

void FrequencySketch::record(std::uint64_t key_hash) {
  for (std::size_t r = 0; r < kRows; ++r) {
    std::uint8_t& c = counters_[slot(r, key_hash)];
    if (c < 255) ++c;
  }
  ++additions_;
  if (++since_age_ >= window_) age();
}

std::uint32_t FrequencySketch::estimate(std::uint64_t key_hash) const {
  std::uint32_t est = 255;
  for (std::size_t r = 0; r < kRows; ++r) {
    est = std::min<std::uint32_t>(est, counters_[slot(r, key_hash)]);
  }
  return est;
}

void FrequencySketch::age() {
  for (std::uint8_t& c : counters_) c = static_cast<std::uint8_t>(c >> 1);
  since_age_ = 0;
}

}  // namespace ipso::store
