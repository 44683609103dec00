#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file line_digest.h
/// The 128-bit keyed digest that indexes memoised responses by the raw
/// bytes of their request line (TieredStore::find_answer). SipHash-2-4
/// with 128-bit output (Aumasson and Bernstein, "SipHash: a fast
/// short-input PRF", 2012) under a key drawn once per process: a client
/// that does not know the key cannot construct two lines with one digest,
/// so no client can plant an answer for another's line. The digest never
/// leaves the process.

namespace ipso::store {

struct LineDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const LineDigest&, const LineDigest&) = default;
};

/// Hash-table hash of a digest: its low word, already uniform under the
/// secret key.
struct LineDigestHash {
  std::size_t operator()(const LineDigest& d) const noexcept {
    return static_cast<std::size_t>(d.lo);
  }
};

/// SipHash-2-4-128 of `data` under the key (k0, k1); `lo` holds output
/// bytes 0-7 and `hi` bytes 8-15, each little-endian.
[[nodiscard]] LineDigest siphash24_128(std::string_view data, std::uint64_t k0,
                                       std::uint64_t k1) noexcept;

/// SipHash-2-4-128 of a request line under this process's key, drawn from
/// std::random_device on first use.
[[nodiscard]] LineDigest digest_line(std::string_view line);

}  // namespace ipso::store
