#include "store/line_digest.h"

#include <bit>
#include <cstring>
#include <random>

namespace ipso::store {

namespace {

std::uint64_t load_le64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() noexcept {
    v0 += v1;
    v1 = std::rotl(v1, 13);
    v1 ^= v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = std::rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = std::rotl(v1, 17);
    v1 ^= v2;
    v2 = std::rotl(v2, 32);
  }

  void absorb(std::uint64_t m) noexcept {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  std::uint64_t squeeze() noexcept {
    for (int i = 0; i < 4; ++i) round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

}  // namespace

LineDigest siphash24_128(std::string_view data, std::uint64_t k0,
                         std::uint64_t k1) noexcept {
  SipState s{k0 ^ 0x736f6d6570736575ull, k1 ^ 0x646f72616e646f6dull,
             k0 ^ 0x6c7967656e657261ull, k1 ^ 0x7465646279746573ull};
  s.v1 ^= 0xee;  // 128-bit output variant
  const std::size_t full = data.size() & ~std::size_t{7};
  for (std::size_t i = 0; i < full; i += 8) s.absorb(load_le64(data.data() + i));
  std::uint64_t last = static_cast<std::uint64_t>(data.size()) << 56;
  for (std::size_t i = full; i < data.size(); ++i) {
    last |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
            << (8 * (i - full));
  }
  s.absorb(last);
  s.v2 ^= 0xee;
  LineDigest d;
  d.lo = s.squeeze();
  s.v1 ^= 0xdd;
  d.hi = s.squeeze();
  return d;
}

LineDigest digest_line(std::string_view line) {
  static const auto key = [] {
    std::random_device rd;
    const auto word = [&rd] {
      return (static_cast<std::uint64_t>(rd()) << 32) | rd();
    };
    const std::uint64_t k0 = word();
    return std::pair<std::uint64_t, std::uint64_t>{k0, word()};
  }();
  return siphash24_128(line, key.first, key.second);
}

}  // namespace ipso::store
