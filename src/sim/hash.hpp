// FNV-1a 64, the one hash behind every artifact fingerprint and every
// Rng::derive label. It lives in sim/ because the lowest layer needs it
// (Rng::derive); everything above includes this header instead of
// keeping a copy.
#pragma once

#include <cstdint>
#include <string_view>

namespace steelnet::sim {

inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a 64 over arbitrary bytes.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = kFnv1a64Basis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Folds the 8 little-endian bytes of `v` into the running hash `h`.
constexpr void fnv1a64_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnv1a64Prime;
  }
}

}  // namespace steelnet::sim
