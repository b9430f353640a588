// FNV-1a over 64-bit words: the one fold behind the repo's checksums
// (delivery traces, pacer-config tables, the journal chain, goldens).
#pragma once

#include <cstdint>

namespace silo {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// The standard 64-bit offset basis (the delivery trace's seed).
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
/// The standard basis missing its last digit. The pacer-config, journal,
/// bench and test goldens were recorded with it, so it stays.
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ull;

/// FNV-1a over the 8 little-endian bytes of `v`.
inline constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * kFnvPrime;
  return h;
}

}  // namespace silo
