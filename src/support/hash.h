// FNV-1a, the one hash behind the system's checksums and digests: the
// support::wire frame trailer (SPTW, SPTS, the durable log), the trace
// container checksum, the oracle's architectural digest, plan
// fingerprints, module digests, interpreter memory hashes and trace-cache
// key salts.
//
// Every user folds bytes one at a time, a word's least significant byte
// first, so pinned digests keep their values. The helpers are inline
// because the oracle folds four words on every record it checks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spt::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds one byte into `h`.
constexpr std::uint64_t fnv1aByte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

/// Folds the eight bytes of `v` into `h`, least significant first.
constexpr std::uint64_t fnv1aWord(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1aByte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return h;
}

/// Folds the `n` bytes at `data` into `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = fnv1aByte(h, p[i]);
  return h;
}

}  // namespace spt::support
