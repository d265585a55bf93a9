// FNV-1a, the one hash behind the system's checksums and digests: the
// support::wire frame trailer (SPTW, SPTS, the durable log), the trace
// container checksum, the oracle's architectural digest, plan
// fingerprints, module digests, interpreter memory hashes and trace-cache
// key salts.
//
// Every user but one folds bytes one at a time, a word's least significant
// byte first, so pinned digests keep their values. The helpers are inline
// because the oracle folds four words on every record it checks.
//
// The exception is the trace container (trace/trace_io.h), whose payload
// is hundreds of megabytes of 8-aligned 64-bit words checked on every open
// of a cached trace: a byte-wise fold there costs more than simulating the
// trace. It hashes by words across four independent lanes (WordLanes), so
// the multiplies of neighbouring words overlap instead of chaining.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/// The trace container's checksum: a stream of 64-bit words folded into
/// four lanes, word i into lane i % 4 by `h = (h ^ word) * kFnvPrime`, and
/// the lanes combined by xor-rotate. For a fixed word each step is a
/// bijection of its lane's state (the prime is odd), so a corruption
/// confined to one word changes that lane's final state and nothing else,
/// and therefore the digest: every single-bit flip is caught.
class WordLanes {
 public:
  static constexpr std::size_t kLanes = 4;

  /// Folds the `n` words at `data` (native byte order), continuing the
  /// stream. Every call but the last must fold a multiple of kLanes words,
  /// so that the next call starts again at lane 0.
  void fold(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        lanes_[k] = step(lanes_[k], load(p + 8 * (i + k)));
      }
    }
    // The tail, fewer than kLanes words, by constant lane indices so the
    // lanes can live in registers.
    const std::size_t rest = n - i;
    if (rest > 0) lanes_[0] = step(lanes_[0], load(p + 8 * i));
    if (rest > 1) lanes_[1] = step(lanes_[1], load(p + 8 * (i + 1)));
    if (rest > 2) lanes_[2] = step(lanes_[2], load(p + 8 * (i + 2)));
  }

  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (std::size_t k = 0; k < kLanes; ++k) {
      h ^= std::rotl(lanes_[k], static_cast<int>(16 * k));
    }
    return h;
  }

 private:
  static std::uint64_t step(std::uint64_t h, std::uint64_t word) {
    return (h ^ word) * kFnvPrime;
  }
  static std::uint64_t load(const unsigned char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  }

  // Lane k starts from the FNV-1a digest of the byte k, so equal lane
  // contents still leave distinct lane states.
  std::uint64_t lanes_[kLanes] = {
      fnv1aByte(kFnvOffsetBasis, 0), fnv1aByte(kFnvOffsetBasis, 1),
      fnv1aByte(kFnvOffsetBasis, 2), fnv1aByte(kFnvOffsetBasis, 3)};
};

}  // namespace spt::support
