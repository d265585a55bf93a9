#include "interp/memory.h"

#include <cstring>
#include <new>

#include "support/check.h"

namespace spt::interp {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over a zero byte is `h *= kFnvPrime`, so a zero 8-byte word is one
// multiply by kFnvPrime^8 (mod 2^64).
constexpr std::uint64_t kFnvPrimePow8 = [] {
  std::uint64_t p = 1;
  for (int i = 0; i < 8; ++i) p *= kFnvPrime;
  return p;
}();

}  // namespace

Memory::Memory(std::size_t size_bytes)
    : bytes_(static_cast<std::uint8_t*>(std::calloc(size_bytes, 1))),
      size_(size_bytes) {
  if (bytes_ == nullptr) throw std::bad_alloc();
}

void Memory::checkAccess(std::uint64_t addr) const {
  SPT_CHECK_MSG(addr != 0, "null pointer dereference");
  SPT_CHECK_MSG(addr % 8 == 0, "unaligned 64-bit access");
  SPT_CHECK_MSG(addr < size_ && size_ - addr >= 8,
                "memory access out of bounds");
}

std::int64_t Memory::load64(std::uint64_t addr) const {
  checkAccess(addr);
  std::int64_t v;
  std::memcpy(&v, bytes_.get() + addr, 8);
  return v;
}

void Memory::store64(std::uint64_t addr, std::int64_t value) {
  checkAccess(addr);
  std::memcpy(bytes_.get() + addr, &value, 8);
}

std::uint64_t Memory::alloc(std::uint64_t bytes) {
  SPT_CHECK_MSG(bytes <= size_ - brk_, "interpreter heap overflow");
  const std::uint64_t rounded = (bytes + 7) & ~7ull;
  SPT_CHECK_MSG(rounded <= size_ - brk_, "interpreter heap overflow");
  const std::uint64_t base = brk_;
  brk_ += rounded;
  return base;
}

std::uint64_t Memory::hash() const {
  // brk_ starts at 8 and grows in multiples of 8, so [0, brk_) is whole
  // words.
  const std::uint8_t* bytes = bytes_.get();
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t i = 0; i < brk_ && i + 8 <= size_; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    if (word == 0) {
      h *= kFnvPrimePow8;
      continue;
    }
    for (std::uint64_t k = i; k < i + 8; ++k) {
      h ^= bytes[k];
      h *= kFnvPrime;
    }
  }
  return h;
}

}  // namespace spt::interp
