// Flat program memory with a bump allocator.
//
// The IR addresses a single flat byte address space. All accesses are
// 8-byte, 8-aligned (the IR has only 64-bit loads/stores). Address 0 is
// reserved as the null pointer.
//
// The backing store comes from calloc: a block this large is served from a
// fresh anonymous mapping, so only the pages a program touches are ever
// faulted in and zeroed by the kernel.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "support/check.h"

namespace spt::interp {

class Memory {
 public:
  /// Throws std::bad_alloc when the backing store cannot be allocated.
  explicit Memory(std::size_t size_bytes = 64u << 20);

  std::int64_t load64(std::uint64_t addr) const {
    checkAccess(addr);
    std::int64_t v;
    std::memcpy(&v, bytes_.get() + addr, 8);
    return v;
  }
  void store64(std::uint64_t addr, std::int64_t value) {
    checkAccess(addr);
    std::memcpy(bytes_.get() + addr, &value, 8);
  }

  /// Bump-allocates `bytes` (rounded up to 8), zero-initialized.
  /// Returns the 8-aligned base address (never 0).
  std::uint64_t alloc(std::uint64_t bytes);

  std::uint64_t brk() const { return brk_; }
  std::size_t size() const { return size_; }

  /// FNV-1a hash of the allocated region — used by tests to prove the SPT
  /// transformation preserved sequential semantics.
  std::uint64_t hash() const;

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  /// Inline: the interpreter checks every load and store.
  void checkAccess(std::uint64_t addr) const {
    SPT_CHECK_MSG(addr != 0, "null pointer dereference");
    SPT_CHECK_MSG(addr % 8 == 0, "unaligned 64-bit access");
    SPT_CHECK_MSG(addr < size_ && size_ - addr >= 8,
                  "memory access out of bounds");
  }

  std::unique_ptr<std::uint8_t[], FreeDeleter> bytes_;
  std::size_t size_;
  std::uint64_t brk_ = 8;  // skip the null page slot
};

}  // namespace spt::interp
