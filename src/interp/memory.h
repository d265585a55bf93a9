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
#include <memory>

namespace spt::interp {

class Memory {
 public:
  /// Throws std::bad_alloc when the backing store cannot be allocated.
  explicit Memory(std::size_t size_bytes = 64u << 20);

  std::int64_t load64(std::uint64_t addr) const;
  void store64(std::uint64_t addr, std::int64_t value);

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

  void checkAccess(std::uint64_t addr) const;

  std::unique_ptr<std::uint8_t[], FreeDeleter> bytes_;
  std::size_t size_;
  std::uint64_t brk_ = 8;  // skip the null page slot
};

}  // namespace spt::interp
