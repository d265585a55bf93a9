// Flat open-addressing containers for the simulator hot path.
//
// Every per-record structure the machines consult — pipeline register
// scoreboards, the reconstructed memory image, the speculative thread's
// register overlay, SSB/LAB — used to be a node-based std::unordered_map.
// At multi-million-record traces the malloc/rehash/pointer-chase traffic of
// those maps dominated host time (see docs/PERF.md), so the hot path uses
// three purpose-built containers instead:
//
//  * FlatMap64<V>   — linear-probing hash map with u64 keys, grow-only,
//                     plus a predicate purge that rebuilds in place
//                     (pipeline scoreboards drop entries that are already
//                     available; the memory image just grows).
//  * EpochMap64<V>  — FlatMap64 whose clear() is O(1): slots carry a
//                     generation stamp and clearing bumps the generation.
//                     Backs the SSB/LAB and per-replay dirty-address sets,
//                     which are rebuilt from scratch at every fork/replay.
//  * FrameRegMap<V> — (frame, register) -> V as dense per-frame arrays,
//                     also generation-stamped so a fork/kill reset is O(1).
//                     Backs the speculative register overlay and the
//                     replay dirty-register set. A one-entry frame cache
//                     makes the common consecutive-same-frame access an
//                     array index.
//
// None of these change any simulated number: they are drop-in value-map
// replacements (no iteration-order-dependent results anywhere — asserted
// by the golden digest tests).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spt::sim {

/// Multiplicative (Fibonacci) hashing; `shift` = 64 - log2(capacity).
inline std::size_t flatHashSlot(std::uint64_t key, unsigned shift) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

inline std::size_t flatPow2AtLeast(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Linear-probing hash map with std::uint64_t keys. Grow-only (no erase);
/// `purge` rebuilds the table keeping only entries that satisfy a
/// predicate. Key 0 is valid (dedicated slot).
template <typename V>
class FlatMap64 {
 public:
  explicit FlatMap64(std::size_t min_capacity = 16) {
    rebuild(flatPow2AtLeast(min_capacity));
  }

  std::size_t size() const { return size_; }

  V* find(std::uint64_t key) {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    std::size_t i = flatHashSlot(key, shift_);
    while (slots_[i].key != 0) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Returns a reference to the value for `key`, default-constructing it
  /// on first insertion (std::unordered_map::operator[] semantics).
  V& operator[](std::uint64_t key) {
    if (key == 0) {
      if (!has_zero_) {
        has_zero_ = true;
        zero_value_ = V{};
        ++size_;
      }
      return zero_value_;
    }
    std::size_t i = flatHashSlot(key, shift_);
    while (slots_[i].key != 0) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    if (needsGrow()) {
      grow();
      return (*this)[key];
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  /// Visits every live (key, value) pair. Iteration order is the table's
  /// slot order — callers that need order-independent results (the oracle's
  /// state diff) must combine commutatively or look keys up on the other
  /// side.
  template <typename Fn>
  void forEach(Fn fn) const {
    if (has_zero_) fn(std::uint64_t{0}, zero_value_);
    for (const Slot& s : slots_) {
      if (s.key != 0) fn(s.key, s.value);
    }
  }

  /// Drops every entry whose value fails `keep`, rebuilding the table.
  /// Lossless only if absent and dropped entries are indistinguishable to
  /// the caller (true for scoreboard entries that are already available).
  template <typename Keep>
  void purge(Keep keep) {
    std::vector<Slot> old = std::move(slots_);
    const bool old_has_zero = has_zero_;
    const V old_zero = zero_value_;
    rebuild(slots_capacity_);  // same capacity; live set is about to shrink
    for (const Slot& s : old) {
      if (s.key != 0 && keep(s.value)) (*this)[s.key] = s.value;
    }
    if (old_has_zero && keep(old_zero)) (*this)[0] = old_zero;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };

  bool needsGrow() const { return (size_ + 1) * 4 > slots_capacity_ * 3; }

  void rebuild(std::size_t capacity) {
    slots_capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    slots_.assign(capacity, Slot{});
    size_ = 0;
    has_zero_ = false;
    zero_value_ = V{};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const bool old_has_zero = has_zero_;
    const V old_zero = zero_value_;
    rebuild(slots_capacity_ * 2);
    for (const Slot& s : old) {
      if (s.key != 0) (*this)[s.key] = s.value;
    }
    if (old_has_zero) (*this)[0] = old_zero;
  }

  std::vector<Slot> slots_;
  std::size_t slots_capacity_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  bool has_zero_ = false;
  V zero_value_{};
};

/// FlatMap64 variant whose clear() is O(1): every slot carries the
/// generation it was written in, and clearing bumps the generation. Used
/// for structures that are torn down and rebuilt at every fork / replay.
template <typename V>
class EpochMap64 {
 public:
  explicit EpochMap64(std::size_t min_capacity = 16) {
    rebuild(flatPow2AtLeast(min_capacity));
  }

  /// Ensures capacity for `entries` live keys without rehashing mid-use.
  void reserveFor(std::size_t entries) {
    const std::size_t wanted = flatPow2AtLeast(entries * 2);
    if (wanted > slots_capacity_) rebuild(wanted);
  }

  void clear() {
    ++epoch_;
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  V* find(std::uint64_t key) {
    if (key == 0) {
      return zero_epoch_ == epoch_ ? &zero_value_ : nullptr;
    }
    std::size_t i = flatHashSlot(key, shift_);
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<EpochMap64*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  V& operator[](std::uint64_t key) {
    if (key == 0) {
      if (zero_epoch_ != epoch_) {
        zero_epoch_ = epoch_;
        zero_value_ = V{};
        ++size_;
      }
      return zero_value_;
    }
    std::size_t i = flatHashSlot(key, shift_);
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    if (needsGrow()) {
      grow();
      return (*this)[key];
    }
    slots_[i].key = key;
    slots_[i].epoch = epoch_;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;  // slot live iff epoch == map epoch
    V value{};
  };

  bool needsGrow() const { return (size_ + 1) * 4 > slots_capacity_ * 3; }

  void rebuild(std::size_t capacity) {
    slots_capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    slots_.assign(capacity, Slot{});
    epoch_ = 1;
    size_ = 0;
    zero_epoch_ = 0;
    zero_value_ = V{};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::uint64_t old_epoch = epoch_;
    const bool old_has_zero = zero_epoch_ == epoch_;
    const V old_zero = zero_value_;
    rebuild(slots_capacity_ * 2);
    for (const Slot& s : old) {
      if (s.epoch == old_epoch) (*this)[s.key] = s.value;
    }
    if (old_has_zero) (*this)[0] = old_zero;
  }

  std::vector<Slot> slots_;
  std::size_t slots_capacity_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  std::uint64_t zero_epoch_ = 0;
  V zero_value_{};
};

/// (frame, register) -> V as dense per-frame arrays with generation
/// stamps: reset() is O(1) and invalidates every entry; per-frame slabs
/// (and their grown register vectors) are recycled across generations.
/// Frames are mapped to slabs through a small epoch map with a one-entry
/// inline cache, so a run of accesses to the same frame costs one compare
/// plus an array index each.
template <typename V>
class FrameRegMap {
 public:
  void reset() {
    ++epoch_;
    used_slabs_ = 0;
    frame_to_slab_.clear();
    cached_frame_ = kNoFrame;
  }

  /// Pointer to the live entry or nullptr. Never allocates.
  const V* find(std::uint32_t frame, std::uint32_t reg) const {
    const Slab* slab = slabFor(frame);
    if (slab == nullptr || reg >= slab->stamp.size() ||
        slab->stamp[reg] != epoch_) {
      return nullptr;
    }
    return &slab->val[reg];
  }

  /// Copies every live entry of `frame` with a register below out.size()
  /// into out[register]; other elements keep their values. One slab
  /// lookup for the whole frame.
  void overlayOnto(std::uint32_t frame, std::vector<V>& out) const {
    const Slab* slab = slabFor(frame);
    if (slab == nullptr) return;
    const std::size_t n = std::min(out.size(), slab->stamp.size());
    for (std::size_t reg = 0; reg < n; ++reg) {
      if (slab->stamp[reg] == epoch_) out[reg] = slab->val[reg];
    }
  }

  /// Reference to the entry, default-constructing it (and claiming the
  /// frame's slab) on first touch this generation.
  V& at(std::uint32_t frame, std::uint32_t reg) {
    Slab& slab = claimSlab(frame);
    if (reg >= slab.stamp.size()) {
      slab.stamp.resize(reg + 1, 0);
      slab.val.resize(reg + 1);
    }
    if (slab.stamp[reg] != epoch_) {
      slab.stamp[reg] = epoch_;
      slab.val[reg] = V{};
    }
    return slab.val[reg];
  }

 private:
  static constexpr std::uint64_t kNoFrame = ~0ull;

  struct Slab {
    std::vector<std::uint64_t> stamp;  // entry live iff stamp == epoch_
    std::vector<V> val;
  };

  const Slab* slabFor(std::uint32_t frame) const {
    if (cached_frame_ == frame) return &slabs_[cached_slab_];
    const std::uint32_t* idx = frame_to_slab_.find(keyOf(frame));
    if (idx == nullptr) return nullptr;
    cached_frame_ = frame;
    cached_slab_ = *idx - 1;  // map stores slab index + 1 (0 = unassigned)
    return &slabs_[cached_slab_];
  }

  Slab& claimSlab(std::uint32_t frame) {
    if (cached_frame_ == frame) return slabs_[cached_slab_];
    std::uint32_t& idx = frame_to_slab_[keyOf(frame)];
    if (idx == 0) {  // 0 is the "unassigned" sentinel; slab ids start at 1
      if (used_slabs_ == slabs_.size()) slabs_.emplace_back();
      idx = static_cast<std::uint32_t>(++used_slabs_);
    }
    cached_frame_ = frame;
    cached_slab_ = idx - 1;
    return slabs_[idx - 1];
  }

  /// Frame ids are map keys; shift by one so frame 0 avoids the map's
  /// reserved-key-0 fast path staying V{} (any key works, this is just
  /// uniform).
  static std::uint64_t keyOf(std::uint32_t frame) {
    return static_cast<std::uint64_t>(frame) + 1;
  }

  EpochMap64<std::uint32_t> frame_to_slab_;
  std::vector<Slab> slabs_;
  std::size_t used_slabs_ = 0;
  std::uint64_t epoch_ = 1;
  mutable std::uint64_t cached_frame_ = kNoFrame;
  mutable std::uint32_t cached_slab_ = 0;
};

}  // namespace spt::sim
