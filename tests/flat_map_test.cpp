// Differential tests for the flat hot-path containers (sim/flat_map.h)
// against std reference maps: random operation sequences must observe
// identical contents through every growth and epoch reset.
#include "sim/flat_map.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include <gtest/gtest.h>

#include "support/rng.h"

namespace spt::sim {
namespace {

TEST(FlatMap64, MatchesUnorderedMapUnderRandomOps) {
  support::Rng rng(1);
  FlatMap64<std::int64_t> flat;
  std::unordered_map<std::uint64_t, std::int64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    // Small key space forces overwrites; include key 0 (dedicated slot).
    const std::uint64_t key = rng.nextBelow(512);
    if (rng.nextBool(0.7)) {
      const auto value = static_cast<std::int64_t>(rng.nextBelow(1 << 20));
      flat[key] = value;
      ref[key] = value;
    } else {
      const std::int64_t* found = flat.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "key " << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

TEST(EpochMap64, ClearForgetsEverythingAcrossManyEpochs) {
  support::Rng rng(2);
  EpochMap64<std::int64_t> flat;
  for (int epoch = 0; epoch < 50; ++epoch) {
    std::unordered_map<std::uint64_t, std::int64_t> ref;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t key = rng.nextBelow(64);
      const auto value = static_cast<std::int64_t>(rng.nextBelow(1 << 20));
      flat[key] = value;
      ref[key] = value;
    }
    for (std::uint64_t key = 0; key < 64; ++key) {
      const std::int64_t* found = flat.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
    flat.clear();
    ASSERT_EQ(flat.size(), 0u);
    ASSERT_FALSE(flat.contains(0));
  }
}

TEST(EpochMap64, ReserveForAvoidsNothingButStillGrowsOnDemand) {
  EpochMap64<int> flat;
  flat.reserveFor(8);
  // Exceed any reservation: growth mid-epoch must preserve live entries.
  for (std::uint64_t key = 0; key < 500; ++key) flat[key] = int(key);
  for (std::uint64_t key = 0; key < 500; ++key) {
    ASSERT_NE(flat.find(key), nullptr);
    ASSERT_EQ(*flat.find(key), int(key));
  }
}

TEST(FrameRegMap, MatchesReferenceMapAcrossResets) {
  support::Rng rng(3);
  FrameRegMap<std::int64_t> flat;
  for (int gen = 0; gen < 30; ++gen) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> ref;
    for (int i = 0; i < 500; ++i) {
      // Few frames, interleaved accesses: exercises the one-entry frame
      // cache invalidation on frame switches.
      const auto frame = static_cast<std::uint32_t>(rng.nextBelow(5));
      const auto reg = static_cast<std::uint32_t>(rng.nextBelow(40));
      if (rng.nextBool(0.6)) {
        const auto value = static_cast<std::int64_t>(rng.nextBelow(1 << 20));
        flat.at(frame, reg) = value;
        ref[{frame, reg}] = value;
      } else {
        const std::int64_t* found = flat.find(frame, reg);
        const auto it = ref.find({frame, reg});
        ASSERT_EQ(found != nullptr, it != ref.end())
            << "frame " << frame << " reg " << reg;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
    // overlayOnto: the live entries of a frame below the output's size,
    // over values it leaves alone.
    for (std::uint32_t frame = 0; frame < 6; ++frame) {
      std::vector<std::int64_t> out(32, -1);
      flat.overlayOnto(frame, out);
      for (std::uint32_t reg = 0; reg < out.size(); ++reg) {
        const auto it = ref.find({frame, reg});
        ASSERT_EQ(out[reg], it != ref.end() ? it->second : -1)
            << "frame " << frame << " reg " << reg;
      }
    }
    flat.reset();
    for (std::uint32_t frame = 0; frame < 5; ++frame) {
      for (std::uint32_t reg = 0; reg < 40; ++reg) {
        ASSERT_EQ(flat.find(frame, reg), nullptr);
      }
    }
  }
}

TEST(FrameRegMap, FindOnUncachedFrameReadsTheRightSlab) {
  // Regression: slabFor must translate the stored slab id (index + 1) back
  // to an index; reading frame B's slab through frame A's lookup poisoned
  // both the read and the inline cache.
  FrameRegMap<std::int64_t> flat;
  flat.at(10, 1) = 111;
  flat.at(20, 1) = 222;
  flat.at(30, 1) = 333;
  // Fresh lookups in non-cache order.
  EXPECT_EQ(*flat.find(20, 1), 222);
  EXPECT_EQ(*flat.find(10, 1), 111);
  EXPECT_EQ(*flat.find(30, 1), 333);
  // And through at() again, which trusts the cache slabFor just set.
  EXPECT_EQ(flat.at(10, 1), 111);
  EXPECT_EQ(flat.at(30, 1), 333);
}

}  // namespace
}  // namespace spt::sim
