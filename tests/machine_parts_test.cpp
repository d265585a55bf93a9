// Tests for simulator internals not covered by sim_test: ArchState
// reconstruction and its paged memory image, LoopCycleTracker attribution,
// the in-flight scoreboard, and the advanceToWithProfile distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "harness/experiment.h"
#include "ir/builder.h"
#include "sim/arch_state.h"
#include "sim/loop_tracker.h"
#include "sim/pipeline.h"
#include "support/error.h"
#include "support/rng.h"
#include "test_programs.h"

namespace spt::sim {
namespace {

using namespace ir;

TEST(ArchState, ReconstructsRegistersAndMemory) {
  Module m("t");
  testing::buildArraySum(m, 16);
  harness::TracedRun run = harness::traceProgram(m);

  ArchState arch(m);
  for (const auto& rec : run.trace.records()) {
    if (rec.kind != trace::RecordKind::kInstr) continue;
    arch.apply(rec);
  }
  // After the full run the architectural memory must contain the array:
  // find any store record and confirm memValue matches its final value.
  std::unordered_map<std::uint64_t, std::int64_t> final_values;
  for (const auto& rec : run.trace.records()) {
    if (rec.kind == trace::RecordKind::kInstr &&
        rec.op == Opcode::kStore) {
      final_values[rec.mem_addr] = rec.value;
    }
  }
  ASSERT_FALSE(final_values.empty());
  for (const auto& [addr, value] : final_values) {
    EXPECT_EQ(arch.memValue(addr, -999), value);
  }
}

TEST(ArchState, TracksFramesThroughCalls) {
  Module m("t");
  testing::buildFib(m, 8);
  harness::TracedRun run = harness::traceProgram(m);

  ArchState arch(m);
  int max_depth_events = 0;
  for (const auto& rec : run.trace.records()) {
    if (rec.kind != trace::RecordKind::kInstr) continue;
    const ApplyInfo info = arch.apply(rec);
    if (rec.op == Opcode::kCall) {
      EXPECT_EQ(info.callee_frame, rec.callee_frame);
      EXPECT_EQ(info.callee_params, 1u);
      ++max_depth_events;
    }
    if (rec.op == Opcode::kRet && info.caller_dst.valid()) {
      // The caller's frame must be the current frame after the pop.
      EXPECT_EQ(info.caller_frame, arch.curFrame());
    }
  }
  EXPECT_GT(max_depth_events, 10);
}

TEST(ArchState, MemValueFallback) {
  Module m("t");
  testing::buildArraySum(m, 4);
  m.finalize();
  ArchState arch(m);
  EXPECT_EQ(arch.memValue(0xdead000, 42), 42);
}

TEST(MemoryImage, MatchesUnorderedMapUnderRandomOps) {
  support::Rng rng(7);
  MemoryImage image;
  std::unordered_map<std::uint64_t, std::int64_t> ref;
  // Eight pages' worth of words, plus a few far pages so the page table
  // has holes.
  const auto random_addr = [&] {
    const std::uint64_t word = rng.nextBelow(8 * 512);
    const std::uint64_t far = rng.nextBool(0.05) ? rng.nextBelow(64) << 20 : 0;
    return far + word * 8;
  };
  std::uint64_t top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.nextBool(0.5)) {
      const std::uint64_t addr = random_addr();
      const auto value = static_cast<std::int64_t>(rng.next());
      image.set(addr, value);
      ref[addr] = value;
      top = std::max(top, addr);
    } else {
      // Written, never-written, unaligned and past-the-last-page reads.
      std::uint64_t addr = random_addr();
      if (rng.nextBool(0.2)) addr += 1 + rng.nextBelow(7);
      if (rng.nextBool(0.05)) addr = top + 4096 + rng.nextBelow(1 << 20) * 8;
      if (rng.nextBool(0.01)) addr = ~0ull - 7;
      const std::int64_t* found = image.find(addr);
      const auto it = ref.find(addr);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "addr " << addr;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "addr " << addr;
      }
    }
  }
  ASSERT_EQ(image.size(), ref.size());
  std::size_t visited = 0;
  std::uint64_t last = 0;
  image.forEach([&](std::uint64_t addr, std::int64_t value) {
    if (visited > 0) {
      EXPECT_GT(addr, last);  // address order, each word once
    }
    last = addr;
    ++visited;
    const auto it = ref.find(addr);
    ASSERT_NE(it, ref.end()) << "addr " << addr;
    EXPECT_EQ(value, it->second) << "addr " << addr;
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(MemoryImage, RefusesUnalignedAndOutOfRangeWrites) {
  support::ScopedCheckThrowMode throwing(true);
  MemoryImage image;
  EXPECT_THROW(image.set(12, 1), support::SptInternalError);
  EXPECT_THROW(image.set(1ull << 40, 1), support::SptInternalError);
  EXPECT_EQ(image.size(), 0u);
}

TEST(LoopCycleTracker, AttributesNestedCycles) {
  Module m("t");
  m.finalize();
  // Build markers by hand: outer opens at cycle 0, inner runs [10, 30],
  // outer closes at 100.
  Module mm("labels");
  const FuncId f = mm.addFunction("main", 0);
  IrBuilder b(mm, f);
  const BlockId outer_b = b.createBlock("outerL");
  const BlockId inner_b = b.createBlock("innerL");
  b.setInsertPoint(outer_b);
  b.nop();
  b.ret();
  b.setInsertPoint(inner_b);
  b.nop();
  b.ret();
  mm.setMainFunc(f);
  mm.finalize();
  const auto outer_sid = mm.function(f).blocks[outer_b].instrs[0].static_id;
  const auto inner_sid = mm.function(f).blocks[inner_b].instrs[0].static_id;

  LoopCycleTracker tracker(mm);
  trace::Record rec;
  rec.kind = trace::RecordKind::kIterBegin;
  rec.sid = outer_sid;
  rec.value = 0;
  tracker.onMarker(rec, 0);
  rec.sid = inner_sid;
  tracker.onMarker(rec, 10);
  trace::Record exit_rec;
  exit_rec.kind = trace::RecordKind::kLoopExit;
  exit_rec.sid = inner_sid;
  tracker.onMarker(exit_rec, 30);
  exit_rec.sid = outer_sid;
  tracker.onMarker(exit_rec, 100);

  const auto& stats = tracker.stats();
  EXPECT_EQ(stats.at("main.outerL").cycles, 100u);
  EXPECT_EQ(stats.at("main.innerL").cycles, 20u);
  EXPECT_EQ(stats.at("main.outerL").episodes, 1u);
}

TEST(LoopCycleTracker, FinishClosesOpenEpisodes) {
  Module mm("labels");
  const FuncId f = mm.addFunction("main", 0);
  IrBuilder b(mm, f);
  const BlockId blk = b.createBlock("openL");
  b.setInsertPoint(blk);
  b.nop();
  b.ret();
  mm.setMainFunc(f);
  mm.finalize();
  const auto sid = mm.function(f).blocks[blk].instrs[0].static_id;

  LoopCycleTracker tracker(mm);
  trace::Record rec;
  rec.kind = trace::RecordKind::kIterBegin;
  rec.sid = sid;
  rec.value = 0;
  tracker.onMarker(rec, 5);
  tracker.finish(25);
  EXPECT_EQ(tracker.stats().at("main.openL").cycles, 20u);
}

TEST(Pipeline, AvailableValuesKeepTheCycleEnvelope) {
  support::MachineConfig config;
  MemorySystem memory(config);
  Pipeline pipe(config, memory);
  // Write far more distinct registers than the scoreboard has ways, their
  // values all ready at once; timing must not depend on where they went.
  DecodedInstr d;
  d.op = Opcode::kAdd;
  trace::Record r;
  for (std::uint32_t i = 0; i < (1u << 17); ++i) {
    d.dst_reg = i;  // key i + 1 in frame 0
    r.sid = static_cast<ir::StaticId>(i % 16);
    pipe.issue(d, r);
  }
  pipe.finish();
  // 2^17 independent instructions at width 6 ≈ 21846 cycles, plus cold
  // I-cache fills; a lost pending latency or a spurious stall would blow
  // far past this envelope.
  EXPECT_GE(pipe.cycle(), (1u << 17) / 6);
  EXPECT_LE(pipe.cycle(), (1u << 17) / 6 + 1024);
}

// Replays one seeded write stream against a Scoreboard and a never-purged
// map. The clock only rises. At every step each key still in flight (its
// last written ready cycle is after the clock) must read back exactly, and
// every other key must read as available. Returns the board's final set
// count.
std::size_t checkBoardAgainstMap(std::uint64_t seed, std::uint64_t keys,
                                 std::uint64_t max_latency,
                                 double tick_chance) {
  support::Rng rng(seed);
  Scoreboard board;
  std::unordered_map<std::uint64_t, RegState> ref;
  std::uint64_t now = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.nextBool(tick_chance)) now += 1 + rng.nextBelow(3);
    const std::uint64_t key = 1 + rng.nextBelow(keys);
    // Mostly in-flight values; some already available, which overwrite
    // (and so retire) whatever the key held.
    RegState state;
    state.ready = rng.nextBool(0.2) ? now - std::min(now, rng.nextBelow(4))
                                    : now + rng.nextBelow(max_latency + 1);
    state.from_load = rng.nextBool(0.5);
    board.write(key, state, now);
    ref[key] = state;
    for (std::uint64_t k = 1; k <= keys; ++k) {
      const RegState got = board.find(k);
      const auto it = ref.find(k);
      if (it != ref.end() && it->second.ready > now) {
        EXPECT_EQ(got.ready, it->second.ready) << "key " << k;
        EXPECT_EQ(got.from_load, it->second.from_load) << "key " << k;
      } else {
        EXPECT_LE(got.ready, now) << "key " << k;
      }
      if (::testing::Test::HasFailure()) return board.setCount();
    }
  }
  return board.setCount();
}

TEST(Scoreboard, MatchesNeverPurgedMapOnValuesInFlight) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Short latencies and a clock that ticks every write: at most three
    // values are ever in flight, fewer than one set's ways.
    EXPECT_EQ(checkBoardAgainstMap(seed, 600, 3, 1.0), 64u);
    // Long latencies and a slow clock keep hundreds in flight: the table
    // must grow rather than drop one.
    EXPECT_GT(checkBoardAgainstMap(seed, 600, 2000, 0.05), 64u);
    // A small key space: constant overwrites of in-flight keys.
    checkBoardAgainstMap(seed, 12, 50, 0.3);
  }
}

TEST(Pipeline, AdvanceToWithProfileDistributes) {
  support::MachineConfig config;
  MemorySystem memory(config);
  Pipeline pipe(config, memory);
  CycleBreakdown profile;
  profile.execution = 60;
  profile.pipeline_stall = 20;
  profile.dcache_stall = 20;
  pipe.advanceToWithProfile(100, profile);
  EXPECT_EQ(pipe.cycle(), 100u);
  const auto& b = pipe.breakdown();
  EXPECT_EQ(b.total(), 100u);
  EXPECT_EQ(b.execution, 60u);
  EXPECT_EQ(b.dcache_stall, 20u);
  EXPECT_EQ(b.pipeline_stall, 20u);
}

TEST(Pipeline, AdvanceToWithEmptyProfileIsPipelineStall) {
  support::MachineConfig config;
  MemorySystem memory(config);
  Pipeline pipe(config, memory);
  pipe.advanceToWithProfile(50, CycleBreakdown{});
  EXPECT_EQ(pipe.breakdown().pipeline_stall, 50u);
}

TEST(Pipeline, CommitFromBufferUsesReplayWidth) {
  support::MachineConfig config;
  MemorySystem memory(config);
  Pipeline pipe(config, memory);
  for (int i = 0; i < 120; ++i) pipe.commitFromBuffer();
  pipe.finish();
  EXPECT_EQ(pipe.cycle(), 10u);  // 120 entries at 12/cycle
  EXPECT_EQ(pipe.breakdown().execution, 10u);
}

}  // namespace
}  // namespace spt::sim
