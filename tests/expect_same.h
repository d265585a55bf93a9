// Field-by-field equality checks for simulation results, shared by the
// tests that pin two paths to identical output.
#pragma once

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "sim/result.h"

namespace spt::testing {

inline void expectSameThreads(const sim::ThreadStats& a,
                              const sim::ThreadStats& b) {
  EXPECT_EQ(a.spawned, b.spawned);
  EXPECT_EQ(a.forks_ignored, b.forks_ignored);
  EXPECT_EQ(a.wrong_path, b.wrong_path);
  EXPECT_EQ(a.fast_commits, b.fast_commits);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.squashes, b.squashes);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.spec_instrs, b.spec_instrs);
  EXPECT_EQ(a.misspec_instrs, b.misspec_instrs);
  EXPECT_EQ(a.committed_instrs, b.committed_instrs);
}

inline void expectSameCache(const sim::CacheStats& a,
                            const sim::CacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
}

/// Every field of MachineResult, host-side telemetry included.
inline void expectSameMachineResult(const sim::MachineResult& a,
                                    const sim::MachineResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instrs, b.instrs);
  EXPECT_EQ(a.breakdown.execution, b.breakdown.execution);
  EXPECT_EQ(a.breakdown.pipeline_stall, b.breakdown.pipeline_stall);
  EXPECT_EQ(a.breakdown.dcache_stall, b.breakdown.dcache_stall);
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (const auto& [name, stats] : a.loops) {
    ASSERT_TRUE(b.loops.contains(name)) << name;
    const sim::LoopCycleStats& other = b.loops.at(name);
    EXPECT_EQ(stats.cycles, other.cycles) << name;
    EXPECT_EQ(stats.episodes, other.episodes) << name;
    EXPECT_EQ(stats.iterations, other.iterations) << name;
  }
  expectSameThreads(a.threads, b.threads);
  ASSERT_EQ(a.loop_threads.size(), b.loop_threads.size());
  for (const auto& [name, stats] : a.loop_threads) {
    ASSERT_TRUE(b.loop_threads.contains(name)) << name;
    expectSameThreads(stats, b.loop_threads.at(name));
  }
  expectSameCache(a.l1d, b.l1d);
  expectSameCache(a.l2, b.l2);
  expectSameCache(a.l3, b.l3);
  EXPECT_EQ(a.branch_mispredict_ratio, b.branch_mispredict_ratio);
  EXPECT_EQ(a.hotpath.dispatch_fast, b.hotpath.dispatch_fast);
  EXPECT_EQ(a.hotpath.dispatch_fallback, b.hotpath.dispatch_fallback);
  EXPECT_EQ(a.hotpath.arena_frame_allocs, b.hotpath.arena_frame_allocs);
  EXPECT_EQ(a.hotpath.arena_frame_reuses, b.hotpath.arena_frame_reuses);
  EXPECT_EQ(a.hotpath.fork_site_hits, b.hotpath.fork_site_hits);
  EXPECT_EQ(a.hotpath.fork_site_misses, b.hotpath.fork_site_misses);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.detected_by_net, b.faults.detected_by_net);
  EXPECT_EQ(a.faults.detected_by_oracle, b.faults.detected_by_oracle);
  EXPECT_EQ(a.faults.benign, b.faults.benign);
  EXPECT_EQ(a.faults.escaped, b.faults.escaped);
  EXPECT_EQ(a.arch_digest, b.arch_digest);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
}

inline void expectSameRun(const interp::RunResult& a,
                          const interp::RunResult& b) {
  EXPECT_EQ(a.return_value, b.return_value);
  EXPECT_EQ(a.dynamic_instrs, b.dynamic_instrs);
  EXPECT_EQ(a.memory_hash, b.memory_hash);
}

}  // namespace spt::testing
