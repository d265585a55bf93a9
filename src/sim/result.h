// Simulation result structures shared by the baseline and SPT machines.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/cache.h"
#include "sim/pipeline.h"
#include "support/stats.h"

namespace spt::sim {

/// The version of the machines' timing model. A trace cache keeps
/// baseline results under a key that folds it in
/// (harness::baselineConfigDigest), so a change that moves any reported
/// result must bump it, and golden_digest_test pins it beside the digests:
/// re-pinning them without a bump fails to compile, and no result stored
/// by the old model is ever read back.
inline constexpr std::uint32_t kTimingModelVersion = 1;

/// Cycles attributed to a static loop (all dynamic episodes aggregated;
/// nested loops also accumulate into their ancestors, consistently across
/// baseline and SPT runs).
struct LoopCycleStats {
  std::uint64_t cycles = 0;
  std::uint64_t episodes = 0;
  std::uint64_t iterations = 0;
};

/// Speculative-threading statistics (paper Figure 8 inputs).
struct ThreadStats {
  std::uint64_t spawned = 0;       // spt_fork executed with idle spec core
  std::uint64_t forks_ignored = 0; // spt_fork while the spec core was busy
  std::uint64_t wrong_path = 0;    // forked with no next iteration
  std::uint64_t fast_commits = 0;
  std::uint64_t replays = 0;       // arrivals that needed selective replay
  std::uint64_t squashes = 0;      // full-squash recoveries (ablation mode)
  std::uint64_t killed = 0;        // killed by spt_kill / end of trace
  std::uint64_t spec_instrs = 0;   // speculatively executed instructions
  std::uint64_t misspec_instrs = 0;  // re-executed during replay
  std::uint64_t committed_instrs = 0;

  // Zero-denominator policy: a run with no speculative activity reports
  // 0.0 for every ratio (support::safeRatio), never NaN.
  double fastCommitRatio() const {
    return support::safeRatio(static_cast<double>(fast_commits),
                              static_cast<double>(spawned));
  }
  double misspeculationRatio() const {
    return support::safeRatio(static_cast<double>(misspec_instrs),
                              static_cast<double>(spec_instrs));
  }

  void accumulate(const ThreadStats& other);
};

/// Fault-injection accounting (sim::FaultInjector). Classification is per
/// injected fault at the granularity of the speculative thread it hit:
///  * detected_by_net    — the thread ended in replay / squash with the
///                         dependence-checking net (LAB, register check,
///                         branch compare, fault suppression) flagging the
///                         violation, or was discarded wholesale (kill);
///  * detected_by_oracle — the commit-time value validation had to flag a
///                         divergent entry the net missed (e.g. a dropped
///                         LAB record whose load actually conflicted);
///  * benign             — the corruption never changed a committed value
///                         (overwritten, never read, or bit-identical);
///  * escaped            — a divergent value was committed undetected.
///                         Must always be zero; the campaign asserts it.
struct FaultStats {
  std::uint64_t injected = 0;
  std::uint64_t detected_by_net = 0;
  std::uint64_t detected_by_oracle = 0;
  std::uint64_t benign = 0;
  std::uint64_t escaped = 0;

  std::uint64_t detectedOrBenign() const {
    return detected_by_net + detected_by_oracle + benign;
  }

  void accumulate(const FaultStats& other) {
    injected += other.injected;
    detected_by_net += other.detected_by_net;
    detected_by_oracle += other.detected_by_oracle;
    benign += other.benign;
    escaped += other.escaped;
  }
};

/// Host-side telemetry of the threaded-dispatch and arena machinery
/// (docs/PERF.md). Purely observational: the counters describe how the
/// simulator executed, never what it simulated, so they are deterministic
/// for a given trace but deliberately excluded from the golden digests.
struct HotPathStats {
  std::uint64_t dispatch_fast = 0;      // records through specialized handlers
  std::uint64_t dispatch_fallback = 0;  // records through the generic path
  // dispatch_fallback by cause, SPT machine only (the rest of it is the
  // main thread's calls, returns, kills, hallocs and kGeneric records):
  std::uint64_t fallback_fork = 0;    // main-thread spt_fork issues
  std::uint64_t fallback_spec = 0;    // speculative generic records
  std::uint64_t fallback_replay = 0;  // selective-replay re-executions
  std::uint64_t arena_frame_allocs = 0;  // frames newly allocated
  std::uint64_t arena_frame_reuses = 0;  // frames recycled from the arena
  std::uint64_t fork_site_hits = 0;    // fork records served from the
  std::uint64_t fork_site_misses = 0;  // FlatMap64 site cache vs first seen

  double recordsPerAlloc() const {
    return support::safeRatio(
        static_cast<double>(dispatch_fast + dispatch_fallback),
        static_cast<double>(arena_frame_allocs));
  }
};

struct MachineResult {
  std::uint64_t cycles = 0;
  std::uint64_t instrs = 0;
  CycleBreakdown breakdown;
  std::map<std::string, LoopCycleStats> loops;
  ThreadStats threads;                             // whole program
  std::map<std::string, ThreadStats> loop_threads; // per SPT loop
  CacheStats l1d;
  CacheStats l2;
  CacheStats l3;
  double branch_mispredict_ratio = 0.0;
  HotPathStats hotpath;  // host-side telemetry, excluded from digests

  // Robustness subsystem outputs; all-zero unless the oracle / injector
  // were enabled (the golden digests deliberately exclude them).
  FaultStats faults;
  std::uint64_t arch_digest = 0;   // oracle stream digest at end of run
  std::uint64_t oracle_checks = 0; // boundary checks the oracle ran

  double ipc() const {
    return support::safeRatio(static_cast<double>(instrs),
                              static_cast<double>(cycles));
  }
};

/// Speedup of `spt` over `baseline` as a fraction (0.156 == 15.6%).
/// Zero-denominator policy: spt_cycles == 0 (an empty or unsimulated run)
/// reports 0.0 — "no measured speedup" — consistently with
/// support::safeRatio rather than +Inf or NaN.
inline double speedupOf(std::uint64_t baseline_cycles,
                        std::uint64_t spt_cycles) {
  if (spt_cycles == 0) return 0.0;
  return static_cast<double>(baseline_cycles) / spt_cycles - 1.0;
}

}  // namespace spt::sim
