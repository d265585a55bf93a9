// Host-throughput measurement of the trace-driven co-simulation.
//
// Every figure the suite reproduces is bottlenecked by how many trace
// records per host second SptMachine/BaselineMachine can replay, so the
// simulator's own speed is tracked as a first-class metric: simulated
// instructions per host second (simulated MIPS), per workload, measured on
// pre-built traces so compile/interpret time never pollutes the number.
//
// The measurement phase is strictly serial (parallel timing runs would
// contend for cores and memory bandwidth); only the setup phase — compile,
// trace, index — fans out across a ParallelSweep. Simulation *results*
// (cycles, instruction counts, record counts) are deterministic and are
// diffed by CI; host-time metrics are prefixed `host_` in the JSON so
// determinism checks can filter them (`grep -v '"host_'`).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/parallel_sweep.h"
#include "spt/options.h"
#include "support/machine_config.h"

namespace spt::harness {

struct PerfOptions {
  /// Workloads to measure; empty selects the default set (the ten
  /// SPECint2000 analogs plus the parser-free microkernel).
  std::vector<std::string> workloads;
  std::uint64_t scale = 1;
  /// Timed repetitions per machine; the fastest run is reported (minimum
  /// rejects scheduler noise, which is strictly additive).
  int repetitions = 3;
  std::size_t setup_jobs = 0;  // 0 = ParallelSweep default
  support::MachineConfig machine;
  compiler::CompilerOptions copts;
  /// With supervisor.isolate set (`sptc perf --isolate`), each workload's
  /// setup + timed measurement runs in a worker process of its own under
  /// the execution supervisor (one Supervisor::run per workload), one at
  /// a time — a fresh address space per measurement (no allocator or
  /// cache pollution from earlier workloads), and a crashed or hung
  /// measurement becomes a reported failure instead of taking the bench
  /// down. Deterministic row fields are identical to the in-process path;
  /// host timings differ. Pass-time aggregation is unavailable in this
  /// mode (the compiles happen in throwaway workers).
  SupervisorOptions supervisor;
};

struct PerfRow {
  std::string workload;
  // Deterministic simulation results (covered by CI determinism diffs).
  std::uint64_t trace_records = 0;     // SPT trace length in records
  std::uint64_t baseline_cycles = 0;
  std::uint64_t spt_cycles = 0;
  std::uint64_t baseline_sim_instrs = 0;  // instructions issued in one run
  std::uint64_t spt_sim_instrs = 0;       // both pipelines
  // Hot-path health counters (sim/result.h HotPathStats; deterministic).
  // dispatch_fallback counts instructions that took the generic execute
  // path instead of a class-specialized handler; records_per_alloc is
  // trace records retired per arena frame allocation (higher = the frame
  // arena is recycling instead of allocating).
  std::uint64_t baseline_dispatch_fast = 0;
  std::uint64_t baseline_dispatch_fallback = 0;
  std::uint64_t spt_dispatch_fast = 0;
  std::uint64_t spt_dispatch_fallback = 0;
  // spt_dispatch_fallback by cause (HotPathStats::fallback_*): main-thread
  // spt_fork issues, speculative generic records, replay re-executions.
  std::uint64_t spt_fallback_fork = 0;
  std::uint64_t spt_fallback_spec = 0;
  std::uint64_t spt_fallback_replay = 0;
  std::uint64_t spt_arena_frame_allocs = 0;
  std::uint64_t spt_arena_frame_reuses = 0;
  double spt_records_per_alloc = 0.0;
  // Host-dependent metrics (excluded from determinism diffs).
  double host_baseline_seconds = 0.0;  // fastest single run
  double host_spt_seconds = 0.0;
  double host_baseline_mips = 0.0;     // sim instrs / host second / 1e6
  double host_spt_mips = 0.0;
};

/// Wall time of one compiler pass aggregated across every workload's
/// compile in the setup phase, from the pass pipeline's instrumentation
/// (spt/remarks.h). name/invocations/mutations are deterministic;
/// host_wall_ms is host time (excluded from determinism diffs).
struct PerfPassRow {
  std::string name;  // pipeline order of first appearance
  std::uint64_t invocations = 0;
  std::uint64_t mutations = 0;
  double host_wall_ms = 0.0;
};

/// Builds, compiles and traces each workload (parallel), then times
/// BaselineMachine and SptMachine runs over the pre-built traces (serial).
/// With non-null `passes`, also reports the setup phase's per-pass
/// compile wall times.
std::vector<PerfRow> runSimThroughput(const PerfOptions& options,
                                      std::vector<PerfPassRow>* passes =
                                          nullptr);

/// Renders the ASCII table the `sptc perf` subcommand and the
/// bench_sim_throughput binary print.
void printSimThroughputTable(std::ostream& os,
                             const std::vector<PerfRow>& rows);

/// Renders the per-pass compile-time table (`sptc perf`).
void printPassTimeTable(std::ostream& os,
                        const std::vector<PerfPassRow>& passes);

/// Writes {"rows":[...], "host_pass_times":[...]} ("host_pass_times" only
/// with non-null `passes`); `host_` members carry host-time metrics.
/// Returns false on I/O failure.
bool writeSimThroughputJson(const std::string& path,
                            const std::vector<PerfRow>& rows,
                            const std::vector<PerfPassRow>* passes = nullptr);

}  // namespace spt::harness
