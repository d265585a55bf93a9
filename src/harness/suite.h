// Suite-level experiment driver: the ten SPECint2000-analog workloads with
// their per-benchmark compiler options (notably gap's raised body-size
// limit of 2500 instructions — paper Section 5.3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "workloads/workloads.h"

namespace spt::harness {

struct SuiteEntry {
  workloads::Workload workload;
  compiler::CompilerOptions copts;
};

/// The ten benchmarks in figure order with their default compiler options.
std::vector<SuiteEntry> defaultSuite();

/// defaultSuite() filtered by workload name, in suite order. An empty
/// `names` keeps every entry; an unknown name selects nothing.
std::vector<SuiteEntry> suiteEntries(const std::vector<std::string>& names);

/// The compiler options of one cell of `workload` (a suite name, a
/// microkernel or a .spt path): an explicit `max_body` wins, otherwise a
/// suite entry's own body-size limit applies (gap's 2500), and every other
/// field is the caller's `copts`. A workload outside the suite keeps the
/// caller's limit. run, compile, perf, sweep, the campaign and the sweep
/// service all resolve a cell's options here.
compiler::CompilerOptions cellCompilerOptions(
    const std::string& workload, compiler::CompilerOptions copts,
    std::optional<double> max_body);

/// Runs the full pipeline for one entry. With non-null `remarks`, fills
/// the compiler's structured per-loop decision log (spt/remarks.h). With
/// non-null `trace_cache`, the baseline's run, result and profile and the
/// SPT trace come from the shared store (harness/trace_cache.h) keyed by
/// workload name and scale — results are identical either way.
ExperimentResult runSuiteEntry(const SuiteEntry& entry,
                               const support::MachineConfig& mconfig = {},
                               std::uint64_t scale = 1,
                               compiler::CompilationRemarks* remarks = nullptr,
                               TraceCache* trace_cache = nullptr);

}  // namespace spt::harness
