#include "harness/suite.h"

#include <algorithm>

namespace spt::harness {

std::vector<SuiteEntry> defaultSuite() {
  std::vector<SuiteEntry> suite;
  for (workloads::Workload& w : workloads::specSuite()) {
    SuiteEntry entry;
    if (w.name == "gap") {
      // Paper Section 5.3: "For gap, because of one hot loop mentioned
      // above, we considered loops with average loop body size less than
      // 2500 instructions."
      entry.copts.max_avg_body_size = 2500.0;
    }
    entry.workload = std::move(w);
    suite.push_back(std::move(entry));
  }
  return suite;
}

std::vector<SuiteEntry> suiteEntries(const std::vector<std::string>& names) {
  std::vector<SuiteEntry> entries = defaultSuite();
  if (names.empty()) return entries;
  std::erase_if(entries, [&](const SuiteEntry& entry) {
    return std::find(names.begin(), names.end(), entry.workload.name) ==
           names.end();
  });
  return entries;
}

compiler::CompilerOptions cellCompilerOptions(
    const std::string& workload, compiler::CompilerOptions copts,
    std::optional<double> max_body) {
  if (max_body) {
    copts.max_avg_body_size = *max_body;
    return copts;
  }
  for (const SuiteEntry& entry : defaultSuite()) {
    if (entry.workload.name == workload) {
      copts.max_avg_body_size = entry.copts.max_avg_body_size;
    }
  }
  return copts;
}

ExperimentResult runSuiteEntry(const SuiteEntry& entry,
                               const support::MachineConfig& mconfig,
                               std::uint64_t scale,
                               compiler::CompilationRemarks* remarks,
                               TraceCache* trace_cache) {
  return runSptExperiment(
      entry.workload.build(scale), entry.copts, mconfig, {}, remarks,
      trace_cache, entry.workload.name + ".x" + std::to_string(scale));
}

}  // namespace spt::harness
