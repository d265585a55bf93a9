// cold_cells: the ten-workload suite at scale 1, N=1, on the paper's
// machine. Every cell runs serially, in-process and from scratch through
// harness::runSuiteEntry with no trace cache, so every layer runs once per
// cell; profile-interpret and trace generation dominate. A traced pass runs
// the same cell as a composition of the layers' public calls, each in a
// span, and must reproduce runSuiteEntry's results exactly.
#include <optional>
#include <stdexcept>

#include "harness/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace spt;

/// One serial suite pass on the reference host.
constexpr double kPassSeconds = 3.4;

/// runSptExperiment (harness/experiment.cpp), call for call, with a span
/// around each layer. Teardown is a span of its own: freeing the traces is
/// part of what a cell costs.
harness::ExperimentResult composeCell(const harness::SuiteEntry& entry,
                                      const support::MachineConfig& machine,
                                      std::uint64_t cell, SpanRecorder& spans,
                                      Counters& counters) {
  auto cell_span = spans.open("cell", cell);
  harness::ExperimentResult result;
  std::optional<ir::Module> module;
  std::optional<ir::Module> baseline;
  {
    auto s = spans.open("harness.build", cell);
    module.emplace(entry.workload.build(1));
    baseline.emplace(*module);
    baseline->finalize();
  }
  compiler::CompilationRemarks remarks;
  {
    auto s = spans.open("spt.compile", cell);
    TimingProfileRunner runner(spans, cell);
    result.plan =
        compiler::SptCompiler(entry.copts).compile(*module, runner, &remarks);
  }
  counters.addCompile(remarks);

  std::optional<harness::TracedRun> base_run;
  std::optional<harness::TracedRun> spt_run;
  {
    auto s = spans.open("interp.trace", cell);
    base_run.emplace(
        harness::traceProgram(*baseline, {}, machine.max_trace_records));
    s.setWork(base_run->trace.size());
  }
  {
    auto s = spans.open("interp.trace", cell);
    spt_run.emplace(
        harness::traceProgram(*module, {}, machine.max_trace_records));
    s.setWork(spt_run->trace.size());
  }
  result.baseline_run = base_run->result;
  result.spt_run = spt_run->result;
  if (result.baseline_run.return_value != result.spt_run.return_value ||
      result.baseline_run.memory_hash != result.spt_run.memory_hash) {
    throw std::runtime_error("SPT transformation changed the program result");
  }

  {
    auto s = spans.open("sim.baseline", cell);
    sim::BaselineMachine m(*baseline, base_run->trace, machine);
    result.baseline = m.run();
    s.setWork(result.baseline.instrs);
  }
  std::optional<trace::LoopIndex> index;
  {
    auto s = spans.open("trace.loop_index", cell);
    index.emplace(*module, spt_run->trace);
  }
  {
    auto s = spans.open("sim.spt", cell);
    sim::SptMachine m(*module, spt_run->trace, *index, machine);
    result.spt = m.run();
    s.setWork(result.spt.instrs);
  }
  {
    auto s = spans.open("harness.teardown", cell);
    index.reset();
    spt_run.reset();
    base_run.reset();
    baseline.reset();
    module.reset();
  }
  return result;
}

}  // namespace

void runColdCells(const Options& options, SpanRecorder& spans,
                  DigestStore& store, RunReport& report) {
  const support::MachineConfig machine;  // paper Table 1, N = 1
  std::vector<harness::SuiteEntry> suite;

  // Set-up: the suite's entries plus one small warm-up cell, so lazy
  // allocator and page-table growth is not billed to the first timed cell.
  for (int rep = 0; rep < kSetups; ++rep) {
    auto s = spans.open("setup", 0);
    const double factor = speedFactor();
    report.speed_factor.push_back(factor);
    const double t0 = nowSeconds();
    suite = harness::defaultSuite();
    std::size_t warm = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].workload.name == "vortex") warm = i;
    }
    const harness::ExperimentResult r =
        harness::runSuiteEntry(suite[warm], machine, 1);
    store.check(cellKey(suite[warm].workload.name, "default", "sim"),
                simDigest(r), report);
    report.setup_s.push_back((nowSeconds() - t0) * factor);
  }

  const int passes = passesFor(options, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = tracedPass(options, pass);
    const double pass_t0 = nowSeconds();
    for (const std::size_t k :
         seededOrder(options.seed, static_cast<std::uint64_t>(pass),
                     suite.size())) {
      const harness::SuiteEntry& entry = suite[k];
      const std::uint64_t cell = 1000 * (pass + 1) + k;
      ++report.attempted;
      const double factor = speedFactor();
      report.speed_factor.push_back(factor);
      const double cpu0 = processCpuSeconds();
      const double t0 = nowSeconds();
      harness::ExperimentResult r;
      try {
        r = traced ? composeCell(entry, machine, cell, spans, report.counters)
                   : harness::runSuiteEntry(entry, machine, 1);
      } catch (const std::exception& e) {
        ++report.failed;
        report.notes.push_back(entry.workload.name + " failed: " + e.what());
        continue;
      }
      const double dt = nowSeconds() - t0;
      if (traced) {
        report.traced_cell_s.push_back(dt * factor);
      } else {
        report.cell_s.push_back(dt * factor);
        report.request_s.push_back(dt * factor);  // one caller's wait
        report.raw_cell_s.push_back(dt);
        report.untraced_wall_s += dt * factor;
        report.untraced_cpu_s += (processCpuSeconds() - cpu0) * factor;
        ++report.untraced_cells;
      }
      report.counters.addCell(r);
      const std::string& name = entry.workload.name;
      store.check(cellKey(name, "default", "sim"), simDigest(r), report);
      store.check(cellKey(name, "default", "plan"), r.plan.fingerprint(),
                  report);
    }
    report.pass_s.push_back(nowSeconds() - pass_t0);
  }
}

}  // namespace perfbench
