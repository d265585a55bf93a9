// sim_replay: trace once, simulate many. Set-up compiles every suite
// workload at spec_threads {1,2,4} (the sweep grid's cells) and writes
// their traces once into a harness::TraceCache; the timed part replays the
// mapped v3 traces serially through BaselineMachine and SptMachine over
// spec_threads {1,2,4} × recovery {srx_fc, squash}. The simulators do
// nearly all the timed work; interpretation and compilation do none.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness/parallel_sweep.h"
#include "harness/trace_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace spt;

/// One pass of 60 replays on the reference host.
constexpr double kPassSeconds = 5.0;

const std::vector<std::uint32_t> kSpecThreads = {1, 2, 4};
const support::RecoveryMechanism kRecoveries[] = {
    support::RecoveryMechanism::kSelectiveReplayFastCommit,
    support::RecoveryMechanism::kFullSquash,
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One suite workload compiled for one spec_threads value.
struct Program {
  std::string config;  // the sweep grid's tag: "default", "n2", "n4"
  support::MachineConfig machine;
  std::unique_ptr<ir::Module> module;  // transformed; stable address
  std::uint64_t plan_fingerprint = 0;
  const harness::TraceCache::Entry* trace = nullptr;
  std::unique_ptr<trace::LoopIndex> index;
};

struct Workload {
  std::string name;
  std::unique_ptr<ir::Module> baseline;
  const harness::TraceCache::Entry* trace = nullptr;
  std::vector<Program> programs;  // kSpecThreads order
  std::vector<compiler::CompilationRemarks> remarks;
};

/// Everything the replays read. The cache is declared first so it is
/// destroyed last: the indexes and machines hold views into its mappings.
struct Prepared {
  std::unique_ptr<harness::TraceCache> cache;
  std::vector<Workload> workloads;
};

harness::TraceCache::Producer producerFor(ir::Module& module,
                                          const support::MachineConfig& mc,
                                          SpanRecorder& spans,
                                          std::uint64_t cell) {
  return [&module, &mc, &spans, cell](trace::TraceFileMeta* meta) {
    auto s = spans.open("interp.trace", cell);
    harness::TracedRun run =
        harness::traceProgram(module, {}, mc.max_trace_records);
    s.setWork(run.trace.size());
    meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
    meta->word1 = run.result.memory_hash;
    return std::move(run.trace);
  };
}

Workload prepareWorkload(const std::vector<harness::SweepCase>& cases,
                         harness::TraceCache& cache, SpanRecorder& spans,
                         std::uint64_t cell) {
  Workload w;
  const harness::SweepCase& first = cases.front();
  w.name = first.benchmark;
  std::optional<ir::Module> pristine;
  {
    auto s = spans.open("harness.build", cell);
    pristine.emplace(first.entry.workload.build(first.scale));
    w.baseline = std::make_unique<ir::Module>(*pristine);
    w.baseline->finalize();
  }
  {
    auto s = spans.open("trace.cache_get", cell);
    w.trace = &cache.get(w.name + ".base",
                         producerFor(*w.baseline, first.machine, spans, cell));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const harness::SweepCase& c = cases[i];
    const std::uint64_t unit = cell + 1 + i;
    Program p;
    p.config = c.config;
    p.machine = c.machine;
    p.module = std::make_unique<ir::Module>(*pristine);
    compiler::CompilationRemarks remarks;
    {
      auto s = spans.open("spt.compile", unit);
      TimingProfileRunner runner(spans, unit);
      p.plan_fingerprint = compiler::SptCompiler(c.entry.copts)
                               .compile(*p.module, runner, &remarks)
                               .fingerprint();
    }
    w.remarks.push_back(std::move(remarks));
    if (!p.module->finalized()) p.module->finalize();
    {
      auto s = spans.open("trace.cache_get", unit);
      p.trace = &cache.get(w.name + ".spt-" + hex64(p.plan_fingerprint),
                           producerFor(*p.module, c.machine, spans, unit));
    }
    if (p.trace->meta.word0 != w.trace->meta.word0 ||
        p.trace->meta.word1 != w.trace->meta.word1) {
      throw std::runtime_error(w.name + " " + c.config +
                               ": SPT transformation changed the result");
    }
    {
      auto s = spans.open("trace.loop_index", unit);
      p.index = std::make_unique<trace::LoopIndex>(*p.module, p.trace->view);
    }
    w.programs.push_back(std::move(p));
  }
  return w;
}

/// One set-up: compile and trace the whole grid into a fresh cache, one
/// workload per pool thread (at most nproc).
Prepared prepare(const std::string& dir, int rep, SpanRecorder& spans) {
  const std::vector<harness::SweepCase> cases = harness::buildSuiteSweepCases(
      support::MachineConfig{}, compiler::CompilerOptions{}, 1, {},
      kSpecThreads);
  std::vector<std::vector<harness::SweepCase>> grouped;
  for (const harness::SweepCase& c : cases) {
    if (grouped.empty() || grouped.back().front().benchmark != c.benchmark) {
      grouped.emplace_back();
    }
    grouped.back().push_back(c);
  }
  Prepared p;
  p.cache = std::make_unique<harness::TraceCache>(dir);
  const std::size_t jobs =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  p.workloads = harness::ParallelSweep(jobs).run(
      grouped.size(), [&](std::size_t i) {
        return prepareWorkload(grouped[i], *p.cache, spans,
                               100000 * (rep + 1) + 10 * i);
      });
  return p;
}

/// One replay cell: both machines over the mapped traces, each timed.
struct Replayed {
  harness::ExperimentResult result;
  double baseline_s = 0.0;
  double spt_s = 0.0;
};

Replayed replay(const Workload& w, const Program& p,
                const support::MachineConfig& mc, SpanRecorder& spans,
                std::uint64_t cell) {
  Replayed r;
  auto s = spans.open("cell", cell);
  const double t0 = nowSeconds();
  {
    auto b = spans.open("sim.baseline", cell);
    sim::BaselineMachine m(*w.baseline, w.trace->view, mc);
    r.result.baseline = m.run();
    b.setWork(r.result.baseline.instrs);
  }
  const double t1 = nowSeconds();
  {
    auto b = spans.open("sim.spt", cell);
    sim::SptMachine m(*p.module, p.trace->view, *p.index, mc);
    r.result.spt = m.run();
    b.setWork(r.result.spt.instrs);
  }
  r.baseline_s = t1 - t0;
  r.spt_s = nowSeconds() - t1;
  return r;
}

}  // namespace

void runSimReplay(const Options& options, SpanRecorder& spans,
                  DigestStore& store, RunReport& report) {
  Prepared prepared;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::string dir = options.tmp_dir + "/replay" + std::to_string(rep);
    if (prepared.cache) {
      const std::string old = prepared.cache->dir();
      prepared.workloads.clear();
      prepared.cache.reset();
      std::filesystem::remove_all(old);
    }
    const double factor = speedFactor();
    report.speed_factor.push_back(factor);
    const double t0 = nowSeconds();
    {
      auto s = spans.open("setup", 0);
      prepared = prepare(dir, rep, spans);
    }
    report.setup_s.push_back((nowSeconds() - t0) * factor);
  }
  const harness::TraceCache& cache = *prepared.cache;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_records = 0;
  for (const Workload& w : prepared.workloads) {
    for (const compiler::CompilationRemarks& r : w.remarks) {
      report.counters.addCompile(r);
    }
    std::map<std::string, std::uint64_t> files = {
        {w.trace->path, w.trace->view.size()}};
    for (const Program& p : w.programs) {
      files[p.trace->path] = p.trace->view.size();
      store.check(cellKey(w.name, p.config, "plan"), p.plan_fingerprint,
                  report);
    }
    for (const auto& [path, records] : files) {
      trace_bytes += std::filesystem::file_size(path);
      trace_records += records;
    }
  }
  report.layer["trace.cache_hits"] = static_cast<double>(cache.memoryHits());
  report.layer["trace.cache_file_reuses"] =
      static_cast<double>(cache.fileReuses());
  report.layer["trace.cache_produced"] = static_cast<double>(cache.produced());
  report.layer["trace.bytes_per_record"] =
      ratio(static_cast<double>(trace_bytes),
            static_cast<double>(trace_records));

  // Untimed warm-up: one replay per workload, so allocator growth and first
  // touches of the mapped traces are not billed to the first timed pass.
  SpanRecorder untraced(false);
  for (const Workload& w : prepared.workloads) {
    replay(w, w.programs.front(), w.programs.front().machine, untraced, 0);
  }

  // Per workload, the N=1 srx_fc replays: the configuration
  // BENCH_sim_throughput.json's host_*_mips rows measure.
  struct PaperMachine {
    std::vector<double> base_s;
    std::vector<double> spt_s;
    std::uint64_t base_instrs = 0;
    std::uint64_t spt_instrs = 0;
  };
  std::map<std::string, PaperMachine> paper;

  const std::size_t configs = kSpecThreads.size() * std::size(kRecoveries);
  const int passes = passesFor(options, kPassSeconds);
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = tracedPass(options, pass);
    const double pass_t0 = nowSeconds();
    for (const std::size_t wi :
         seededOrder(options.seed, static_cast<std::uint64_t>(pass),
                     prepared.workloads.size())) {
      const Workload& w = prepared.workloads[wi];
      const double factor = speedFactor();
      report.speed_factor.push_back(factor);
      const double cpu0 = processCpuSeconds();
      const double request_t0 = nowSeconds();
      std::uint64_t cells = 0;
      for (const std::size_t ci :
           seededOrder(options.seed,
                       1000 + 100 * static_cast<std::uint64_t>(pass) + wi,
                       configs)) {
        const Program& p = w.programs[ci / std::size(kRecoveries)];
        const support::RecoveryMechanism recovery =
            kRecoveries[ci % std::size(kRecoveries)];
        support::MachineConfig mc = p.machine;
        mc.recovery = recovery;
        const std::uint64_t cell = 1000 * (pass + 1) + 10 * wi + ci;
        ++report.attempted;
        Replayed r;
        try {
          r = replay(w, p, mc, spans, cell);
        } catch (const std::exception& e) {
          ++report.failed;
          report.notes.push_back(w.name + " " + p.config + " failed: " +
                                 e.what());
          continue;
        }
        ++cells;
        const double cell_s = r.baseline_s + r.spt_s;
        (traced ? report.traced_cell_s : report.cell_s)
            .push_back(cell_s * factor);
        if (!traced) report.raw_cell_s.push_back(cell_s);
        report.counters.addCell(r.result);
        const bool squash =
            recovery == support::RecoveryMechanism::kFullSquash;
        store.check(cellKey(w.name, squash ? p.config + "-squash" : p.config,
                            "sim"),
                    simDigest(r.result), report);
        if (!squash && p.config == "default") {
          PaperMachine& pm = paper[w.name];
          pm.base_s.push_back(r.baseline_s);
          pm.spt_s.push_back(r.spt_s);
          pm.base_instrs = r.result.baseline.instrs;
          pm.spt_instrs = r.result.spt.instrs;
        }
      }
      if (!traced) {
        const double request_s = (nowSeconds() - request_t0) * factor;
        report.request_s.push_back(request_s);
        report.untraced_wall_s += request_s;
        report.untraced_cpu_s += (processCpuSeconds() - cpu0) * factor;
        report.untraced_cells += cells;
      }
    }
    report.pass_s.push_back(nowSeconds() - pass_t0);
  }

  double base_mips = 0.0;
  double spt_mips = 0.0;
  for (const auto& [name, pm] : paper) {
    base_mips += static_cast<double>(pm.base_instrs) / median(pm.base_s) / 1e6;
    spt_mips += static_cast<double>(pm.spt_instrs) / median(pm.spt_s) / 1e6;
  }
  const double n = static_cast<double>(paper.size());
  report.layer["sim_mips_baseline"] = ratio(base_mips, n);
  report.layer["sim_mips_spt"] = ratio(spt_mips, n);
}

}  // namespace perfbench
