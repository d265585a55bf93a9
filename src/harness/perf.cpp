#include "harness/perf.h"

#include <chrono>
#include <fstream>
#include <map>

#include "harness/experiment.h"
#include "harness/suite.h"
#include "spt/remarks.h"
#include "support/check.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/table.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

/// Everything a timed run needs, built once per workload up front.
struct PreparedWorkload {
  std::string name;
  ir::Module baseline_module{"empty"};
  ir::Module spt_module{"empty"};
  trace::TraceBuffer baseline_trace;
  trace::TraceBuffer spt_trace;
  std::vector<compiler::PassRemark> passes;  // this compile's pass timings
};

PreparedWorkload prepare(const std::string& name, const PerfOptions& options) {
  PreparedWorkload p;
  p.name = name;
  ir::Module module = workloads::findWorkload(name).build(options.scale);

  p.baseline_module = module;
  p.baseline_module.finalize();

  compiler::SptCompiler cc(
      cellCompilerOptions(name, options.copts, options.max_body));
  InterpProfileRunner runner;
  compiler::CompilationRemarks remarks;
  cc.compile(module, runner, &remarks);
  p.passes = std::move(remarks.passes);
  p.spt_module = std::move(module);

  p.baseline_trace = traceProgram(p.baseline_module).trace;
  p.spt_trace = traceProgram(p.spt_module).trace;
  return p;
}

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Times `run()` `repetitions` times and returns the fastest wall time.
template <typename Fn>
double fastestRun(int repetitions, Fn&& run) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const double t = seconds(std::chrono::steady_clock::now() - start);
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

double millionsPerSecond(std::uint64_t count, double host_seconds) {
  if (host_seconds <= 0.0) return 0.0;
  return static_cast<double>(count) / host_seconds / 1e6;
}

/// The timed phase for one prepared workload (strictly serial — callers
/// must not overlap measurements).
PerfRow measure(PreparedWorkload& p, const PerfOptions& options) {
  PerfRow row;
  row.workload = p.name;
  row.trace_records = p.spt_trace.size();

  sim::MachineResult base_result;
  row.host_baseline_seconds = fastestRun(options.repetitions, [&] {
    sim::BaselineMachine machine(p.baseline_module, p.baseline_trace,
                                 options.machine);
    base_result = machine.run();
  });
  const trace::LoopIndex index(p.spt_module, p.spt_trace);
  sim::MachineResult spt_result;
  row.host_spt_seconds = fastestRun(options.repetitions, [&] {
    sim::SptMachine machine(p.spt_module, p.spt_trace, index,
                            options.machine);
    spt_result = machine.run();
  });

  row.baseline_cycles = base_result.cycles;
  row.spt_cycles = spt_result.cycles;
  row.baseline_sim_instrs = base_result.instrs;
  row.spt_sim_instrs = spt_result.instrs;
  row.baseline_dispatch_fast = base_result.hotpath.dispatch_fast;
  row.baseline_dispatch_fallback = base_result.hotpath.dispatch_fallback;
  row.spt_dispatch_fast = spt_result.hotpath.dispatch_fast;
  row.spt_dispatch_fallback = spt_result.hotpath.dispatch_fallback;
  row.spt_fallback_fork = spt_result.hotpath.fallback_fork;
  row.spt_fallback_spec = spt_result.hotpath.fallback_spec;
  row.spt_fallback_replay = spt_result.hotpath.fallback_replay;
  row.spt_arena_frame_allocs = spt_result.hotpath.arena_frame_allocs;
  row.spt_arena_frame_reuses = spt_result.hotpath.arena_frame_reuses;
  row.spt_records_per_alloc = spt_result.hotpath.recordsPerAlloc();
  row.host_baseline_mips =
      millionsPerSecond(row.baseline_sim_instrs, row.host_baseline_seconds);
  row.host_spt_mips =
      millionsPerSecond(row.spt_sim_instrs, row.host_spt_seconds);

  const interp::ProgramContext ctx(p.spt_module);
  row.host_interp_seconds = fastestRun(options.repetitions, [&] {
    interp::Memory memory;
    trace::NullSink sink;
    interp::Interpreter(ctx, memory, sink).runMain();
  });
  row.host_interp_mrps =
      millionsPerSecond(row.trace_records, row.host_interp_seconds);
  return row;
}

}  // namespace

std::vector<PerfRow> runSimThroughput(const PerfOptions& options,
                                      std::vector<PerfPassRow>* passes) {
  std::vector<std::string> names = options.workloads;
  if (names.empty()) {
    names.push_back("micro.parser_free");
    for (const auto& entry : defaultSuite()) {
      names.push_back(entry.workload.name);
    }
  }

  // Setup (compile + interpret + trace) fans out; timing must not, so the
  // measurement loop below is strictly serial on the calling thread.
  const ParallelSweep sweep(options.setup_jobs);
  std::vector<PreparedWorkload> prepared = sweep.run(
      names.size(),
      [&](std::size_t i) { return prepare(names[i], options); });

  // Aggregate per-pass compile times across workloads, preserving
  // pipeline order (order of first appearance — identical per workload).
  // `prepared` is in submission order, so the aggregation is independent
  // of --jobs.
  if (passes != nullptr) {
    passes->clear();
    std::map<std::string, std::size_t> index;
    for (const PreparedWorkload& p : prepared) {
      for (const compiler::PassRemark& pr : p.passes) {
        const auto [it, fresh] = index.emplace(pr.name, passes->size());
        if (fresh) passes->push_back({pr.name, 0, 0, 0.0});
        PerfPassRow& row = (*passes)[it->second];
        row.invocations += pr.invocations;
        row.mutations += pr.mutations;
        row.host_wall_ms += pr.wall_ms;
      }
    }
  }

  std::vector<PerfRow> rows;
  rows.reserve(prepared.size());
  for (PreparedWorkload& p : prepared) {
    rows.push_back(measure(p, options));
  }
  return rows;
}

void printSimThroughputTable(std::ostream& os,
                             const std::vector<PerfRow>& rows) {
  support::Table t("simulator host throughput (simulated MIPS)");
  // The SPT machine's generic-path records, and of those the main
  // thread's fork issues, the speculative records and the replay
  // re-executions (the rest are main-thread calls, returns and the like).
  // Last, the interpretation of the SPT program alone, in milliseconds
  // and millions of trace records per second.
  t.setHeader({"workload", "trace records", "baseline MIPS", "SPT MIPS",
               "baseline ms", "SPT ms", "SPT fallback", "fork", "spec",
               "replay", "interp ms", "interp Mrec/s"});
  double base_mips_sum = 0.0;
  double spt_mips_sum = 0.0;
  for (const PerfRow& r : rows) {
    t.addRow({r.workload, std::to_string(r.trace_records),
              support::fixed(r.host_baseline_mips, 2),
              support::fixed(r.host_spt_mips, 2),
              support::fixed(r.host_baseline_seconds * 1e3, 2),
              support::fixed(r.host_spt_seconds * 1e3, 2),
              std::to_string(r.spt_dispatch_fallback),
              std::to_string(r.spt_fallback_fork),
              std::to_string(r.spt_fallback_spec),
              std::to_string(r.spt_fallback_replay),
              support::fixed(r.host_interp_seconds * 1e3, 2),
              support::fixed(r.host_interp_mrps, 2)});
    base_mips_sum += r.host_baseline_mips;
    spt_mips_sum += r.host_spt_mips;
  }
  if (!rows.empty()) {
    const double n = static_cast<double>(rows.size());
    t.addRow({"Average", "-", support::fixed(base_mips_sum / n, 2),
              support::fixed(spt_mips_sum / n, 2), "-", "-", "-", "-", "-",
              "-", "-", "-"});
  }
  t.print(os);
}

void printPassTimeTable(std::ostream& os,
                        const std::vector<PerfPassRow>& passes) {
  support::Table t("compile time by pass (setup phase, all workloads)");
  t.setHeader({"pass", "invocations", "mutations", "wall ms"});
  double total_ms = 0.0;
  for (const PerfPassRow& p : passes) {
    t.addRow({p.name, std::to_string(p.invocations),
              std::to_string(p.mutations),
              support::fixed(p.host_wall_ms, 2)});
    total_ms += p.host_wall_ms;
  }
  if (!passes.empty()) {
    t.addRow({"Total", "-", "-", support::fixed(total_ms, 2)});
  }
  t.print(os);
}

bool writeSimThroughputJson(const std::string& path,
                            const std::vector<PerfRow>& rows,
                            const std::vector<PerfPassRow>* passes) {
  std::ofstream out(path);
  if (!out) return false;
  support::JsonWriter w(out);
  w.beginObject();
  w.key("rows").beginArray();
  for (const PerfRow& r : rows) {
    w.beginObject();
    w.member("workload", r.workload);
    w.member("trace_records", r.trace_records);
    w.member("baseline_cycles", r.baseline_cycles);
    w.member("spt_cycles", r.spt_cycles);
    w.member("baseline_sim_instrs", r.baseline_sim_instrs);
    w.member("spt_sim_instrs", r.spt_sim_instrs);
    // Hot-path health: specialized vs generic dispatch, and frame-arena
    // recycling (deterministic — covered by CI determinism diffs).
    w.member("baseline_dispatch_fast", r.baseline_dispatch_fast);
    w.member("baseline_dispatch_fallback", r.baseline_dispatch_fallback);
    w.member("spt_dispatch_fast", r.spt_dispatch_fast);
    w.member("spt_dispatch_fallback", r.spt_dispatch_fallback);
    w.member("spt_fallback_fork", r.spt_fallback_fork);
    w.member("spt_fallback_spec", r.spt_fallback_spec);
    w.member("spt_fallback_replay", r.spt_fallback_replay);
    w.member("spt_arena_frame_allocs", r.spt_arena_frame_allocs);
    w.member("spt_arena_frame_reuses", r.spt_arena_frame_reuses);
    w.member("spt_records_per_alloc", r.spt_records_per_alloc);
    w.member("host_baseline_seconds", r.host_baseline_seconds);
    w.member("host_spt_seconds", r.host_spt_seconds);
    w.member("host_baseline_mips", r.host_baseline_mips);
    w.member("host_spt_mips", r.host_spt_mips);
    w.member("host_interp_seconds", r.host_interp_seconds);
    w.member("host_interp_mrps", r.host_interp_mrps);
    w.endObject();
  }
  w.endArray();
  // Keyed host_pass_times so line-based determinism filters drop the
  // array opener; the per-pass host_wall_ms members are also host_-
  // prefixed, while name/invocations/mutations stay diffable.
  if (passes != nullptr) {
    w.key("host_pass_times").beginArray();
    for (const PerfPassRow& p : *passes) {
      w.beginObject();
      w.member("name", p.name);
      w.member("invocations", p.invocations);
      w.member("mutations", p.mutations);
      w.member("host_wall_ms", p.host_wall_ms);
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace spt::harness
