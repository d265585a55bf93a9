#include "harness/experiment.h"

#include "ir/verifier.h"
#include "support/check.h"

namespace spt::harness {

namespace {

std::uint64_t foldWord(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t instrCountOf(trace::TraceView view) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    n += view[i].kind == trace::RecordKind::kInstr ? 1 : 0;
  }
  return n;
}

/// Interprets the finalized `module`'s main function into `sink`. A
/// non-zero `max_records` caps the interpreted instruction count.
interp::RunResult interpret(const ir::Module& module,
                            const std::vector<std::int64_t>& args,
                            std::uint64_t max_records,
                            trace::TraceSink& sink) {
  interp::ProgramContext ctx(module);
  interp::Memory memory;
  interp::Interpreter interp(ctx, memory, sink);
  interp::RunLimits limits;
  if (max_records != 0) limits.max_instrs = max_records;
  return interp.runMain(args, limits);
}

}  // namespace

void InterpProfileRunner::prime(const ir::Module& module,
                                profile::ProfileData profile) {
  primed_.emplace(module.structuralDigest(), std::move(profile));
}

profile::ProfileData InterpProfileRunner::run(
    const ir::Module& module,
    const std::unordered_set<ir::StaticId>& value_candidates) {
  if (primed_ && value_candidates.empty() &&
      primed_->first == module.structuralDigest()) {
    profile::ProfileData profile = std::move(primed_->second);
    primed_.reset();
    return profile;
  }
  profile::Profiler profiler(module, value_candidates);
  interpret(module, args_, 0, profiler);
  return profiler.take();
}

TracedRun traceProgram(ir::Module& module, std::vector<std::int64_t> args,
                       std::uint64_t max_records) {
  if (!module.finalized()) module.finalize();
  TracedRun out;
  out.result = interpret(module, args, max_records, out.trace);
  return out;
}

ExperimentResult runSptExperiment(ir::Module module,
                                  const compiler::CompilerOptions& copts,
                                  const support::MachineConfig& mconfig,
                                  std::vector<std::int64_t> args,
                                  compiler::CompilationRemarks* remarks) {
  ExperimentResult result;

  // Baseline: the unmodified module, interpreted once. The run feeds the
  // compiler's first profile and the one-core machine at the same time.
  ir::Module baseline = module;
  baseline.finalize();
  InterpProfileRunner runner(args);
  {
    profile::Profiler profiler(baseline);
    sim::BaselineMachine base_machine(baseline, mconfig);
    trace::TeeSink tee;
    tee.add(&profiler);
    tee.add(&base_machine);
    result.baseline_run =
        interpret(baseline, args, mconfig.max_trace_records, tee);
    result.baseline = base_machine.finish();
    runner.prime(baseline, profiler.take());
  }

  // SPT: two-pass cost-driven compilation in place.
  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);

  // Sequential semantics must be preserved by the transformation.
  TracedRun spt_run = traceProgram(module, args, mconfig.max_trace_records);
  result.spt_run = spt_run.result;
  SPT_CHECK_MSG(
      result.baseline_run.return_value == result.spt_run.return_value,
      "SPT transformation changed the program result");
  SPT_CHECK_MSG(result.baseline_run.memory_hash == result.spt_run.memory_hash,
                "SPT transformation changed the memory image");

  const trace::LoopIndex index(module, spt_run.trace);
  sim::SptMachine spt_machine(module, spt_run.trace, index, mconfig);
  result.spt = spt_machine.run();
  return result;
}

ExperimentResult runSptExperiment(ir::Module module, TraceCache& cache,
                                  const std::string& key_prefix,
                                  const compiler::CompilerOptions& copts,
                                  const support::MachineConfig& mconfig,
                                  std::vector<std::int64_t> args,
                                  compiler::CompilationRemarks* remarks) {
  ExperimentResult result;

  ir::Module baseline = module;
  baseline.finalize();

  // Everything beyond the program identity that shapes the trace: run
  // arguments and the trace budget. The SPT key also folds the plan
  // fingerprint — the transformed program *is* the plan, so two option
  // sets that compile to the same plan legitimately share a trace.
  std::uint64_t salt = 1469598103934665603ull;
  for (const std::int64_t a : args) {
    salt = foldWord(salt, static_cast<std::uint64_t>(a));
  }
  salt = foldWord(salt, mconfig.max_trace_records);

  // When `profiler` is set and this call produces the trace, the run
  // also feeds a Profiler constructed into it.
  const auto entryFor =
      [&](const std::string& tag, const ir::Module& m,
          std::optional<profile::Profiler>* profiler)
      -> const TraceCache::Entry& {
    return cache.get(
        key_prefix + tag + "-" + hex64(salt),
        [&](trace::TraceFileMeta* meta) {
          trace::TraceBuffer trace;
          trace::TeeSink tee;
          tee.add(&trace);
          if (profiler != nullptr) tee.add(&profiler->emplace(m));
          const interp::RunResult run =
              interpret(m, args, mconfig.max_trace_records, tee);
          meta->word0 = static_cast<std::uint64_t>(run.return_value);
          meta->word1 = run.memory_hash;
          return trace;
        });
  };

  // The baseline first: when this call interprets it (a cache miss), the
  // same run yields the compiler's first profile.
  InterpProfileRunner runner(args);
  std::optional<profile::Profiler> profiler;
  const TraceCache::Entry& base_entry = entryFor(".base", baseline, &profiler);
  if (profiler) runner.prime(baseline, profiler->take());

  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);
  if (!module.finalized()) module.finalize();
  const TraceCache::Entry& spt_entry =
      entryFor(".spt-" + hex64(result.plan.fingerprint()), module, nullptr);

  result.baseline_run.return_value =
      static_cast<std::int64_t>(base_entry.meta.word0);
  result.baseline_run.memory_hash = base_entry.meta.word1;
  result.baseline_run.dynamic_instrs = instrCountOf(base_entry.view);
  result.spt_run.return_value =
      static_cast<std::int64_t>(spt_entry.meta.word0);
  result.spt_run.memory_hash = spt_entry.meta.word1;
  result.spt_run.dynamic_instrs = instrCountOf(spt_entry.view);
  SPT_CHECK_MSG(
      result.baseline_run.return_value == result.spt_run.return_value,
      "SPT transformation changed the program result");
  SPT_CHECK_MSG(result.baseline_run.memory_hash == result.spt_run.memory_hash,
                "SPT transformation changed the memory image");

  // Simulate straight off the mapped files; the machines only need the
  // views to stay valid until they are destroyed below.
  sim::BaselineMachine base_machine(baseline, base_entry.view, mconfig);
  result.baseline = base_machine.run();
  const trace::LoopIndex index(module, spt_entry.view);
  sim::SptMachine spt_machine(module, spt_entry.view, index, mconfig);
  result.spt = spt_machine.run();
  return result;
}

}  // namespace spt::harness
