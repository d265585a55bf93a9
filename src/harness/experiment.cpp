#include "harness/experiment.h"

#include <algorithm>

#include "ir/verifier.h"
#include "spt/loop_analysis.h"
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
                                profile::ProfileData profile,
                                std::unordered_set<ir::StaticId> tracked) {
  primed_.emplace(Primed{module.structuralDigest(),
                         {std::move(profile), std::move(tracked)}});
}

profile::ProfileData InterpProfileRunner::run(
    const ir::Module& module,
    const std::unordered_set<ir::StaticId>& value_candidates) {
  if (primed_ && primed_->digest == module.structuralDigest() &&
      std::all_of(value_candidates.begin(), value_candidates.end(),
                  [&](ir::StaticId sid) {
                    return primed_->profile.tracked.contains(sid);
                  })) {
    profile::ProfileData profile = std::move(primed_->profile.data);
    primed_.reset();
    profile.projectValues(value_candidates);
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
  // compiler's profile, SVP superset included, and the one-core machine at
  // the same time.
  ir::Module baseline = module;
  baseline.finalize();
  InterpProfileRunner runner(args);
  {
    std::unordered_set<ir::StaticId> superset =
        compiler::svpSuperset(baseline);
    profile::Profiler profiler(baseline, superset);
    {
      sim::BaselineMachine base_machine(baseline, mconfig);
      trace::TeeSink tee;
      tee.add(&profiler);
      tee.add(&base_machine);
      result.baseline_run =
          interpret(baseline, args, mconfig.max_trace_records, tee);
      result.baseline = base_machine.finish();
    }
    // The machine is gone before take() builds the value histograms.
    runner.prime(baseline, profiler.take(), std::move(superset));
  }

  // SPT: two-pass cost-driven compilation in place.
  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);

  // The SPT program, interpreted once straight into the SPT machine.
  if (!module.finalized()) module.finalize();
  sim::SptMachine spt_machine(module, mconfig);
  result.spt_run =
      interpret(module, args, mconfig.max_trace_records, spt_machine);

  // Sequential semantics must be preserved by the transformation.
  SPT_CHECK_MSG(
      result.baseline_run.return_value == result.spt_run.return_value,
      "SPT transformation changed the program result");
  SPT_CHECK_MSG(result.baseline_run.memory_hash == result.spt_run.memory_hash,
                "SPT transformation changed the memory image");
  result.spt = spt_machine.finish();
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

  const auto keyFor = [&](const std::string& tag) {
    return key_prefix + tag + "-" + hex64(salt);
  };
  // Interprets `m` into `sink`, keeping the run's result in the meta words.
  const auto traceInto = [&](const ir::Module& m, trace::TraceSink& sink,
                             trace::TraceFileMeta* meta) {
    const interp::RunResult run =
        interpret(m, args, mconfig.max_trace_records, sink);
    meta->word0 = static_cast<std::uint64_t>(run.return_value);
    meta->word1 = run.memory_hash;
  };

  // The baseline first: the run that produces its trace also profiles the
  // SVP superset, and the entry keeps that profile to prime the compiler.
  const TraceCache::Entry& base_entry = cache.getProfiled(
      keyFor(".base"),
      [&](trace::TraceFileMeta* meta, profile::TrackedProfile* profile) {
        profile->tracked = compiler::svpSuperset(baseline);
        trace::TraceBuffer trace;
        profile::Profiler profiler(baseline, profile->tracked);
        trace::TeeSink tee;
        tee.add(&trace);
        tee.add(&profiler);
        traceInto(baseline, tee, meta);
        profile->data = profiler.take();
        return trace;
      });
  std::optional<profile::TrackedProfile> primed =
      profile::decodeProfile(base_entry.profile_sidecar);
  SPT_CHECK_MSG(primed.has_value(), "trace cache: invalid profile sidecar");
  InterpProfileRunner runner(args);
  runner.prime(baseline, std::move(primed->data), std::move(primed->tracked));

  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);
  if (!module.finalized()) module.finalize();
  const TraceCache::Entry& spt_entry = cache.get(
      keyFor(".spt-" + hex64(result.plan.fingerprint())),
      [&](trace::TraceFileMeta* meta) {
        trace::TraceBuffer trace;
        traceInto(module, trace, meta);
        return trace;
      });

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
