#include "harness/experiment.h"

#include <algorithm>

#include "ir/verifier.h"
#include "spt/loop_analysis.h"
#include "support/check.h"
#include "support/hash.h"

namespace spt::harness {

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// The run's result as a cache entry keeps it, in the header's meta words.
trace::TraceFileMeta metaOf(const interp::RunResult& run) {
  return {static_cast<std::uint64_t>(run.return_value), run.memory_hash};
}

/// The run that produced `entry`'s trace, recovered from its meta words
/// and the instruction count its open counted.
interp::RunResult runOf(const TraceCache::Entry& entry) {
  interp::RunResult run;
  run.return_value = static_cast<std::int64_t>(entry.meta.word0);
  run.memory_hash = entry.meta.word1;
  run.dynamic_instrs = entry.instr_count;
  return run;
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
                                  compiler::CompilationRemarks* remarks,
                                  TraceCache* cache,
                                  const std::string& key_prefix) {
  ExperimentResult result;

  // Everything beyond the program identity that shapes a cached trace: run
  // arguments and the trace budget. The SPT key also folds the plan
  // fingerprint — the transformed program *is* the plan, so two option
  // sets that compile to the same plan legitimately share a trace.
  // The seed is one digit short of the FNV offset basis; cached entries
  // are named by it, so it stays.
  std::uint64_t salt = 1469598103934665603ull;
  for (const std::int64_t a : args) {
    salt = support::fnv1aWord(salt, static_cast<std::uint64_t>(a));
  }
  salt = support::fnv1aWord(salt, mconfig.max_trace_records);
  const auto keyFor = [&](const std::string& tag) {
    return key_prefix + tag + "-" + hex64(salt);
  };

  // Baseline: the unmodified module, interpreted at most once. The run
  // value-profiles the SVP superset for the compiler while it feeds
  // `sink`: the one-core machine, or the trace the cache keeps.
  ir::Module baseline = module;
  baseline.finalize();
  const auto profileBaseline = [&](trace::TraceSink& sink,
                                   profile::TrackedProfile* profile) {
    profile->tracked = compiler::svpSuperset(baseline);
    profile::Profiler profiler(baseline, profile->tracked);
    trace::TeeSink tee;
    tee.add(&profiler);
    tee.add(&sink);
    const interp::RunResult run =
        interpret(baseline, args, mconfig.max_trace_records, tee);
    profile->data = profiler.take();
    return run;
  };
  profile::TrackedProfile primed;
  if (cache == nullptr) {
    sim::BaselineMachine machine(baseline, mconfig);
    result.baseline_run = profileBaseline(machine, &primed);
    result.baseline = machine.finish();
  } else {
    // The entry keeps its producing run's profile, so a hit interprets
    // nothing.
    const TraceCache::Entry& entry = cache->getProfiled(
        keyFor(".base"),
        [&](trace::TraceFileMeta* meta, profile::TrackedProfile* profile) {
          trace::TraceBuffer trace;
          *meta = metaOf(profileBaseline(trace, profile));
          return trace;
        });
    std::optional<profile::TrackedProfile> decoded =
        profile::decodeProfile(entry.profile_sidecar);
    SPT_CHECK_MSG(decoded.has_value(), "trace cache: invalid profile sidecar");
    primed = std::move(*decoded);
    result.baseline_run = runOf(entry);
    sim::BaselineMachine machine(baseline, entry.view, mconfig);
    result.baseline = machine.run();
  }

  // SPT: two-pass cost-driven compilation in place.
  InterpProfileRunner runner(args);
  runner.prime(baseline, std::move(primed.data), std::move(primed.tracked));
  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);
  if (!module.finalized()) module.finalize();

  // The SPT program, interpreted at most once: straight into the SPT
  // machine, which indexes forks as the records arrive, or into the
  // cached trace the machine replays.
  if (cache == nullptr) {
    sim::SptMachine machine(module, mconfig);
    result.spt_run =
        interpret(module, args, mconfig.max_trace_records, machine);
    result.spt = machine.finish();
  } else {
    const TraceCache::Entry& entry = cache->get(
        keyFor(".spt-" + hex64(result.plan.fingerprint())),
        [&](trace::TraceFileMeta* meta) {
          trace::TraceBuffer trace;
          *meta = metaOf(
              interpret(module, args, mconfig.max_trace_records, trace));
          return trace;
        });
    result.spt_run = runOf(entry);
    const trace::LoopIndex index(module, entry.view);
    sim::SptMachine machine(module, entry.view, index, mconfig);
    result.spt = machine.run();
  }

  // Sequential semantics must be preserved by the transformation.
  SPT_CHECK_MSG(
      result.baseline_run.return_value == result.spt_run.return_value,
      "SPT transformation changed the program result");
  SPT_CHECK_MSG(result.baseline_run.memory_hash == result.spt_run.memory_hash,
                "SPT transformation changed the memory image");
  return result;
}

}  // namespace spt::harness
