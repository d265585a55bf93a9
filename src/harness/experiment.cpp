#include "harness/experiment.h"

#include <algorithm>

#include "harness/cell_codec.h"
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

bool isProfile(const std::string& bytes) {
  return profile::decodeProfile(bytes).has_value();
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

profile::ProfileData InterpProfileRunner::interpretProfile(
    const ir::Module& module,
    const std::unordered_set<ir::StaticId>& value_candidates) const {
  profile::Profiler profiler(module, value_candidates);
  interpret(module, args_, 0, profiler);
  return profiler.take();
}

profile::ProfileData InterpProfileRunner::run(
    const ir::Module& module,
    const std::unordered_set<ir::StaticId>& value_candidates) {
  const std::uint64_t digest = module.structuralDigest();
  if (primed_ && primed_->digest == digest &&
      std::all_of(value_candidates.begin(), value_candidates.end(),
                  [&](ir::StaticId sid) {
                    return primed_->profile.tracked.contains(sid);
                  })) {
    profile::ProfileData profile = std::move(primed_->profile.data);
    primed_.reset();
    profile.projectValues(value_candidates);
    return profile;
  }
  if (store_ == nullptr) return interpretProfile(module, value_candidates);
  std::vector<ir::StaticId> sids(value_candidates.begin(),
                                 value_candidates.end());
  std::sort(sids.begin(), sids.end());
  const std::uint64_t sids_digest =
      support::fnv1a(support::kFnvOffsetBasis, sids.data(),
                     sids.size() * sizeof(ir::StaticId));
  const std::string& bytes = store_->getBlob(
      store_key_ + "-" + hex64(digest) + "-" + hex64(sids_digest) + ".prof",
      [&] {
        return profile::encodeProfile(
            {interpretProfile(module, value_candidates), value_candidates});
      },
      isProfile);
  return std::move(profile::decodeProfile(bytes)->data);
}

std::uint64_t baselineConfigDigest(const support::MachineConfig& config) {
  // The fields only the SPT machine reads go back to their defaults.
  const support::MachineConfig defaults;
  support::MachineConfig one_core = config;
  one_core.spec_threads = defaults.spec_threads;
  one_core.recovery = defaults.recovery;
  one_core.register_check = defaults.register_check;
  one_core.speculation_result_buffer_entries =
      defaults.speculation_result_buffer_entries;
  one_core.speculative_store_buffer_entries =
      defaults.speculative_store_buffer_entries;
  one_core.load_address_buffer_entries = defaults.load_address_buffer_entries;
  one_core.rf_copy_overhead = defaults.rf_copy_overhead;
  one_core.fast_commit_overhead = defaults.fast_commit_overhead;
  one_core.oracle = defaults.oracle;
  one_core.fault_plan = defaults.fault_plan;
  ByteWriter w;
  w.u32(sim::kTimingModelVersion);
  encodeMachineConfig(w, one_core);
  return support::fnv1a(support::kFnvOffsetBasis, w.bytes().data(),
                        w.bytes().size());
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

  // Baseline: the unmodified module, interpreted at most once, straight
  // into the one-core machine while the run value-profiles the SVP
  // superset for the compiler.
  ir::Module baseline = module;
  baseline.finalize();
  profile::TrackedProfile primed;
  const auto streamBaseline = [&] {
    primed.tracked = compiler::svpSuperset(baseline);
    profile::Profiler profiler(baseline, primed.tracked);
    sim::BaselineMachine machine(baseline, mconfig);
    trace::TeeSink tee;
    tee.add(&profiler);
    tee.add(&machine);
    result.baseline_run =
        interpret(baseline, args, mconfig.max_trace_records, tee);
    result.baseline = machine.finish();
    primed.data = profiler.take();
  };
  if (cache == nullptr) {
    streamBaseline();
  } else {
    // The same stream, memoized: the run and its one-core result are a
    // function of the program and the config fields the machine reads, so
    // cells that differ only in the SPT machine share one stream; the
    // profile is a function of the program alone. The stream that makes
    // the result stores the profile first, so no cell that finds the
    // result streams again for the profile.
    const std::string key = keyFor(".base");
    const std::string profile_key = key + ".prof";
    const std::string& stored = cache->getBlob(
        key + "-" + hex64(baselineConfigDigest(mconfig)) + ".res",
        [&] {
          streamBaseline();
          cache->getBlob(
              profile_key, [&] { return profile::encodeProfile(primed); },
              isProfile);
          return encodeMachineResult(result.baseline, result.baseline_run);
        },
        [](const std::string& bytes) {
          return decodeMachineResult(bytes).has_value();
        });
    result.baseline = *decodeMachineResult(stored, &result.baseline_run);
    primed = *profile::decodeProfile(cache->getBlob(
        profile_key,
        [&] {
          streamBaseline();
          return profile::encodeProfile(primed);
        },
        isProfile));
  }

  // SPT: two-pass cost-driven compilation in place. With a cache, a
  // module unrolling made keeps its profile there too.
  InterpProfileRunner runner(args, cache, keyFor(".profile"));
  runner.prime(baseline, std::move(primed.data), std::move(primed.tracked));
  compiler::SptCompiler cc(copts);
  result.plan = cc.compile(module, runner, remarks);
  if (!module.finalized()) module.finalize();

  // The SPT program, interpreted at most once: straight into the SPT
  // machine, which indexes forks as the records arrive. With a cache, the
  // cell that produces the trace tees the same stream into the trace file
  // and stores the fork table its machine indexed beside it; every later
  // cell replays the file against the stored table.
  const auto streamSpt = [&](trace::TraceSink* writer) {
    sim::SptMachine machine(module, mconfig);
    trace::TeeSink tee;
    tee.add(&machine);
    if (writer != nullptr) tee.add(writer);
    result.spt_run =
        interpret(module, args, mconfig.max_trace_records,
                  writer != nullptr ? static_cast<trace::TraceSink&>(tee)
                                    : machine);
    result.spt = machine.finish();
    return TraceCache::Streamed{
        metaOf(result.spt_run),
        writer != nullptr ? machine.forks() : trace::ForkTable{}};
  };
  if (cache == nullptr) {
    streamSpt(nullptr);
  } else {
    const std::string key = keyFor(".spt-" + hex64(result.plan.fingerprint()));
    if (const TraceCache::Entry* entry = cache->getOrStream(key, streamSpt)) {
      result.spt_run = runOf(*entry);
      const trace::ForkTable& forks = cache->forks(key, [&] {
        return trace::LoopIndex(module, entry->view).forks();
      });
      sim::SptMachine machine(module, entry->view, forks, mconfig);
      result.spt = machine.run();
    }
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
