// One pass over the baseline program: the experiment interprets the
// unmodified module once and streams that run into both the compiler's
// profile and the one-core BaselineMachine. These tests pin that the
// stream changes nothing: a streamed machine equals a replay of the stored
// trace field by field, the streamed profile equals a standalone profiling
// run, the experiment equals the plain composition of the layers, and the
// budget diagnostics keep their exact text. They also pin one profile per
// program: the run value-profiles the static SVP superset, every candidate
// set lies within it and projects exactly, and a cell interprets each
// program at most once, a trace-cache hit none.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "expect_same.h"
#include "harness/experiment.h"
#include "harness/trace_cache.h"
#include "interp/interpreter.h"
#include "random_programs.h"
#include "spt/loop_analysis.h"
#include "spt/pass.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;
using spt::testing::expectSameProfile;
using spt::testing::expectSameRun;

std::string remarksJson(const compiler::CompilationRemarks& remarks) {
  std::ostringstream os;
  remarks.writeJson(os);
  return os.str();
}

void expectSameExperiment(const ExperimentResult& a,
                          const ExperimentResult& b) {
  EXPECT_EQ(a.plan.fingerprint(), b.plan.fingerprint());
  expectSameRun(a.baseline_run, b.baseline_run);
  expectSameRun(a.spt_run, b.spt_run);
  expectSameMachineResult(a.baseline, b.baseline);
  expectSameMachineResult(a.spt, b.spt);
}

/// runSptExperiment as the plain composition of the layers: a profile
/// runner that always interprets, both traces stored, and the baseline
/// machine replaying its stored trace.
ExperimentResult referenceExperiment(ir::Module module,
                                     const support::MachineConfig& mconfig,
                                     compiler::CompilationRemarks* remarks) {
  ExperimentResult result;
  ir::Module baseline = module;
  baseline.finalize();
  InterpProfileRunner runner;
  result.plan = compiler::SptCompiler().compile(module, runner, remarks);
  const TracedRun base_run =
      traceProgram(baseline, {}, mconfig.max_trace_records);
  const TracedRun spt_run = traceProgram(module, {}, mconfig.max_trace_records);
  result.baseline_run = base_run.result;
  result.spt_run = spt_run.result;
  result.baseline =
      sim::BaselineMachine(baseline, base_run.trace, mconfig).run();
  const trace::LoopIndex index(module, spt_run.trace);
  result.spt = sim::SptMachine(module, spt_run.trace, index, mconfig).run();
  return result;
}

std::string freshDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "spt_experiment_stream_test/" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------- one run, two consumers

class StreamedBaseline : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamedBaseline, MatchesStoredReplayAndStandaloneProfile) {
  ir::Module module = workloads::findWorkload(GetParam()).build(1);
  module.finalize();
  const support::MachineConfig config;

  // The one pass: a single interpreter run into the profiler and the
  // machine.
  profile::Profiler profiler(module);
  sim::BaselineMachine streamed(module, config);
  trace::TeeSink tee;
  tee.add(&profiler);
  tee.add(&streamed);
  interp::ProgramContext ctx(module);
  interp::Memory memory;
  const interp::RunResult run =
      interp::Interpreter(ctx, memory, tee).runMain({});
  const sim::MachineResult streamed_result = streamed.finish();

  const TracedRun stored = traceProgram(module);
  expectSameRun(run, stored.result);
  const sim::MachineResult replayed =
      sim::BaselineMachine(module, stored.trace, config).run();
  expectSameMachineResult(streamed_result, replayed);
  EXPECT_EQ(streamed_result.instrs, run.dynamic_instrs);

  InterpProfileRunner runner;
  expectSameProfile(profiler.take(), runner.run(module, {}));
}

/// The ten suite workloads plus micro.parser_free.
std::vector<std::string> streamedWorkloads() {
  std::vector<std::string> names;
  for (const workloads::Workload& w : workloads::specSuite()) {
    names.push_back(w.name);
  }
  names.push_back("micro.parser_free");
  return names;
}

/// A workload name as a test or file name: dots become underscores.
std::string safeName(std::string name) {
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

std::string paramName(const ::testing::TestParamInfo<std::string>& info) {
  return safeName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Workloads, StreamedBaseline,
                         ::testing::ValuesIn(streamedWorkloads()), paramName);

TEST(StreamedBaseline, BudgetDiagnosticsDoNotDependOnBlocks) {
  // A budget check lands on a record index inside a later block; both
  // paths must stop at the same global index with the same message.
  ir::Module module = workloads::findWorkload("parser").build(1);
  const TracedRun stored = traceProgram(module);
  for (const std::uint64_t limit : {5000ull, 20000ull}) {
    support::MachineConfig config;
    config.max_simulated_records = limit;
    std::string replayed;
    std::string streamed;
    try {
      sim::BaselineMachine(module, stored.trace, config).run();
    } catch (const support::SptBudgetExceeded& e) {
      replayed = e.what();
    }
    try {
      sim::BaselineMachine machine(module, config);
      for (const trace::Record& r : stored.trace.records()) {
        machine.onRecord(r);
      }
      machine.finish();
    } catch (const support::SptBudgetExceeded& e) {
      streamed = e.what();
    }
    EXPECT_FALSE(replayed.empty());
    EXPECT_EQ(streamed, replayed);
  }
}

TEST(InterpProfileRunner, PrimedProfileAnswersOnlyTheFirstPlainRequest) {
  ir::Module module = workloads::findWorkload("micro.parser_free").build(1);
  module.finalize();
  InterpProfileRunner runner;
  const profile::ProfileData fresh = runner.run(module, {});
  profile::ProfileData sentinel;
  sentinel.total_instrs = 12345;

  runner.prime(module, sentinel);
  EXPECT_EQ(runner.run(module, {1}).total_instrs, fresh.total_instrs);
  EXPECT_EQ(runner.run(module, {}).total_instrs, 12345u);
  EXPECT_EQ(runner.run(module, {}).total_instrs, fresh.total_instrs);

  ir::Module other = workloads::findWorkload("parser").build(1);
  other.finalize();
  runner.prime(other, sentinel);
  EXPECT_EQ(runner.run(module, {}).total_instrs, fresh.total_instrs);
}

TEST(InterpProfileRunner, PrimedSupersetAnswersOneRequestWithinIt) {
  ir::Module module = workloads::findWorkload("micro.svp_stride").build(1);
  module.finalize();
  const std::unordered_set<ir::StaticId> superset =
      compiler::svpSuperset(module);
  ASSERT_FALSE(superset.empty());
  const ir::StaticId inside = *superset.begin();
  ir::StaticId outside = 0;
  while (superset.contains(outside)) ++outside;

  InterpProfileRunner runner;
  runner.prime(module, runner.run(module, superset), superset);
  // A request outside the tracked sids interprets and keeps the profile.
  std::uint64_t before = interp::Interpreter::mainRuns();
  expectSameProfile(runner.run(module, {inside, outside}),
                    InterpProfileRunner().run(module, {inside, outside}));
  EXPECT_EQ(interp::Interpreter::mainRuns() - before, 2u);
  // A request within them is the projection, and interprets nothing.
  before = interp::Interpreter::mainRuns();
  const profile::ProfileData projected = runner.run(module, {inside});
  EXPECT_EQ(interp::Interpreter::mainRuns() - before, 0u);
  expectSameProfile(projected, InterpProfileRunner().run(module, {inside}));
  before = interp::Interpreter::mainRuns();
  runner.run(module, {inside});
  EXPECT_EQ(interp::Interpreter::mainRuns() - before, 1u);
}

// ------------------------------------------ one profile per program

/// Records every module it is asked to profile, with the request.
class RecordingRunner final : public compiler::ProfileRunner {
 public:
  struct Call {
    ir::Module module;
    std::unordered_set<ir::StaticId> request;
  };

  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& request) override {
    calls.push_back({module, request});
    return inner.run(module, request);
  }

  std::vector<Call> calls;
  InterpProfileRunner inner;
};

/// Runs the pipeline attempts SptCompiler::compile runs, deny-unroll
/// restart included, and checks every module the pipeline profiles: its
/// value candidates lie in its SVP superset, the profile partition search
/// read equals a dedicated run over exactly those candidates (none with
/// SVP off), and the runner was asked once per module structure, for its
/// superset. Returns the number of attempts.
int checkOneProfilePerModule(ir::Module module,
                             const compiler::CompilerOptions& options = {}) {
  module.finalize();
  const ir::Module pristine = module;
  compiler::PassManager pm;
  compiler::buildSptPipeline(pm);
  compiler::ProfileCache cache;
  RecordingRunner runner;
  std::unordered_set<std::string> deny;
  int attempts = 0;
  while (attempts < 2) {
    ++attempts;
    module = pristine;
    compiler::AnalysisManager analyses(module);
    compiler::PipelineState state;
    state.deny_unroll = &deny;
    compiler::PassContext ctx{module, runner, options, analyses, cache, state};
    pm.run(ctx);

    // Candidate selection analyzed the pristine module, or the one
    // unrolling made, which the runner profiled last.
    const ir::Module& analyzed = state.unroll_factors.empty()
                                     ? pristine
                                     : runner.calls.back().module;
    const std::unordered_set<ir::StaticId> superset =
        compiler::svpSuperset(analyzed);
    for (const ir::StaticId sid : state.value_candidates) {
      EXPECT_TRUE(superset.contains(sid)) << sid;
    }
    const std::unordered_set<ir::StaticId> profiled =
        options.enable_svp ? state.value_candidates
                           : std::unordered_set<ir::StaticId>{};
    expectSameProfile(state.profile,
                      InterpProfileRunner().run(analyzed, profiled));

    for (const compiler::LoopPlanEntry& entry : state.plan.loops) {
      if (entry.unroll_factor > 1 && !entry.transformed) {
        deny.insert(entry.name);
      }
    }
    if (deny.empty()) break;
  }
  std::unordered_set<std::uint64_t> digests;
  for (const RecordingRunner::Call& call : runner.calls) {
    EXPECT_EQ(call.request, compiler::svpSuperset(call.module));
    EXPECT_TRUE(digests.insert(call.module.structuralDigest()).second);
  }
  return attempts;
}

/// The ten suite workloads plus both microkernels.
std::vector<std::string> profiledWorkloads() {
  std::vector<std::string> names = streamedWorkloads();
  names.push_back("micro.svp_stride");
  return names;
}

class OneProfilePerProgram : public ::testing::TestWithParam<std::string> {};

TEST_P(OneProfilePerProgram, CandidatesLieInTheSupersetAndProjectExactly) {
  const int attempts =
      checkOneProfilePerModule(workloads::findWorkload(GetParam()).build(1));
  // gap is the suite's one workload that unrolls and then restarts.
  EXPECT_EQ(attempts, GetParam() == "gap" ? 2 : 1);
  compiler::CompilerOptions no_svp;
  no_svp.enable_svp = false;
  checkOneProfilePerModule(workloads::findWorkload(GetParam()).build(1),
                           no_svp);
}

TEST_P(OneProfilePerProgram, ColdCellInterpretsEachProgramOnceAndAHitNone) {
  const workloads::Workload w = workloads::findWorkload(GetParam());
  // Programs a cell interprets beyond the baseline and the SPT program:
  // the module unrolling made, for gap.
  const std::uint64_t unrolled = GetParam() == "gap" ? 1 : 0;
  compiler::CompilationRemarks remarks;
  const auto runsOf = [](const auto& cell) {
    const std::uint64_t before = interp::Interpreter::mainRuns();
    cell();
    return interp::Interpreter::mainRuns() - before;
  };
  EXPECT_EQ(runsOf([&] { runSptExperiment(w.build(1), {}, {}, {}, &remarks); }),
            2 + unrolled);
  EXPECT_EQ(remarks.profile_runs, 1 + unrolled);

  const std::string dir = freshDir("runs_" + safeName(GetParam()));
  const std::string key = w.name + ".x1";
  const auto cachedRuns = [&](TraceCache& cache) {
    return runsOf([&] {
      runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, key);
    });
  };
  // The cache keeps the baseline result and the unrolled module's
  // profile as blobs, so a hit interprets nothing, gap's included.
  {
    TraceCache cache(dir);
    EXPECT_EQ(cachedRuns(cache), 2 + unrolled) << "cold";
    EXPECT_EQ(cachedRuns(cache), 0u) << "memory hit";
    EXPECT_EQ(cache.produced(), 2u);
    EXPECT_EQ(cache.blobsProduced(), 1 + unrolled);
  }
  TraceCache cache(dir);
  compiler::CompilationRemarks warm;
  EXPECT_EQ(runsOf([&] {
              runSptExperiment(w.build(1), {}, {}, {}, &warm, &cache, key);
            }),
            0u)
      << "file hit";
  EXPECT_EQ(warm.profile_runs, 1 + unrolled);
  EXPECT_EQ(cache.produced(), 0u);
  EXPECT_EQ(cache.fileReuses(), 2u);
  EXPECT_EQ(cache.blobsProduced(), 0u);
  EXPECT_EQ(cache.blobHits(), 1 + unrolled);
}

INSTANTIATE_TEST_SUITE_P(Workloads, OneProfilePerProgram,
                         ::testing::ValuesIn(profiledWorkloads()), paramName);

class OneProfilePerRandomProgram
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneProfilePerRandomProgram,
       CandidatesLieInTheSupersetAndProjectExactly) {
  checkOneProfilePerModule(testing::generateRandomProgram(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneProfilePerRandomProgram,
                         ::testing::Range<std::uint64_t>(2000, 2050));

// -------------------------------------- the experiment as a whole

class StreamedExperiment : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamedExperiment, MatchesReferenceComposition) {
  const support::MachineConfig config;
  compiler::CompilationRemarks remarks;
  const ExperimentResult actual = runSptExperiment(
      testing::generateRandomProgram(GetParam()), {}, config, {}, &remarks);
  compiler::CompilationRemarks ref_remarks;
  const ExperimentResult expected = referenceExperiment(
      testing::generateRandomProgram(GetParam()), config, &ref_remarks);
  expectSameExperiment(actual, expected);
  EXPECT_EQ(remarksJson(remarks), remarksJson(ref_remarks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamedExperiment,
                         ::testing::Range<std::uint64_t>(1000, 1050));

// ------------------------------------------------ budget diagnostics

/// what() of the SptBudgetExceeded one parser cell throws under `config`,
/// through the plain overload or a fresh trace cache.
std::string budgetWhat(const support::MachineConfig& config, bool cached) {
  const workloads::Workload w = workloads::findWorkload("parser");
  try {
    if (cached) {
      TraceCache cache(freshDir("budget"));
      runSptExperiment(w.build(1), {}, config, {}, nullptr, &cache,
                       "parser.x1");
    } else {
      runSptExperiment(w.build(1), {}, config);
    }
  } catch (const support::SptBudgetExceeded& e) {
    return e.what();
  }
  return "no budget exceeded";
}

TEST(StreamedExperiment, BudgetDiagnosticsAreUnchanged) {
  // The texts the two-trace experiment produced for the same cells.
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "plain");
    support::MachineConfig trace_budget;
    trace_budget.max_trace_records = 5000;
    EXPECT_EQ(budgetWhat(trace_budget, cached),
              "interpreted instructions budget exceeded: 5000 > 5000");
    support::MachineConfig record_budget;
    record_budget.max_simulated_records = 5000;
    EXPECT_EQ(budgetWhat(record_budget, cached),
              "simulated trace records budget exceeded: 5120 > 5000");
    support::MachineConfig cycle_budget;
    cycle_budget.max_simulated_cycles = 1000;
    EXPECT_EQ(budgetWhat(cycle_budget, cached),
              "simulated cycles budget exceeded: 1632 > 1000");
  }
}

}  // namespace
}  // namespace spt::harness
