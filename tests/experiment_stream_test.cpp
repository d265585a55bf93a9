// One pass over the baseline program: the experiment interprets the
// unmodified module once and streams that run into both the compiler's
// first profile and the one-core BaselineMachine. These tests pin that the
// stream changes nothing: a streamed machine equals a replay of the stored
// trace field by field, the streamed profile equals a standalone profiling
// run, the experiment equals the plain composition of the layers, and the
// budget diagnostics keep their exact text.
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
#include "support/error.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;
using spt::testing::expectSameRun;

void expectSameProfile(const profile::ProfileData& a,
                       const profile::ProfileData& b) {
  EXPECT_EQ(a.total_instrs, b.total_instrs);
  ASSERT_EQ(a.branches.size(), b.branches.size());
  for (const auto& [sid, stats] : a.branches) {
    ASSERT_TRUE(b.branches.contains(sid)) << sid;
    EXPECT_EQ(stats.taken, b.branches.at(sid).taken) << sid;
    EXPECT_EQ(stats.not_taken, b.branches.at(sid).not_taken) << sid;
  }
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (const auto& [sid, stats] : a.loops) {
    ASSERT_TRUE(b.loops.contains(sid)) << sid;
    EXPECT_EQ(stats.episodes, b.loops.at(sid).episodes) << sid;
    EXPECT_EQ(stats.iterations, b.loops.at(sid).iterations) << sid;
    EXPECT_EQ(stats.dyn_instrs, b.loops.at(sid).dyn_instrs) << sid;
  }
  ASSERT_EQ(a.mem_deps.size(), b.mem_deps.size());
  for (const auto& [header, deps] : a.mem_deps) {
    ASSERT_TRUE(b.mem_deps.contains(header)) << header;
    const profile::MemDepCounts& other = b.mem_deps.at(header);
    ASSERT_EQ(deps.size(), other.size()) << header;
    for (const auto& [pair, stat] : deps) {
      ASSERT_TRUE(other.contains(pair)) << header;
      EXPECT_EQ(stat.count, other.at(pair).count) << header;
      EXPECT_EQ(stat.tail_instrs, other.at(pair).tail_instrs) << header;
    }
  }
  ASSERT_EQ(a.values.size(), b.values.size());
  for (const auto& [sid, stats] : a.values) {
    ASSERT_TRUE(b.values.contains(sid)) << sid;
    EXPECT_EQ(stats.samples, b.values.at(sid).samples) << sid;
    EXPECT_EQ(stats.delta_counts, b.values.at(sid).delta_counts) << sid;
  }
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (const auto& [sid, stats] : a.calls) {
    ASSERT_TRUE(b.calls.contains(sid)) << sid;
    EXPECT_EQ(stats.calls, b.calls.at(sid).calls) << sid;
    EXPECT_EQ(stats.total_instrs, b.calls.at(sid).total_instrs) << sid;
  }
}

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

INSTANTIATE_TEST_SUITE_P(
    Workloads, StreamedBaseline, ::testing::ValuesIn(streamedWorkloads()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

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
      runSptExperiment(w.build(1), cache, "parser.x1", {}, config);
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
