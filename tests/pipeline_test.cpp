// Tests for the SPT pass-pipeline infrastructure: AnalysisManager caching
// and invalidation, the cross-attempt ProfileCache (the deny-unroll
// restart must not re-profile), the detailed IR verifier, compilation
// remarks (schema and byte-determinism), and the verify-between-passes
// instrumentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/experiment.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "spt/analysis_manager.h"
#include "spt/driver.h"
#include "spt/profile_cache.h"
#include "spt/remarks.h"

namespace spt::compiler {
namespace {

using namespace ir;

/// Accumulator loop: s += i*i — the carried accumulator's slice is the
/// whole body, so no feasible partition wins. Small hot body, so the
/// compiler unrolls it, then rejects it, which forces the deny-unroll
/// restart (the scenario the ProfileCache exists for).
FuncId buildAccumulatorLoop(Module& m, std::int64_t n) {
  const FuncId f = m.addFunction("main", 0);
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("acc_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg s = b.func().newReg();
  const Reg nr = b.func().newReg();

  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(s, 0);
  b.constTo(nr, n);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, nr);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg sq = b.mul(i, i);
  const Reg s2 = b.add(s, sq);
  b.movTo(s, s2);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(s);
  m.setMainFunc(f);
  return f;
}

/// Straight-line function (no loop) used for invalidation tests.
FuncId buildStraightLine(Module& m, const std::string& name) {
  const FuncId f = m.addFunction(name, 0);
  IrBuilder b(m, f);
  b.setInsertPoint(b.createBlock("entry"));
  const Reg a = b.iconst(2);
  const Reg c = b.mul(a, a);
  b.ret(c);
  if (m.mainFunc() == kInvalidFunc) m.setMainFunc(f);
  return f;
}

// ------------------------------------------------------- AnalysisManager

// Each analysis is computed once and served from the cache afterwards;
// derived getters (dominators, loops, defuse) hit the cached prerequisites.
TEST(AnalysisManager, HitAndMissCounters) {
  Module m("am");
  const FuncId f = buildAccumulatorLoop(m, 10);
  m.finalize();
  AnalysisManager am(m);

  am.cfg(f);
  EXPECT_EQ(am.misses(), 1u);
  EXPECT_EQ(am.hits(), 0u);
  am.cfg(f);
  EXPECT_EQ(am.misses(), 1u);
  EXPECT_EQ(am.hits(), 1u);

  am.dominators(f);  // cfg hit + dom miss
  EXPECT_EQ(am.misses(), 2u);
  EXPECT_EQ(am.hits(), 2u);
  // loopForest queries cfg directly and again through dominators: 3 hits.
  am.loopForest(f);
  EXPECT_EQ(am.misses(), 3u);
  EXPECT_EQ(am.hits(), 5u);
  am.defUse(f);  // cfg hit + defuse miss
  EXPECT_EQ(am.misses(), 4u);
  EXPECT_EQ(am.hits(), 6u);
  am.modRef();
  EXPECT_EQ(am.misses(), 5u);
  EXPECT_EQ(am.hits(), 6u);
  am.modRef();
  EXPECT_EQ(am.misses(), 5u);
  EXPECT_EQ(am.hits(), 7u);
}

// Without invalidation a mutated function's cached analyses are stale;
// invalidateFunction drops exactly them (plus the module-level summary).
TEST(AnalysisManager, InvalidationDropsStaleAnalyses) {
  Module m("stale");
  const FuncId f = buildStraightLine(m, "main");
  m.finalize();
  AnalysisManager am(m);

  EXPECT_EQ(am.loopForest(f).loopCount(), 0u);

  // Mutate: rewrite the function into a 2-block self-loop shape by adding
  // a back-edge block after the entry.
  Function& func = m.function(f);
  func.blocks.clear();
  IrBuilder b(m, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("loop");
  const BlockId ex = b.createBlock("exit");
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(i, 0);
  b.constTo(n, 4);
  b.br(head);
  b.setInsertPoint(head);
  const Reg one = b.iconst(1);
  b.movTo(i, b.add(i, one));
  b.condBr(b.cmpLt(i, n), head, ex);
  b.setInsertPoint(ex);
  b.ret(i);
  m.finalize();

  // The cache has no idea the IR changed: stale answer.
  EXPECT_EQ(am.loopForest(f).loopCount(), 0u);

  am.invalidateFunction(f);
  EXPECT_EQ(am.loopForest(f).loopCount(), 1u);

  am.invalidateAll();
  const std::uint64_t misses_before = am.misses();
  am.loopForest(f);
  EXPECT_EQ(am.misses(), misses_before + 3);  // cfg + dom + forest recomputed
}

// ----------------------------------------------------------- ProfileCache

/// Stub runner that counts invocations and returns a marker profile.
class CountingStubRunner final : public ProfileRunner {
 public:
  profile::ProfileData run(
      const ir::Module&,
      const std::unordered_set<ir::StaticId>&) override {
    ++runs;
    profile::ProfileData p;
    p.total_instrs = 100 + runs;  // distinguishable per miss
    return p;
  }
  int runs = 0;
};

TEST(ProfileCache, MemoizesOnDigestAndCandidates) {
  Module m("pc");
  buildAccumulatorLoop(m, 10);
  m.finalize();

  CountingStubRunner runner;
  ProfileCache cache;
  const auto p1 = cache.run(m, {}, runner);
  EXPECT_EQ(runner.runs, 1);
  const auto p2 = cache.run(m, {}, runner);
  EXPECT_EQ(runner.runs, 1) << "same key must not re-run the profiler";
  EXPECT_EQ(p1.total_instrs, p2.total_instrs);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A different candidate set is a different key.
  cache.run(m, {ir::StaticId{3}}, runner);
  EXPECT_EQ(runner.runs, 2);
  // Candidate-set order is canonicalized: {3, 5} == {5, 3}.
  cache.run(m, {ir::StaticId{3}, ir::StaticId{5}}, runner);
  cache.run(m, {ir::StaticId{5}, ir::StaticId{3}}, runner);
  EXPECT_EQ(runner.runs, 3);

  // A structurally identical module instance hits (digest-keyed), and
  // re-finalizing does not change the key.
  Module m2("pc-clone");
  buildAccumulatorLoop(m2, 10);
  m2.finalize();
  ASSERT_EQ(m.structuralDigest(), m2.structuralDigest());
  cache.run(m2, {}, runner);
  EXPECT_EQ(runner.runs, 3);

  // A structurally different module misses.
  Module m3("pc-other");
  buildAccumulatorLoop(m3, 11);
  m3.finalize();
  ASSERT_NE(m.structuralDigest(), m3.structuralDigest());
  cache.run(m3, {}, runner);
  EXPECT_EQ(runner.runs, 4);
}

/// Real interpreter-backed runner that counts invocations.
class CountingInterpRunner final : public ProfileRunner {
 public:
  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) override {
    ++runs;
    return inner.run(module, value_candidates);
  }
  harness::InterpProfileRunner inner;
  int runs = 0;
};

// The deny-unroll restart scenario: the accumulator loop is unrolled, its
// partition search finds nothing feasible, so compilation restarts from
// the pristine module with the loop deny-listed. Every run value-profiles
// its module's SVP superset, so the compile takes one profiler invocation
// per module structure: the pristine module and the unrolled one. The
// unrolled module's SVP request and both of the restart's requests on the
// pristine module are cache hits.
TEST(ProfileCache, DenyUnrollRestartDoesNotReprofile) {
  Module m("restart");
  buildAccumulatorLoop(m, 50);

  CountingInterpRunner runner;
  SptCompiler cc;
  CompilationRemarks remarks;
  const SptPlan plan = cc.compile(m, runner, &remarks);

  ASSERT_EQ(plan.loops.size(), 1u);
  const LoopPlanEntry& entry = plan.loops[0];
  EXPECT_EQ(entry.name, "main.acc_loop");
  // Final (restart) plan: unrolling was denied, loop still rejected.
  EXPECT_EQ(entry.unroll_factor, 1);
  EXPECT_FALSE(entry.transformed);

  EXPECT_EQ(remarks.restarts, 1u);
  ASSERT_EQ(remarks.deny_unroll.size(), 1u);
  EXPECT_EQ(remarks.deny_unroll[0], "main.acc_loop");

  EXPECT_EQ(runner.runs, 2) << "each module structure must be profiled "
                               "once, SVP values included";
  EXPECT_EQ(remarks.profile_runs, 2u);
  EXPECT_EQ(remarks.profile_cache_hits, 3u);
}

// ------------------------------------------------------ detailed verifier

// The verifier reports *every* violation with function/block context, not
// just the first, and the string form is stable.
TEST(Verifier, CollectsAllViolationsWithContext) {
  Module m("bad");
  const FuncId f = m.addFunction("broken", 0);
  Function& func = m.function(f);
  // Block 0: empty (violation 1).
  func.blocks.push_back({0, "b0", {}});
  // Block 1: an add with out-of-range registers and no terminator
  // (violations 2, 3, 4, 5).
  Instr add;
  add.op = Opcode::kAdd;
  add.dst = Reg{40};
  add.a = Reg{41};
  add.b = Reg{42};
  func.blocks.push_back({1, "b1", {add}});

  const std::vector<Violation> vs = verifyFunctionDetailed(m, func);
  ASSERT_EQ(vs.size(), 5u);
  EXPECT_EQ(vs[0].block, 0u);
  EXPECT_EQ(vs[0].message, "is empty");
  EXPECT_FALSE(vs[0].at_instr);
  EXPECT_EQ(vs[1].message, "lacks a terminator");
  EXPECT_TRUE(vs[2].at_instr);
  EXPECT_EQ(vs[2].instr_index, 0u);
  EXPECT_EQ(vs[2].message, "dst register r40 out of range");
  EXPECT_EQ(vs[3].message, "lhs register r41 out of range");
  EXPECT_EQ(vs[4].message, "rhs register r42 out of range");

  // Module-level collection attaches the function name, and str() keeps
  // the legacy one-line format.
  const std::vector<Violation> mod = verifyModuleDetailed(m);
  ASSERT_EQ(mod.size(), 5u);
  EXPECT_EQ(mod[0].function, "broken");
  EXPECT_EQ(mod[0].str(), "@broken: B0 is empty");
  EXPECT_EQ(mod[2].str(), "@broken: B1[0]: dst register r40 out of range");

  const std::string joined = formatViolations(mod);
  EXPECT_NE(joined.find("@broken: B0 is empty"), std::string::npos);
  EXPECT_NE(joined.find("lacks a terminator"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(joined.begin(), joined.end(), '\n')),
            mod.size() - 1);

  // The string-vector wrappers agree with the detailed API.
  const std::vector<std::string> legacy = verifyModule(m);
  ASSERT_EQ(legacy.size(), mod.size());
  EXPECT_EQ(legacy[0], mod[0].str());
}

// ------------------------------------------------------------- remarks

// Every profiled loop appears in the remarks with a machine-readable
// verdict and reason slug, and the JSON is byte-deterministic.
TEST(Remarks, SchemaAndDeterminism) {
  CompilationRemarks a;
  CompilationRemarks b;
  for (CompilationRemarks* remarks : {&a, &b}) {
    Module m("remarks");
    buildAccumulatorLoop(m, 50);
    CountingInterpRunner runner;
    SptCompiler cc;
    cc.compile(m, runner, remarks);
  }

  ASSERT_EQ(a.loops.size(), 1u);
  const LoopRemark& r = a.loops[0];
  EXPECT_EQ(r.name, "main.acc_loop");
  EXPECT_EQ(r.function, "main");
  EXPECT_TRUE(r.candidate);
  EXPECT_EQ(r.verdict, "rejected-by-cost-model");
  EXPECT_EQ(r.reason, "estimated speedup below threshold");
  EXPECT_EQ(r.reason_slug, "estimated-speedup-below-threshold");
  EXPECT_GT(r.avg_trip, 0.0);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_GT(r.partitions_evaluated, 0u);
  ASSERT_EQ(a.passes.size(), 8u);
  EXPECT_EQ(a.passes[0].name, "unroll-preprocess");
  EXPECT_EQ(a.passes[0].invocations, 2u);  // restart re-runs the pipeline
  EXPECT_EQ(a.passes.back().name, "precomputation-slice");
  EXPECT_EQ(a.passes.back().mutations, 0u);  // dormant at spec_threads == 1
  EXPECT_EQ(a.passes[a.passes.size() - 2].name, "spt-transform");

  std::ostringstream ja;
  std::ostringstream jb;
  a.writeJson(ja);
  b.writeJson(jb);
  EXPECT_EQ(ja.str(), jb.str()) << "remarks JSON must be byte-identical";
  // Wall times must never leak into the deterministic document.
  EXPECT_EQ(ja.str().find("wall"), std::string::npos);
  for (const char* key :
       {"\"verdict\"", "\"reason_slug\"", "\"deny_unroll\"", "\"passes\"",
        "\"analysis_cache\"", "\"profile\"", "\"restarts\""}) {
    EXPECT_NE(ja.str().find(key), std::string::npos) << key;
  }

  // The summary table renders without blowing up.
  std::ostringstream summary;
  a.printSummary(summary);
  EXPECT_NE(summary.str().find("rejected-by-cost-model"), std::string::npos);
}

TEST(Remarks, VerdictAndSlugRules) {
  LoopPlanEntry e;
  e.candidate = false;
  EXPECT_EQ(loopVerdict(e), "rejected-by-filter");
  e.candidate = true;
  EXPECT_EQ(loopVerdict(e), "rejected-by-cost-model");
  e.selected = true;
  EXPECT_EQ(loopVerdict(e), "selected-not-applied");
  e.transformed = true;
  EXPECT_EQ(loopVerdict(e), "transformed");

  EXPECT_EQ(reasonSlug(""), "");
  EXPECT_EQ(reasonSlug("never executed"), "never-executed");
  EXPECT_EQ(reasonSlug("trip count too small"), "trip-count-too-small");
  EXPECT_EQ(reasonSlug("no feasible partition (pre-fork too large)"),
            "no-feasible-partition-pre-fork-too-large");
  EXPECT_EQ(reasonSlug("estimated speedup below threshold"),
            "estimated-speedup-below-threshold");
}

// ---------------------------------------------- verify-between-passes

// The opt-in inter-pass verification changes nothing about the produced
// plan (same fingerprint) and passes cleanly on a healthy pipeline.
TEST(Pipeline, VerifyBetweenPassesIsTransparent) {
  SptPlan plain;
  SptPlan verified;
  {
    Module m("vp");
    buildAccumulatorLoop(m, 50);
    CountingInterpRunner runner;
    SptCompiler cc;
    plain = cc.compile(m, runner);
  }
  {
    Module m("vp");
    buildAccumulatorLoop(m, 50);
    CountingInterpRunner runner;
    CompilerOptions opts;
    opts.verify_between_passes = true;
    SptCompiler cc(opts);
    verified = cc.compile(m, runner);
  }
  EXPECT_EQ(plain.fingerprint(), verified.fingerprint());
}

}  // namespace
}  // namespace spt::compiler
