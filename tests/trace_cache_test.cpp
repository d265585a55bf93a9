// Tests for the shared mmap-backed trace store (harness/trace_cache.h) and
// the cached experiment path built on it: production/adoption/hit counter
// semantics, header meta-word round trips, the profile sidecar and its codec,
// and — the property the whole subsystem hangs on — bit-identical
// simulation results whether a machine consumes the in-memory text-built
// TraceBuffer or the mmap'd trace file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expect_same.h"
#include "harness/experiment.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "profile/profile_codec.h"
#include "spt/loop_analysis.h"
#include "test_programs.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

using spt::testing::expectSameMachineResult;

std::string freshDir(const std::string& tag) {
  // TempDir() survives across test-binary runs, so an earlier run's trace
  // files would be silently adopted (that adoption is the *subject* of
  // AdoptsFileWrittenByAnotherCache, not a fixture default); start empty.
  const std::string dir = ::testing::TempDir() + "spt_trace_cache_test/" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TracedRun tracedArraySum(int n) {
  ir::Module m("t");
  spt::testing::buildArraySum(m, n);
  return traceProgram(m);
}

TEST(TraceCache, ProducesOnceThenServesFromMemory) {
  TraceCache cache(freshDir("produce_once"));
  const TracedRun run = tracedArraySum(64);
  int producer_calls = 0;
  const auto produce = [&](trace::TraceFileMeta* meta) {
    ++producer_calls;
    meta->word0 = 0xfeedbeefull;
    meta->word1 = 0x1234abcdull;
    return run.trace;
  };

  const TraceCache::Entry& first = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1);
  EXPECT_EQ(cache.produced(), 1u);
  EXPECT_EQ(cache.memoryHits(), 0u);
  ASSERT_EQ(first.view.size(), run.trace.size());
  // The meta words written by the producer come back through the v3
  // header, not through producer-local state.
  EXPECT_EQ(first.meta.word0, 0xfeedbeefull);
  EXPECT_EQ(first.meta.word1, 0x1234abcdull);

  const TraceCache::Entry& second = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1) << "second get must not re-produce";
  EXPECT_EQ(cache.memoryHits(), 1u);
  EXPECT_EQ(&first, &second) << "entry references are stable";

  // The mapped view carries the same records the producer returned.
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    EXPECT_EQ(first.view[i].kind, run.trace[i].kind);
    EXPECT_EQ(first.view[i].value, run.trace[i].value);
    EXPECT_EQ(first.view[i].mem_addr, run.trace[i].mem_addr);
  }
}

TEST(TraceCache, AdoptsFileWrittenByAnotherCache) {
  // Two caches over one directory model two processes sharing the store:
  // the second must adopt the first's file without running its producer.
  const std::string dir = freshDir("adopt");
  const TracedRun run = tracedArraySum(32);
  {
    TraceCache writer(dir);
    writer.get("arraysum.b", [&](trace::TraceFileMeta* meta) {
      meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
      meta->word1 = run.result.memory_hash;
      return run.trace;
    });
  }

  TraceCache reader(dir);
  const TraceCache::Entry& entry =
      reader.get("arraysum.b", [&](trace::TraceFileMeta*) {
        ADD_FAILURE() << "producer ran despite a valid file on disk";
        return run.trace;
      });
  EXPECT_EQ(reader.fileReuses(), 1u);
  EXPECT_EQ(reader.produced(), 0u);
  ASSERT_EQ(entry.view.size(), run.trace.size());
  EXPECT_EQ(entry.meta.word0,
            static_cast<std::uint64_t>(run.result.return_value));
  EXPECT_EQ(entry.meta.word1, run.result.memory_hash);
}

TEST(TraceCache, DistinctKeysGetDistinctFiles) {
  TraceCache cache(freshDir("keys"));
  const TracedRun small = tracedArraySum(8);
  const TracedRun large = tracedArraySum(200);
  const auto producerOf = [](const TracedRun& run) {
    return [&run](trace::TraceFileMeta*) { return run.trace; };
  };
  const TraceCache::Entry& a = cache.get("k.small", producerOf(small));
  const TraceCache::Entry& b = cache.get("k.large", producerOf(large));
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_NE(a.path, b.path);
  EXPECT_EQ(a.view.size(), small.trace.size());
  EXPECT_EQ(b.view.size(), large.trace.size());
}

// ------------------------------------------------------------------------
// Text-built vs binary-mapped simulation equality.

std::string remarksJson(const compiler::CompilationRemarks& remarks) {
  std::ostringstream os;
  remarks.writeJson(os);
  return os.str();
}

TEST(TraceCache, CachedExperimentMatchesPlainExperiment) {
  TraceCache cache(freshDir("experiment"));
  const workloads::Workload w = workloads::findWorkload("gzip");

  // The plain path and the cache miss profile through the baseline run,
  // the hit reads that profile from the sidecar; the compiler sees the same
  // profiles either way, so remarks (profile counts included) match.
  compiler::CompilationRemarks plain_remarks;
  compiler::CompilationRemarks cached_remarks;
  compiler::CompilationRemarks again_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const ExperimentResult cached = runSptExperiment(
      w.build(1), {}, {}, {}, &cached_remarks, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 2u);  // one baseline trace + one SPT trace
  EXPECT_EQ(remarksJson(cached_remarks), remarksJson(plain_remarks));

  EXPECT_EQ(plain.baseline_run.return_value, cached.baseline_run.return_value);
  EXPECT_EQ(plain.baseline_run.memory_hash, cached.baseline_run.memory_hash);
  EXPECT_EQ(plain.baseline_run.dynamic_instrs,
            cached.baseline_run.dynamic_instrs);
  EXPECT_EQ(plain.spt_run.return_value, cached.spt_run.return_value);
  EXPECT_EQ(plain.spt_run.memory_hash, cached.spt_run.memory_hash);
  EXPECT_EQ(plain.spt_run.dynamic_instrs, cached.spt_run.dynamic_instrs);
  EXPECT_EQ(plain.plan.fingerprint(), cached.plan.fingerprint());
  expectSameMachineResult(plain.baseline, cached.baseline);
  expectSameMachineResult(plain.spt, cached.spt);

  // A second cached run hits memory for both traces and — the whole point
  // — still reproduces the plain results without any interpretation.
  const ExperimentResult again = runSptExperiment(
      w.build(1), {}, {}, {}, &again_remarks, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_EQ(cache.memoryHits(), 2u);
  EXPECT_EQ(remarksJson(again_remarks), remarksJson(plain_remarks));
  // The instruction counts come from the files' validating opens.
  EXPECT_EQ(plain.baseline_run.dynamic_instrs,
            again.baseline_run.dynamic_instrs);
  EXPECT_EQ(plain.spt_run.dynamic_instrs, again.spt_run.dynamic_instrs);
  expectSameMachineResult(plain.baseline, again.baseline);
  expectSameMachineResult(plain.spt, again.spt);
}

TEST(TraceCache, SuiteGoldenDigestsMatchTextVsBinary) {
  // The satellite gate: for every suite workload, simulating over the
  // mmap'd trace file must be bit-identical to simulating over the in-memory
  // trace — baseline and SPT machines both. This is the suite-wide
  // extension of golden_digest_test's pins: those pin absolute values for
  // three workloads; this pins text-vs-binary equality for all ten.
  TraceCache cache(freshDir("suite"));
  for (const SuiteEntry& entry : defaultSuite()) {
    SCOPED_TRACE(entry.workload.name);
    const ExperimentResult text = runSuiteEntry(entry);
    const ExperimentResult binary =
        runSuiteEntry(entry, {}, 1, nullptr, &cache);
    expectSameMachineResult(text.baseline, binary.baseline);
    expectSameMachineResult(text.spt, binary.spt);
  }
}

// ------------------------------------------------------------------------
// The profile sidecar a baseline trace keeps beside it.

profile::TrackedProfile supersetProfileOf(const std::string& workload) {
  ir::Module m = workloads::findWorkload(workload).build(1);
  m.finalize();
  profile::TrackedProfile out;
  out.tracked = compiler::svpSuperset(m);
  out.data = InterpProfileRunner().run(m, out.tracked);
  return out;
}

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ProfileCodec, RoundTripsToIdenticalBytes) {
  for (const char* name : {"mcf", "gap", "micro.svp_stride"}) {
    SCOPED_TRACE(name);
    const profile::TrackedProfile original = supersetProfileOf(name);
    ASSERT_FALSE(original.data.values.empty());
    const std::string bytes = profile::encodeProfile(original);
    std::string error;
    const std::optional<profile::TrackedProfile> decoded =
        profile::decodeProfile(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->tracked, original.tracked);
    spt::testing::expectSameProfile(decoded->data, original.data);
    EXPECT_EQ(profile::encodeProfile(*decoded), bytes);
  }

  // Equal profiles whose hash tables iterate in different orders encode to
  // the same bytes: every table is written in key order.
  profile::TrackedProfile a;
  profile::TrackedProfile b;
  b.data.branches.reserve(4096);
  b.data.loops.reserve(4096);
  b.tracked.reserve(4096);
  for (ir::StaticId sid = 0; sid < 200; ++sid) {
    a.data.branches[sid] = {sid, 1};
    a.data.loops[sid * 7] = {1, sid, 2 * sid};
    a.tracked.insert(sid * 3);
  }
  for (ir::StaticId sid = 200; sid-- > 0;) {
    b.data.branches[sid] = {sid, 1};
    b.data.loops[sid * 7] = {1, sid, 2 * sid};
    b.tracked.insert(sid * 3);
  }
  EXPECT_EQ(profile::encodeProfile(a), profile::encodeProfile(b));
}

TEST(ProfileCodec, RejectsDamagedBytes) {
  const std::string bytes =
      profile::encodeProfile(supersetProfileOf("micro.parser_free"));
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  for (const std::string& damaged :
       {std::string(), bytes.substr(0, bytes.size() - 1), flipped,
        bytes + '\0'}) {
    std::string error;
    EXPECT_FALSE(profile::decodeProfile(damaged, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(TraceCache, MissingOrDamagedSidecarIsReproduced) {
  const workloads::Workload w = workloads::findWorkload("parser");
  compiler::CompilationRemarks plain_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const std::string dir = freshDir("sidecar");
  std::string sidecar;
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "parser.x1");
    EXPECT_EQ(cache.produced(), 2u);
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".prof") sidecar = e.path().string();
    }
  }
  ASSERT_FALSE(sidecar.empty());
  const std::string good = readBytes(sidecar);

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"missing", ""},
      {"truncated", good.substr(0, good.size() / 2)},
      {"bit-flipped", flipped},
  };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    if (what == "missing") {
      std::filesystem::remove(sidecar);
    } else {
      writeBytes(sidecar, bytes);
    }
    TraceCache cache(dir);
    compiler::CompilationRemarks remarks;
    const ExperimentResult again = runSptExperiment(
        w.build(1), {}, {}, {}, &remarks, &cache, "parser.x1");
    // The baseline is produced again, trace and sidecar; the SPT trace is
    // adopted.
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.fileReuses(), 1u);
    EXPECT_EQ(readBytes(sidecar), good);
    EXPECT_EQ(remarksJson(remarks), remarksJson(plain_remarks));
    EXPECT_EQ(again.plan.fingerprint(), plain.plan.fingerprint());
    spt::testing::expectSameRun(again.baseline_run, plain.baseline_run);
    spt::testing::expectSameRun(again.spt_run, plain.spt_run);
    expectSameMachineResult(again.baseline, plain.baseline);
    expectSameMachineResult(again.spt, plain.spt);
  }
}

// A trace file that fails validation is written again by the next cache
// that needs it: one left by the previous container version (its version
// byte rewritten to 3) and one cut short.
TEST(TraceCache, StaleOrTruncatedTraceFileIsReproduced) {
  const TracedRun run = tracedArraySum(48);
  const auto produce = [&](trace::TraceFileMeta* meta) {
    meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
    meta->word1 = run.result.memory_hash;
    return run.trace;
  };
  const std::string dir = freshDir("stale");
  std::string path;
  {
    TraceCache cache(dir);
    path = cache.get("arraysum.c", produce).path;
  }
  const std::string good = readBytes(path);
  std::string old_version = good;
  old_version[8] = 3;  // version field (little-endian low byte)
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"version 3", old_version},
      {"truncated", good.substr(0, good.size() - 7)},
  };
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(what);
    writeBytes(path, bytes);
    std::string error;
    ASSERT_FALSE(trace::MappedTrace::open(path, &error).has_value());
    TraceCache cache(dir);
    const TraceCache::Entry& entry = cache.get("arraysum.c", produce);
    EXPECT_EQ(cache.produced(), 1u);
    EXPECT_EQ(cache.fileReuses(), 0u);
    EXPECT_EQ(entry.path, path);
    EXPECT_EQ(entry.view.size(), run.trace.size());
    EXPECT_EQ(entry.instr_count, run.result.dynamic_instrs);
    EXPECT_EQ(readBytes(path), good);
    EXPECT_TRUE(trace::MappedTrace::open(path, &error).has_value()) << error;
  }
}

}  // namespace
}  // namespace spt::harness
