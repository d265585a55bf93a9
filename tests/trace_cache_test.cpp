// Tests for the shared mmap-backed trace store (harness/trace_cache.h) and
// the cached experiment path built on it: production/adoption/hit counter
// semantics, header meta-word round trips, the profile codec, the stored
// baseline runs (run, result and profile blobs, no baseline trace), their
// codec and the config projection that keys them, and — the property the
// whole subsystem hangs on — bit-identical simulation results whether a
// machine consumes the in-memory text-built TraceBuffer or the mmap'd
// trace file.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "expect_same.h"
#include "harness/cell_codec.h"
#include "harness/experiment.h"
#include "harness/parallel_sweep.h"
#include "harness/suite.h"
#include "harness/supervisor.h"
#include "harness/trace_cache.h"
#include "interp/interpreter.h"
#include "profile/profile_codec.h"
#include "sim/baseline.h"
#include "spt/loop_analysis.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/wire.h"
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

/// The trace files in `dir` whose names contain `infix`.
std::size_t tracesIn(const std::string& dir, const std::string& infix = "") {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.path().extension() == ".spt3" &&
        name.find(infix) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

/// Programs the interpreter ran from main while `cell` ran.
template <typename Cell>
std::uint64_t runsOf(const Cell& cell) {
  const std::uint64_t before = interp::Interpreter::mainRuns();
  cell();
  return interp::Interpreter::mainRuns() - before;
}

TEST(TraceCache, CachedExperimentMatchesPlainExperiment) {
  TraceCache cache(freshDir("experiment"));
  const workloads::Workload w = workloads::findWorkload("gzip");

  // The plain path and the cache miss profile through the streamed
  // baseline run, the hit reads that profile from its blob; the compiler
  // sees the same profiles either way, so remarks (profile counts
  // included) match.
  compiler::CompilationRemarks plain_remarks;
  compiler::CompilationRemarks cached_remarks;
  compiler::CompilationRemarks again_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const ExperimentResult cached = runSptExperiment(
      w.build(1), {}, {}, {}, &cached_remarks, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 1u);  // the SPT trace; no baseline trace
  EXPECT_EQ(tracesIn(cache.dir()), 1u);
  EXPECT_EQ(tracesIn(cache.dir(), ".base-"), 0u);
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

  // A second cached run hits memory for the SPT trace and the baseline
  // blobs and — the whole point — still reproduces the plain results
  // without any interpretation.
  const ExperimentResult again = runSptExperiment(
      w.build(1), {}, {}, {}, &again_remarks, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 1u);
  EXPECT_EQ(cache.memoryHits(), 1u);
  EXPECT_EQ(cache.fileReuses(), 0u) << "no validating open of our file";
  // The baseline's run and profile, and the SPT trace's fork table.
  EXPECT_EQ(cache.blobsProduced(), 3u);
  EXPECT_EQ(remarksJson(again_remarks), remarksJson(plain_remarks));
  // The baseline's instruction count is stored with its run; the SPT
  // program's is the count its writer reported.
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
// The profile blob a cached baseline run keeps.

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

/// The payload of the support::wire frame `frame`.
std::string payloadOf(const std::string& frame) {
  return frame.substr(support::wire::kFrameHeaderBytes,
                      frame.size() - support::wire::kFrameHeaderBytes -
                          support::wire::kFrameTrailerBytes);
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
  // Every cut and every flipped byte of a version-2 frame is refused.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(profile::decodeProfile(bytes.substr(0, n)).has_value()) << n;
    std::string flip = bytes;
    flip[n] ^= 0x40;
    EXPECT_FALSE(profile::decodeProfile(flip).has_value()) << n;
  }
  // So is every cut of the payload in a frame whose checksum holds: the
  // payload's own bounds refuse it, reading nothing past its end.
  const std::string payload = payloadOf(bytes);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const std::string cut =
        support::wire::encodeFrame("SPTP", 2, 0, payload.substr(0, n));
    EXPECT_FALSE(profile::decodeProfile(cut).has_value()) << n;
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

// ------------------------------------------------------------------------
// Blobs, and the baseline results a cached experiment keeps in them.

TEST(TraceCache, BlobIsProducedOnceThenServedFromMemoryAndFile) {
  const std::string dir = freshDir("blob");
  int producer_calls = 0;
  const auto produce = [&] {
    ++producer_calls;
    return std::string("blob-bytes");
  };
  const auto valid = [](const std::string& b) { return b == "blob-bytes"; };
  {
    TraceCache cache(dir);
    const std::string& first = cache.getBlob("k.res", produce, valid);
    const std::string& second = cache.getBlob("k.res", produce, valid);
    EXPECT_EQ(first, "blob-bytes");
    EXPECT_EQ(&first, &second) << "blob references are stable";
    EXPECT_EQ(producer_calls, 1);
    EXPECT_EQ(cache.blobsProduced(), 1u);
    EXPECT_EQ(cache.blobHits(), 1u);
    // Blobs are counted apart from traces.
    EXPECT_EQ(cache.produced(), 0u);
    EXPECT_EQ(cache.memoryHits(), 0u);
  }
  EXPECT_EQ(readBytes(dir + "/k.res"), "blob-bytes");
  {
    TraceCache cache(dir);
    EXPECT_EQ(cache.getBlob("k.res", produce, valid), "blob-bytes");
    EXPECT_EQ(producer_calls, 1) << "a valid file is adopted";
    EXPECT_EQ(cache.blobHits(), 1u);
  }
  writeBytes(dir + "/k.res", "blob-bytez");
  TraceCache cache(dir);
  EXPECT_EQ(cache.getBlob("k.res", produce, valid), "blob-bytes");
  EXPECT_EQ(producer_calls, 2) << "an invalid file is made again";
  EXPECT_EQ(cache.blobsProduced(), 1u);
  EXPECT_EQ(readBytes(dir + "/k.res"), "blob-bytes");
}

/// A result with every field set, maps and telemetry included.
sim::MachineResult fullResult() {
  sim::MachineResult r;
  r.cycles = 1001;
  r.instrs = 702;
  r.breakdown = {500, 300, 201};
  r.loops["f.loop1"] = {400, 3, 90};
  r.loops["g.loop2"] = {50, 1, 7};
  r.threads.spawned = 11;
  r.threads.committed_instrs = 99;
  r.loop_threads["f.loop1"].fast_commits = 4;
  r.loop_threads["f.loop1"].misspec_instrs = 13;
  r.loop_threads["g.loop2"].killed = 2;
  r.l1d = {1000, 24};
  r.l2 = {20, 4};
  r.l3 = {3, 1};
  r.branch_mispredict_ratio = 1.0 / 3.0;
  r.hotpath = {600, 102, 5, 6, 7, 8, 9, 10, 11};
  r.faults = {5, 2, 1, 2, 0};
  r.arch_digest = 0x0123456789abcdefull;
  r.oracle_checks = 17;
  return r;
}

/// A run with every field set, the return value negative.
interp::RunResult fullRun() {
  interp::RunResult run;
  run.return_value = -42;
  run.dynamic_instrs = 702;
  run.memory_hash = 0xfedcba9876543210ull;
  return run;
}

TEST(MachineResultCodec, RoundTripsEveryField) {
  const sim::MachineResult original = fullResult();
  const std::string bytes = encodeMachineResult(original, fullRun());
  interp::RunResult run;
  const std::optional<sim::MachineResult> decoded =
      decodeMachineResult(bytes, &run);
  ASSERT_TRUE(decoded.has_value());
  expectSameMachineResult(*decoded, original);
  spt::testing::expectSameRun(run, fullRun());
  EXPECT_EQ(std::memcmp(&decoded->branch_mispredict_ratio,
                        &original.branch_mispredict_ratio, sizeof(double)),
            0)
      << "the ratio round-trips bit-exact";
  EXPECT_EQ(encodeMachineResult(*decoded, run), bytes);

  // A real baseline run, with the loop map a suite workload fills.
  ir::Module m = workloads::findWorkload("bzip2").build(1);
  const TracedRun traced = traceProgram(m);
  const sim::MachineResult real =
      sim::BaselineMachine(m, traced.trace.view(), {}).run();
  ASSERT_FALSE(real.loops.empty());
  interp::RunResult real_run;
  const std::optional<sim::MachineResult> real_decoded = decodeMachineResult(
      encodeMachineResult(real, traced.result), &real_run);
  ASSERT_TRUE(real_decoded.has_value());
  expectSameMachineResult(*real_decoded, real);
  spt::testing::expectSameRun(real_run, traced.result);
}

TEST(MachineResultCodec, DecodingIsStrict) {
  const std::string bytes = encodeMachineResult(fullResult(), fullRun());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decodeMachineResult(bytes.substr(0, n)).has_value()) << n;
  }
  EXPECT_FALSE(decodeMachineResult(bytes + '\0').has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x40;
    EXPECT_FALSE(decodeMachineResult(flipped).has_value()) << i;
  }
  // A profile is a frame too, under another magic.
  EXPECT_FALSE(decodeMachineResult(
                   profile::encodeProfile(profile::TrackedProfile{}))
                   .has_value());
  // A version-1 frame, as caches from before the run words hold, is
  // refused, whatever its payload.
  const std::string payload = payloadOf(bytes);
  for (const std::string& old : {payload, payload.substr(24)}) {
    EXPECT_FALSE(
        decodeMachineResult(support::wire::encodeFrame("SPTR", 1, 0, old))
            .has_value());
  }
}

TEST(ForkTableCodec, RefusesATableThatDoesNotFitItsTrace) {
  ir::Module m = workloads::findWorkload("micro.parser_free").build(1);
  InterpProfileRunner runner;
  compiler::SptCompiler().compile(m, runner);
  const TracedRun traced = traceProgram(m);
  const trace::TraceView view = traced.trace.view();
  const trace::ForkTable table = trace::LoopIndex(m, view).forks();
  ASSERT_GE(table.records.size(), 2u);
  const trace::TraceFileSummary summary{view.size(), 0, 0xc0ffee, {}};
  const std::optional<trace::ForkTable> decoded =
      decodeForkTable(encodeForkTable(table, summary), view, summary);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == table);

  // Each table is sound as a frame but wrong for the trace.
  const auto refused = [&](const char* what, auto&& damage,
                           trace::TraceFileSummary bound) {
    SCOPED_TRACE(what);
    trace::ForkTable wrong = table;
    damage(wrong);
    EXPECT_FALSE(
        decodeForkTable(encodeForkTable(wrong, bound), view, summary));
  };
  const auto same = [](trace::ForkTable&) {};
  trace::TraceFileSummary other = summary;
  other.checksum ^= 1;
  refused("another checksum", same, other);
  other = summary;
  other.records += 1;
  refused("another record count", same, other);
  refused("out of order",
          [](trace::ForkTable& t) {
            std::swap(t.records[0], t.records[1]);
          },
          summary);
  refused("repeated",
          [](trace::ForkTable& t) { t.records[1] = t.records[0]; }, summary);
  refused("past the trace",
          [&](trace::ForkTable& t) { t.records.back() = view.size(); },
          summary);
  refused("not a fork record",
          [](trace::ForkTable& t) { t.records[0] -= 1; }, summary);
  refused("start before its fork",
          [](trace::ForkTable& t) { t.starts[0] = t.records[0]; }, summary);
  refused("start past the trace",
          [&](trace::ForkTable& t) { t.starts[0] = view.size(); }, summary);
  refused("start pending",
          [](trace::ForkTable& t) {
            t.starts[0] = trace::ForkTable::kPending;
          },
          summary);
  const std::string bytes = encodeForkTable(table, summary);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decodeForkTable(bytes.substr(0, n), view, summary)) << n;
  }
  EXPECT_FALSE(decodeForkTable(bytes + '\0', view, summary));
}

/// The one file in `dir` with extension `ext`.
std::string storedIn(const std::string& dir, const std::string& ext) {
  std::string found;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ext) {
      EXPECT_TRUE(found.empty()) << "more than one " << ext;
      found = e.path().string();
    }
  }
  return found;
}

/// The summary of the one SPT trace in `dir`, as a validating open finds
/// it, and its fork table decoded from the `.forks` blob beside it.
std::pair<trace::TraceFileSummary, trace::ForkTable> storedForksIn(
    const std::string& dir) {
  const std::optional<trace::MappedTrace> mapped =
      trace::MappedTrace::open(storedIn(dir, ".spt3"));
  EXPECT_TRUE(mapped.has_value());
  if (!mapped) return {};
  std::optional<trace::ForkTable> forks = decodeForkTable(
      readBytes(storedIn(dir, ".forks")), mapped->view(), mapped->summary());
  EXPECT_TRUE(forks.has_value());
  return {mapped->summary(), forks.value_or(trace::ForkTable{})};
}

/// Makes the blob with extension \p ext that a cached cell keeps missing
/// or damaged in each way in turn. The blob is made again once and written
/// again byte for byte, the SPT trace is adopted, and the cell equals the
/// uncached one. A baseline blob streams the baseline again; the SPT
/// trace's fork table is made from the adopted trace, interpreting
/// nothing.
void expectDamagedBlobIsRecomputed(const std::string& workload,
                                   const std::string& ext) {
  const workloads::Workload w = workloads::findWorkload(workload);
  const std::string key = workload + ".x1";
  compiler::CompilationRemarks plain_remarks;
  const ExperimentResult plain =
      runSptExperiment(w.build(1), {}, {}, {}, &plain_remarks);
  const std::string dir = freshDir("damaged" + ext);
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, key);
    EXPECT_EQ(cache.blobsProduced(), 3u);
  }
  const std::string path = storedIn(dir, ext);
  ASSERT_FALSE(path.empty()) << ext;
  const std::string good = readBytes(path);
  std::string flipped = good;
  flipped[support::wire::kFrameHeaderBytes + 3] ^= 0x01;  // the payload
  std::string other_version = good;
  other_version[4] ^= 0x03;  // the frame version's low byte: 1 <-> 2
  std::vector<std::pair<std::string, std::string>> damages = {
      {"missing", ""},
      {"truncated", good.substr(0, good.size() - 5)},
      {"bit-flipped", flipped},
      {"other version", other_version},
  };
  const bool forks = ext == ".forks";
  if (forks) {
    // A sound frame of the same table, bound to another trace.
    auto [summary, table] = storedForksIn(dir);
    EXPECT_FALSE(table.records.empty());
    EXPECT_EQ(encodeForkTable(table, summary), good);
    summary.checksum ^= 1;
    damages.emplace_back("bound to another trace",
                         encodeForkTable(table, summary));
  }
  for (const auto& [what, bytes] : damages) {
    SCOPED_TRACE(ext + " " + what);
    if (what == "missing") {
      std::filesystem::remove(path);
    } else {
      writeBytes(path, bytes);
    }
    TraceCache cache(dir);
    compiler::CompilationRemarks remarks;
    std::optional<ExperimentResult> again;
    EXPECT_EQ(runsOf([&] {
                again = runSptExperiment(w.build(1), {}, {}, {}, &remarks,
                                         &cache, key);
              }),
              forks ? 0u : 1u)
        << "only a baseline blob streams the baseline again";
    EXPECT_EQ(cache.blobsProduced(), 1u);
    EXPECT_EQ(cache.produced(), 0u) << "the SPT trace is adopted";
    EXPECT_EQ(readBytes(path), good);
    EXPECT_EQ(remarksJson(remarks), remarksJson(plain_remarks));
    EXPECT_EQ(again->plan.fingerprint(), plain.plan.fingerprint());
    spt::testing::expectSameRun(again->baseline_run, plain.baseline_run);
    spt::testing::expectSameRun(again->spt_run, plain.spt_run);
    expectSameMachineResult(again->baseline, plain.baseline);
    expectSameMachineResult(again->spt, plain.spt);
  }
}

TEST(TraceCache, DamagedStoredResultIsRecomputed) {
  // The baseline's run and one-core result (.res).
  expectDamagedBlobIsRecomputed("vpr", ".res");
}

TEST(TraceCache, MissingOrDamagedSidecarIsReproduced) {
  // The baseline's profile sidecar (.prof).
  expectDamagedBlobIsRecomputed("parser", ".prof");
}

TEST(TraceCache, DamagedForkTableIsRecomputed) {
  // The SPT trace's fork table (.forks).
  expectDamagedBlobIsRecomputed("gzip", ".forks");
}

// A hit replays the mapped trace against the stored fork table: it builds
// no LoopIndex over the records, so a sound table that says no fork ever
// reaches its start-point turns every fork into one that never spawns.
TEST(TraceCache, HitReplaysAgainstTheStoredForkTable) {
  const workloads::Workload w = workloads::findWorkload("mcf");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  const std::string dir = freshDir("stored_forks");
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "mcf.x1");
  }
  const std::string path = storedIn(dir, ".forks");
  const std::string good = readBytes(path);
  {
    TraceCache cache(dir);
    std::optional<ExperimentResult> warm;
    EXPECT_EQ(runsOf([&] {
                warm = runSptExperiment(w.build(1), {}, {}, {}, nullptr,
                                        &cache, "mcf.x1");
              }),
              0u);
    EXPECT_EQ(cache.blobsProduced(), 0u);
    EXPECT_EQ(cache.blobHits(), 3u) << "the .res, the .prof and the .forks";
    expectSameMachineResult(warm->spt, plain.spt);
  }
  auto [summary, table] = storedForksIn(dir);
  ASSERT_GT(plain.spt.threads.spawned, 0u);
  for (std::size_t& start : table.starts) start = trace::ForkTable::kNoStart;
  writeBytes(path, encodeForkTable(table, summary));
  TraceCache cache(dir);
  const ExperimentResult never =
      runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "mcf.x1");
  EXPECT_EQ(cache.blobsProduced(), 0u) << "the table is sound";
  EXPECT_NE(readBytes(path), good);
  EXPECT_EQ(never.spt.threads.fast_commits, 0u);
  EXPECT_NE(never.spt.cycles, plain.spt.cycles);
  spt::testing::expectSameRun(never.spt_run, plain.spt_run);
}

/// A file's inode and modification time, which a rewrite changes.
std::pair<std::uint64_t, std::filesystem::file_time_type> identityOf(
    const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {static_cast<std::uint64_t>(st.st_ino),
          std::filesystem::last_write_time(path)};
}

TEST(TraceCache, OlderCacheHealsInPlace) {
  // A cache from before the baseline's run moved into its stored result
  // holds a version-1 .res without the run words, the baseline trace
  // <key>.base-<salt>.spt3 and, beside it, the same .prof as now; and
  // one from before fork tables were stored holds the SPT trace without
  // its .forks.
  const workloads::Workload w = workloads::findWorkload("parser");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  const std::string dir = freshDir("older_cache");
  {
    TraceCache cache(dir);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "parser.x1");
  }
  const std::string res = storedIn(dir, ".res");
  const std::string prof = storedIn(dir, ".prof");
  const std::string spt = storedIn(dir, ".spt3");
  const std::string forks = storedIn(dir, ".forks");
  ASSERT_FALSE(res.empty());
  ASSERT_FALSE(prof.empty());
  ASSERT_FALSE(forks.empty());
  const std::string good = readBytes(res);
  const std::string good_forks = readBytes(forks);
  std::filesystem::remove(forks);
  writeBytes(res, support::wire::encodeFrame("SPTR", 1, 0,
                                             payloadOf(good).substr(24)));
  const std::string leftover = prof.substr(0, prof.size() - 5) + ".spt3";
  ASSERT_NE(leftover.find(".base-"), std::string::npos);
  ir::Module baseline = w.build(1);
  const TracedRun traced = traceProgram(baseline);
  ASSERT_TRUE(trace::writeTraceFile(
      leftover, traced.trace.view(),
      {static_cast<std::uint64_t>(traced.result.return_value),
       traced.result.memory_hash}));
  const auto leftover_before = identityOf(leftover);
  const auto prof_before = identityOf(prof);
  const auto spt_before = identityOf(spt);

  TraceCache cache(dir);
  std::optional<ExperimentResult> again;
  EXPECT_EQ(runsOf([&] {
              again = runSptExperiment(w.build(1), {}, {}, {}, nullptr,
                                       &cache, "parser.x1");
            }),
            1u)
      << "the baseline streams once, for its run";
  EXPECT_EQ(readBytes(res), good) << "the .res is made again";
  EXPECT_EQ(readBytes(forks), good_forks) << "the .forks is written";
  EXPECT_EQ(cache.blobsProduced(), 2u) << "the profile is adopted";
  EXPECT_EQ(identityOf(prof), prof_before);
  EXPECT_EQ(cache.produced(), 0u);
  EXPECT_EQ(cache.fileReuses(), 1u) << "only the SPT trace is opened";
  EXPECT_EQ(identityOf(spt), spt_before);
  EXPECT_EQ(identityOf(leftover), leftover_before);
  spt::testing::expectSameRun(again->baseline_run, plain.baseline_run);
  spt::testing::expectSameRun(again->spt_run, plain.spt_run);
  expectSameMachineResult(again->baseline, plain.baseline);
  expectSameMachineResult(again->spt, plain.spt);
}

/// `profile` as a version-1 SPTP frame, the layout from before a value
/// entry kept only its mode: there a value entry was the sid, its samples
/// and its whole delta histogram. The histogram written holds the mode.
std::string versionOneProfile(const profile::TrackedProfile& profile) {
  // Every table but the value table, which is last, is laid out alike.
  profile::TrackedProfile others = profile;
  others.data.values.clear();
  std::string payload = payloadOf(profile::encodeProfile(others));
  payload.resize(payload.size() - sizeof(std::uint64_t));  // value count
  const auto put = [&payload](auto v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::vector<ir::StaticId> sids;
  for (const auto& entry : profile.data.values) sids.push_back(entry.first);
  std::sort(sids.begin(), sids.end());
  put(std::uint64_t{sids.size()});
  for (const ir::StaticId sid : sids) {
    const profile::ValueStats& stats = profile.data.values.at(sid);
    put(sid);
    put(stats.samples);
    put(std::uint64_t{1});
    put(stats.best_stride);
    put(stats.best_count);
  }
  return support::wire::encodeFrame("SPTP", 1, 0, payload);
}

TEST(TraceCache, VersionOneProfilesAreMadeAgain) {
  // gap keeps two profiles: its baseline's, and the one of the module
  // unrolling makes. A cache written before profiles kept only the mode
  // holds both as version-1 frames; a cell refuses them, makes each
  // again in place and equals the uncached cell.
  const SuiteEntry entry = suiteEntries({"gap"}).front();
  compiler::CompilationRemarks plain_remarks;
  const ExperimentResult plain = runSuiteEntry(entry, {}, 1, &plain_remarks);
  const std::string dir = freshDir("version_one_profiles");
  {
    TraceCache cache(dir);
    runSuiteEntry(entry, {}, 1, nullptr, &cache);
  }
  std::map<std::string, std::string> good;  // path -> version-2 bytes
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".prof") {
      good[e.path().string()] = readBytes(e.path().string());
    }
  }
  ASSERT_EQ(good.size(), 2u);
  for (const auto& [path, bytes] : good) {
    const std::optional<profile::TrackedProfile> current =
        profile::decodeProfile(bytes);
    ASSERT_TRUE(current.has_value()) << path;
    ASSERT_FALSE(current->data.values.empty()) << path;
    const std::string old = versionOneProfile(*current);
    std::string error;
    EXPECT_FALSE(profile::decodeProfile(old, &error).has_value());
    EXPECT_NE(error.find("version 1"), std::string::npos) << error;
    writeBytes(path, old);
  }

  TraceCache cache(dir);
  compiler::CompilationRemarks remarks;
  std::optional<ExperimentResult> again;
  EXPECT_EQ(runsOf([&] {
              again = runSuiteEntry(entry, {}, 1, &remarks, &cache);
            }),
            2u)
      << "each profile is made again by one run";
  EXPECT_EQ(cache.blobsProduced(), 2u) << "the two profiles, nothing else";
  EXPECT_EQ(cache.produced(), 0u) << "the SPT trace is adopted";
  for (const auto& [path, bytes] : good) {
    EXPECT_EQ(readBytes(path), bytes) << path;
  }
  EXPECT_EQ(remarksJson(remarks), remarksJson(plain_remarks));
  EXPECT_EQ(again->plan.fingerprint(), plain.plan.fingerprint());
  spt::testing::expectSameRun(again->baseline_run, plain.baseline_run);
  spt::testing::expectSameRun(again->spt_run, plain.spt_run);
  expectSameMachineResult(again->baseline, plain.baseline);
  expectSameMachineResult(again->spt, plain.spt);
}

/// One machine config field, perturbed.
struct Perturbation {
  const char* field;
  void (*apply)(support::MachineConfig&);
};

#define SPT_PERTURB(field, ...) \
  Perturbation { #field, [](support::MachineConfig& c) { __VA_ARGS__; } }

/// Every MachineConfig field, each moved off its default to a value the
/// machines accept; cache levels keep a power-of-two set count.
const Perturbation kPerturbations[] = {
    SPT_PERTURB(l1i.size_bytes, c.l1i.size_bytes *= 2),
    SPT_PERTURB(l1i.associativity, c.l1i.associativity /= 2),
    SPT_PERTURB(l1i.block_bytes, c.l1i.block_bytes /= 2),
    SPT_PERTURB(l1i.latency_cycles, c.l1i.latency_cycles += 2),
    SPT_PERTURB(l1d.size_bytes, c.l1d.size_bytes /= 4),
    SPT_PERTURB(l1d.associativity, c.l1d.associativity /= 4),
    SPT_PERTURB(l1d.block_bytes, c.l1d.block_bytes /= 2),
    SPT_PERTURB(l1d.latency_cycles, c.l1d.latency_cycles += 2),
    SPT_PERTURB(l2.size_bytes, c.l2.size_bytes /= 8),
    SPT_PERTURB(l2.associativity, c.l2.associativity /= 8),
    SPT_PERTURB(l2.block_bytes, c.l2.block_bytes /= 2),
    SPT_PERTURB(l2.latency_cycles, c.l2.latency_cycles += 4),
    SPT_PERTURB(l3.size_bytes, c.l3.size_bytes /= 16),
    SPT_PERTURB(l3.associativity, c.l3.associativity /= 4),
    SPT_PERTURB(l3.block_bytes, c.l3.block_bytes /= 2),
    SPT_PERTURB(l3.latency_cycles, c.l3.latency_cycles += 8),
    SPT_PERTURB(memory_latency_cycles, c.memory_latency_cycles += 100),
    SPT_PERTURB(fetch_width, c.fetch_width = 2),
    SPT_PERTURB(issue_width, c.issue_width = 2),
    SPT_PERTURB(replay_fetch_width, c.replay_fetch_width = 3),
    SPT_PERTURB(replay_issue_width, c.replay_issue_width = 3),
    SPT_PERTURB(rf_ports, c.rf_ports = 4),
    SPT_PERTURB(branch_predictor_entries, c.branch_predictor_entries = 16),
    SPT_PERTURB(branch_mispredict_penalty, c.branch_mispredict_penalty = 20),
    SPT_PERTURB(rf_copy_overhead, c.rf_copy_overhead = 30),
    SPT_PERTURB(fast_commit_overhead, c.fast_commit_overhead = 40),
    SPT_PERTURB(speculation_result_buffer_entries,
                c.speculation_result_buffer_entries = 8),
    SPT_PERTURB(speculative_store_buffer_entries,
                c.speculative_store_buffer_entries = 2),
    SPT_PERTURB(load_address_buffer_entries,
                c.load_address_buffer_entries = 2),
    SPT_PERTURB(spec_threads, c.spec_threads = 16),
    SPT_PERTURB(recovery,
                c.recovery = support::RecoveryMechanism::kFullSquash),
    SPT_PERTURB(register_check,
                c.register_check = support::RegisterCheckMode::kScoreboard),
    SPT_PERTURB(max_trace_records, c.max_trace_records = 1),
    SPT_PERTURB(max_simulated_records, c.max_simulated_records = 5000),
    SPT_PERTURB(max_simulated_cycles, c.max_simulated_cycles = 5000),
    SPT_PERTURB(oracle, c.oracle = support::OracleMode::kDeep),
    SPT_PERTURB(fault_plan.enabled, c.fault_plan.enabled = true),
    SPT_PERTURB(fault_plan.seed, c.fault_plan.seed = 99),
    SPT_PERTURB(fault_plan.period, c.fault_plan.period = 1),
    SPT_PERTURB(fault_plan.ssb_value_flip, c.fault_plan.ssb_value_flip = false),
    SPT_PERTURB(fault_plan.lab_drop, c.fault_plan.lab_drop = false),
    SPT_PERTURB(fault_plan.fork_reg_flip, c.fault_plan.fork_reg_flip = false),
    SPT_PERTURB(fault_plan.srb_payload_flip,
                c.fault_plan.srb_payload_flip = false),
    SPT_PERTURB(fault_plan.cache_meta_flip,
                c.fault_plan.cache_meta_flip = false),
    SPT_PERTURB(fault_plan.bp_meta_flip, c.fault_plan.bp_meta_flip = false),
};

#undef SPT_PERTURB

/// The baseline result's bytes under `config`, or a marker when a budget
/// stops the machine.
std::string baselineBytes(const ir::Module& module, trace::TraceView trace,
                          const support::MachineConfig& config) {
  try {
    return encodeMachineResult(
        sim::BaselineMachine(module, trace, config).run(), {});
  } catch (const support::SptBudgetExceeded& e) {
    return std::string("budget: ") + e.what();
  }
}

TEST(BaselineConfigDigest, ChangesWheneverTheBaselineResultDoes) {
  const support::MachineConfig defaults;
  const std::uint64_t default_digest = baselineConfigDigest(defaults);
  std::set<std::string> moved_somewhere;
  for (const char* name : {"vortex", "bzip2", "crafty"}) {
    SCOPED_TRACE(name);
    ir::Module module = workloads::findWorkload(name).build(1);
    const TracedRun run = traceProgram(module);
    const std::string reference =
        baselineBytes(module, run.trace.view(), defaults);
    for (const Perturbation& p : kPerturbations) {
      SCOPED_TRACE(p.field);
      support::MachineConfig config;
      p.apply(config);
      if (baselineBytes(module, run.trace.view(), config) != reference) {
        moved_somewhere.insert(p.field);
        EXPECT_NE(baselineConfigDigest(config), default_digest);
      }
    }
  }
  // The check has teeth: the geometry, latency, width, predictor and
  // budget fields do move the one-core result.
  for (const char* field :
       {"l1d.size_bytes", "l2.latency_cycles", "memory_latency_cycles",
        "issue_width", "branch_predictor_entries",
        "branch_mispredict_penalty", "max_simulated_records"}) {
    EXPECT_TRUE(moved_somewhere.contains(field)) << field;
  }
}

TEST(BaselineConfigDigest, SptOnlyFieldsShareOneDigest) {
  const std::uint64_t digest = baselineConfigDigest({});
  std::size_t configs = 0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 16u}) {
    for (const support::RecoveryMechanism recovery :
         {support::RecoveryMechanism::kSelectiveReplayFastCommit,
          support::RecoveryMechanism::kSelectiveReplay,
          support::RecoveryMechanism::kFullSquash}) {
      for (const support::RegisterCheckMode check :
           {support::RegisterCheckMode::kValueBased,
            support::RegisterCheckMode::kScoreboard}) {
        for (const std::uint32_t entries : {1024u, 64u, 16u}) {
          for (const support::OracleMode oracle :
               {support::OracleMode::kOff, support::OracleMode::kDigest,
                support::OracleMode::kDeep}) {
            for (const bool faults : {false, true}) {
              support::MachineConfig c;
              c.spec_threads = threads;
              c.recovery = recovery;
              c.register_check = check;
              c.speculation_result_buffer_entries = entries;
              c.speculative_store_buffer_entries = entries / 4;
              c.load_address_buffer_entries = entries / 2;
              c.rf_copy_overhead = entries % 7;
              c.fast_commit_overhead = entries % 5;
              c.oracle = oracle;
              c.fault_plan.enabled = faults;
              c.fault_plan.seed = threads;
              c.fault_plan.period = entries;
              c.fault_plan.lab_drop = !faults;
              EXPECT_EQ(baselineConfigDigest(c), digest);
              ++configs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 432u);
  // A field the one-core machine reads does not share it.
  support::MachineConfig slow_memory;
  slow_memory.memory_latency_cycles = 151;
  EXPECT_NE(baselineConfigDigest(slow_memory), digest);
}

/// Ten machine configs one workload's cells run under: chain depths and
/// recoveries, tight buffers, and an oracle with injected faults.
std::vector<support::MachineConfig> machineGrid() {
  std::vector<support::MachineConfig> grid;
  for (const std::uint32_t threads : {1u, 2u, 4u, 16u}) {
    for (const support::RecoveryMechanism recovery :
         {support::RecoveryMechanism::kSelectiveReplayFastCommit,
          support::RecoveryMechanism::kFullSquash}) {
      support::MachineConfig c;
      c.spec_threads = threads;
      c.recovery = recovery;
      grid.push_back(c);
    }
  }
  support::MachineConfig tight;
  tight.register_check = support::RegisterCheckMode::kScoreboard;
  tight.speculation_result_buffer_entries = 64;
  tight.speculative_store_buffer_entries = 16;
  tight.load_address_buffer_entries = 16;
  grid.push_back(tight);
  support::MachineConfig checked;
  checked.oracle = support::OracleMode::kDigest;
  checked.fault_plan.enabled = true;
  checked.fault_plan.seed = 7;
  grid.push_back(checked);
  return grid;
}

TEST(TraceCache, CachedGridSimulatesTheBaselineOnce) {
  const workloads::Workload w = workloads::findWorkload("twolf");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  const std::vector<support::MachineConfig> grid = machineGrid();

  // Four pool threads over a cold cache: the first cell to reach the
  // stored baseline streams it and stores its profile too, so every cell
  // reads both and none streams the baseline again.
  TraceCache cache(freshDir("grid"));
  std::vector<ExperimentResult> cells;
  const std::uint64_t runs = runsOf([&] {
    cells = ParallelSweep(4).run(grid.size(), [&](std::size_t i) {
      compiler::CompilerOptions copts;
      copts.spec_threads = grid[i].spec_threads;
      return runSptExperiment(w.build(1), copts, grid[i], {}, nullptr,
                              &cache, "twolf.x1");
    });
  });
  std::set<std::uint64_t> plans;
  for (const ExperimentResult& cell : cells) {
    SCOPED_TRACE(cell.plan.fingerprint());
    expectSameMachineResult(cell.baseline, plain.baseline);
    plans.insert(cell.plan.fingerprint());
  }
  EXPECT_EQ(runs, 1 + plans.size()) << "one baseline, one run per plan";
  EXPECT_EQ(cache.produced(), plans.size());
  EXPECT_EQ(tracesIn(cache.dir()), plans.size());
  EXPECT_EQ(tracesIn(cache.dir(), ".base-"), 0u);
  EXPECT_EQ(cache.blobsProduced(), 2 + plans.size())
      << "one baseline run and profile, and a fork table per plan";
  // Each cell reads the baseline's two blobs, except the one that made
  // them; each cell that replays a trace reads its fork table.
  EXPECT_EQ(cache.blobHits(), 2 * grid.size() - 1 + grid.size() - plans.size());
}


/// The cache's files in `dir` with a given extension, by name.
std::map<std::string, std::string> filesIn(
    const std::string& dir, const std::vector<std::string>& extensions) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    for (const std::string& ext : extensions) {
      if (e.path().extension() == ext) {
        files[e.path().filename().string()] = readBytes(e.path().string());
      }
    }
  }
  return files;
}

/// The names in `dir` that a writer leaves behind only when it fails.
std::vector<std::string> tempFilesIn(const std::string& dir) {
  std::vector<std::string> temps;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) temps.push_back(name);
  }
  return temps;
}

// ------------------------------------------------------------------------
// The streamed miss: the producing cell tees its run into the trace file.

/// True when the files at `a` and `b` hold the same bytes, compared a
/// megabyte at a time.
bool sameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::vector<char> ca(1 << 20);
  std::vector<char> cb(1 << 20);
  while (fa && fb) {
    fa.read(ca.data(), static_cast<std::streamsize>(ca.size()));
    fb.read(cb.data(), static_cast<std::streamsize>(cb.size()));
    if (fa.gcount() != fb.gcount() ||
        !std::equal(ca.begin(), ca.begin() + fa.gcount(), cb.begin())) {
      return false;
    }
  }
  return fa.eof() && fb.eof();
}

/// What TeedTraceIsTheWrittenBuffer found wrong with one cell; empty
/// when nothing.
std::string teeMismatches(const SweepCase& c, const std::string& dir) {
  std::string wrong;
  {
    TraceCache cache(dir);
    runSuiteEntry(c.entry, c.machine, c.scale, nullptr, &cache);
    if (cache.produced() != 1) {
      wrong += " produced " + std::to_string(cache.produced());
    }
  }
  const std::string teed = storedIn(dir, ".spt3");
  if (teed.empty()) return wrong + " no .spt3";

  ir::Module module = c.entry.workload.build(c.scale);
  InterpProfileRunner runner;
  compiler::SptCompiler(c.entry.copts).compile(module, runner, nullptr);
  const TracedRun run = traceProgram(module, {}, c.machine.max_trace_records);
  const trace::TraceFileMeta meta{
      static_cast<std::uint64_t>(run.result.return_value),
      run.result.memory_hash};
  const std::string written = dir + "/written.trace";
  if (!trace::writeTraceFile(written, run.trace.view(), meta)) {
    return wrong + " writeTraceFile failed";
  }
  if (!sameBytes(teed, written)) wrong += " teed file differs from written";

  const std::string streamed = dir + "/streamed.trace";
  trace::TraceFileWriter writer(streamed, streamed + ".tmp.test");
  for (const trace::Record& r : run.trace.view()) writer.onRecord(r);
  std::string error;
  const std::optional<trace::TraceFileSummary> summary =
      writer.finish(meta, &error);
  if (!summary) return wrong + " " + error;
  if (!sameBytes(streamed, written)) wrong += " streamed file differs";
  if (summary->instrs != run.result.dynamic_instrs) wrong += " instrs";
  const std::optional<trace::MappedTrace> opened =
      trace::MappedTrace::open(teed, &error);
  if (!opened) return wrong + " " + error;
  if (!(opened->summary() == *summary)) wrong += " summary differs";
  std::filesystem::remove_all(dir);
  return wrong;
}

// For every suite workload at depths 1 and 4, the trace a cold cached cell
// tees into its file is byte for byte the file writeTraceFile makes of the
// materialized trace, and a writer fed record by record reports what a
// validating open of that file finds. Two cells at a time.
TEST(TraceCache, TeedTraceIsTheWrittenBuffer) {
  const std::vector<SweepCase> cases =
      buildSuiteSweepCases({}, {}, 1, {}, {1, 4});
  const std::vector<std::string> wrong =
      ParallelSweep(2).run(cases.size(), [&](std::size_t i) {
        return teeMismatches(cases[i], freshDir("tee" + std::to_string(i)));
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(wrong[i], "") << cases[i].benchmark << " " << cases[i].config;
  }
}

// A cache that finds a key's lock held by another cache computes its own
// value and returns: it neither waits for the holder nor writes a file.
TEST(TraceCache, HeldLockMakesAnotherCacheComputeAlone) {
  const std::string dir = freshDir("held_lock");
  const TracedRun run = tracedArraySum(64);
  const trace::TraceFileMeta meta{7, 9};
  const auto produce = [&](trace::TraceFileMeta* out) {
    *out = meta;
    return run.trace;
  };
  const auto valid = [](const std::string& b) { return b == "blob"; };
  TraceCache holder(dir);
  TraceCache other(dir);
  int alone = 0;
  const TraceCache::Entry* held = holder.getOrStream(
      "held.trace", [&](trace::TraceSink* writer) {
        EXPECT_NE(writer, nullptr);
        EXPECT_EQ(other.getOrStream("held.trace",
                                    [&](trace::TraceSink* none) {
                                      EXPECT_EQ(none, nullptr);
                                      ++alone;
                                      return TraceCache::Streamed{meta, {}};
                                    }),
                  nullptr);
        const TraceCache::Entry& kept = other.get("held.trace", produce);
        EXPECT_EQ(kept.view.size(), run.trace.size());
        EXPECT_EQ(kept.meta, meta);
        EXPECT_EQ(kept.instr_count, run.result.dynamic_instrs);
        EXPECT_TRUE(std::filesystem::is_empty(dir + "/held.trace.lock"));
        for (const trace::Record& r : run.trace.view()) writer->onRecord(r);
        return TraceCache::Streamed{meta, {}};  // the trace has no fork
      });
  EXPECT_EQ(held, nullptr) << "the holder streamed";
  EXPECT_EQ(alone, 1);
  EXPECT_EQ(holder.getBlob(
                "held.res",
                [&] {
                  EXPECT_EQ(other.getBlob(
                                "held.res", [] { return std::string("blob"); },
                                valid),
                            "blob");
                  EXPECT_FALSE(std::filesystem::exists(dir + "/held.res"));
                  return std::string("blob");
                },
                valid),
            "blob");
  EXPECT_EQ(other.bypasses(), 3u);
  EXPECT_EQ(other.produced(), 0u);
  EXPECT_EQ(other.blobsProduced(), 0u);
  EXPECT_EQ(holder.produced(), 1u);
  EXPECT_EQ(holder.blobsProduced(), 2u) << "the .res and the trace's .forks";
  EXPECT_EQ(holder.bypasses(), 0u);
  const TraceCache::Entry* entry =
      holder.getOrStream("held.trace", [&](trace::TraceSink*) {
        ADD_FAILURE() << "streamed again";
        return TraceCache::Streamed{meta, {}};
      });
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->instr_count, run.result.dynamic_instrs);
  EXPECT_EQ(readBytes(entry->path), readBytes(TraceCache(freshDir(
                                                  "held_lock_ref"))
                                                  .get("held.trace", produce)
                                                  .path));
  EXPECT_TRUE(tempFilesIn(dir).empty());
}

// A cell whose every lock is held elsewhere runs as an uncached cell: the
// same interpretations, the same result, and no file written.
TEST(TraceCache, CellFindingEveryLockHeldRunsUncached) {
  const workloads::Workload w = workloads::findWorkload("gap");
  const ExperimentResult plain = runSptExperiment(w.build(1));
  std::uint64_t uncached_runs = runsOf([&] { runSptExperiment(w.build(1)); });
  // The lock files a cold cached cell takes.
  const std::string cold = freshDir("all_held_cold");
  {
    TraceCache cache(cold);
    runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "gap.x1");
  }
  const std::string dir = freshDir("all_held");
  std::filesystem::create_directories(dir);
  std::vector<int> fds;
  for (const auto& e : std::filesystem::directory_iterator(cold)) {
    if (e.path().extension() != ".lock") continue;
    const std::string path = dir + "/" + e.path().filename().string();
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
    fds.push_back(fd);
  }
  ASSERT_GE(fds.size(), 5u)
      << "the .res, .prof, unrolled .prof, .spt3 and .forks";

  TraceCache cache(dir);
  std::optional<ExperimentResult> again;
  EXPECT_EQ(runsOf([&] {
              again = runSptExperiment(w.build(1), {}, {}, {}, nullptr,
                                       &cache, "gap.x1");
            }),
            uncached_runs);
  for (const int fd : fds) ::close(fd);
  // A cell that streams its SPT run alone stores no fork table, so it
  // never asks for the .forks lock.
  EXPECT_EQ(cache.bypasses(), fds.size() - 1);
  EXPECT_EQ(cache.produced() + cache.blobsProduced(), 0u);
  EXPECT_TRUE(filesIn(dir, {".spt3", ".res", ".prof", ".forks"}).empty());
  EXPECT_EQ(again->plan.fingerprint(), plain.plan.fingerprint());
  spt::testing::expectSameRun(again->baseline_run, plain.baseline_run);
  spt::testing::expectSameRun(again->spt_run, plain.spt_run);
  expectSameMachineResult(again->baseline, plain.baseline);
  expectSameMachineResult(again->spt, plain.spt);
}

// ------------------------------------------------------------------------
// Processes sharing one cache directory.

/// Reads exactly `n` bytes from `fd`; false at EOF or on error.
bool readFully(int fd, void* out, std::size_t n) {
  auto* p = static_cast<char*>(out);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

// Four processes race on one trace and one blob over a cold directory:
// one of them writes each, the others adopt the file or compute alone,
// and all of them see the same values.
TEST(TraceCache, ForkedProducersWriteEachEntryOnce) {
  const std::string dir = freshDir("fork_race");
  const TracedRun run = tracedArraySum(2000);
  const auto slowly = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  const auto valid = [](const std::string& b) { return b == "raced-blob"; };
  constexpr int kChildren = 4;
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  std::vector<std::pair<pid_t, int>> children;
  for (int i = 0; i < kChildren; ++i) {
    int report[2];
    ASSERT_EQ(::pipe(report), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(go[1]);
      ::close(report[0]);
      char start = 0;
      (void)::read(go[0], &start, 1);  // EOF: every child starts at once
      TraceCache cache(dir);
      const TraceCache::Entry& entry =
          cache.get("raced.trace", [&](trace::TraceFileMeta* meta) {
            slowly();
            meta->word0 = 11;
            return run.trace;
          });
      const std::string& blob = cache.getBlob(
          "raced.res",
          [&] {
            slowly();
            return std::string("raced-blob");
          },
          valid);
      std::uint64_t digest = support::fnv1a(
          support::kFnvOffsetBasis, entry.view.data(),
          entry.view.size() * sizeof(trace::Record));
      digest = support::fnv1aWord(digest, entry.meta.word0);
      digest = support::fnv1a(digest, blob.data(), blob.size());
      const std::uint64_t words[3] = {cache.produced(), cache.blobsProduced(),
                                      digest};
      const bool sent =
          ::write(report[1], words, sizeof words) ==
          static_cast<ssize_t>(sizeof words);
      ::_exit(sent ? 0 : 1);
    }
    ::close(report[1]);
    children.emplace_back(pid, report[0]);
  }
  ::close(go[0]);
  ::close(go[1]);
  std::uint64_t produced = 0;
  std::uint64_t blobs = 0;
  std::set<std::uint64_t> digests;
  for (const auto& [pid, fd] : children) {
    std::uint64_t words[3] = {};
    EXPECT_TRUE(readFully(fd, words, sizeof words));
    ::close(fd);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    produced += words[0];
    blobs += words[1];
    digests.insert(words[2]);
  }
  EXPECT_EQ(produced, 1u);
  EXPECT_EQ(blobs, 1u);
  EXPECT_EQ(digests.size(), 1u) << "every child saw the same values";
  EXPECT_TRUE(tempFilesIn(dir).empty());
  TraceCache after(dir);
  EXPECT_EQ(after.get("raced.trace", nullptr).view.size(), run.trace.size());
  EXPECT_EQ(after.fileReuses(), 1u);
}

// A holder killed while it streams into the trace file leaves its lock to
// the kernel: the next cache takes it, writes the entry once, byte for
// byte what an uninterrupted writer makes, and leaves no temp file.
TEST(TraceCache, KilledHolderLeavesNoStuckLock) {
  const std::string dir = freshDir("killed_holder");
  const TracedRun run = tracedArraySum(4000);
  ASSERT_GT(run.trace.size(), 2 * trace::TraceFileWriter::kBlockRecords);
  const auto produce = [&](trace::TraceFileMeta* meta) {
    meta->word0 = 5;
    return run.trace;
  };
  int ready[2];
  int never[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(never), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready[0]);
    ::close(never[1]);
    TraceCache cache(dir);
    cache.getOrStream("killed.trace", [&](trace::TraceSink* writer) {
      if (writer == nullptr) ::_exit(2);
      const trace::TraceView view = run.trace.view();
      for (std::size_t i = 0; i < view.size() / 2; ++i) {
        writer->onRecord(view[i]);
      }
      (void)::write(ready[1], "x", 1);
      char byte = 0;
      (void)::read(never[0], &byte, 1);  // blocks until killed
      ::_exit(3);
      return TraceCache::Streamed{};
    });
    ::_exit(4);
  }
  ::close(ready[1]);
  ::close(never[0]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1) << "the holder streams";
  EXPECT_EQ(tempFilesIn(dir).size(), 1u) << "a partial temp file";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  ::close(ready[0]);
  ::close(never[1]);

  TraceCache cache(dir);
  const TraceCache::Entry& entry = cache.get("killed.trace", produce);
  EXPECT_EQ(cache.produced(), 1u);
  EXPECT_EQ(cache.bypasses(), 0u) << "the dead holder's lock is free";
  EXPECT_TRUE(tempFilesIn(dir).empty());
  TraceCache reference(freshDir("killed_holder_ref"));
  EXPECT_TRUE(readBytes(entry.path) ==
              readBytes(reference.get("killed.trace", produce).path));
}

// The cold grid of CachedGridSimulatesTheBaselineOnce, run by three pooled
// workers: each owns a cache over one directory, and the locks make them
// write the same files, byte for byte, as one process does, and the same
// rows.
TEST(TraceCache, PooledGridWritesWhatOneProcessWrites) {
  if (!Supervisor::isolationSupported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  SuiteEntry twolf;
  for (const SuiteEntry& e : defaultSuite()) {
    if (e.workload.name == "twolf") twolf = e;
  }
  std::vector<SweepCase> cases;
  for (const support::MachineConfig& machine : machineGrid()) {
    SweepCase c;
    c.benchmark = "twolf";
    c.config = "c" + std::to_string(cases.size());
    c.entry = twolf;
    c.entry.copts.spec_threads = machine.spec_threads;
    c.machine = machine;
    cases.push_back(c);
  }
  const auto sweepInto = [&](const std::string& dir, bool isolate) {
    SweepOptions opts;
    opts.trace_cache_dir = dir;
    opts.supervisor.isolate = isolate;
    opts.supervisor.jobs = 3;
    std::vector<SweepRow> rows = runSweep(ParallelSweep(3), cases, opts);
    for (SweepRow& row : rows) {
      EXPECT_EQ(row.status, CellStatus::kOk) << row.diagnostic;
      row.worker = WorkerDiagnostics{};
    }
    const std::string json = dir + ".json";
    EXPECT_TRUE(writeSweepJson(json, rows));
    std::istringstream lines(readBytes(json));
    std::string filtered;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"host_") == std::string::npos) filtered += line + "\n";
    }
    return filtered;
  };
  const std::string in_process = freshDir("grid_in_process");
  const std::string pooled = freshDir("grid_pooled");
  EXPECT_EQ(sweepInto(pooled, true), sweepInto(in_process, false));
  const std::vector<std::string> kinds = {".spt3", ".res", ".prof",
                                          ".forks"};
  const std::map<std::string, std::string> expected =
      filesIn(in_process, kinds);
  const std::map<std::string, std::string> got = filesIn(pooled, kinds);
  EXPECT_GE(expected.size(), 3u);
  std::set<std::string> expected_names;
  std::set<std::string> got_names;
  for (const auto& [name, bytes] : expected) expected_names.insert(name);
  for (const auto& [name, bytes] : got) got_names.insert(name);
  EXPECT_EQ(got_names, expected_names);
  EXPECT_TRUE(got == expected) << "the files differ in their bytes";
  EXPECT_TRUE(tempFilesIn(pooled).empty());
}

}  // namespace
}  // namespace spt::harness
