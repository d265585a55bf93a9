// Tests for the v4 trace container: round trips through a file opened
// with MappedTrace::open, corruption handling, and simulate-from-file
// equivalence.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "harness/experiment.h"
#include "random_programs.h"
#include "sim/baseline.h"
#include "test_programs.h"
#include "trace/trace_io.h"

namespace spt::trace {
namespace {

// Header: magic(8) + version(4) + flags(4) + count(8) + checksum(8) +
// meta(16).
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kCountOffset = 16;
constexpr std::size_t kRecordBytes = 40;

std::string tracePath(const std::string& name) {
  return ::testing::TempDir() + "/spt_trace_io_" + name + ".trace";
}

/// The whole of the file at `path`.
std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

/// The file image of `trace`, as writeTraceFile writes it.
std::string fileBytes(TraceView trace, const TraceFileMeta& meta = {}) {
  const std::string path = tracePath(
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".image");
  EXPECT_TRUE(writeTraceFile(path, trace, meta));
  return readFile(path);
}

/// Writes `bytes` to a scratch file named after the running test (ctest
/// runs tests as concurrent processes) and returns its path.
std::string writeScratch(const std::string& bytes) {
  const std::string path = tracePath(
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Writes `bytes` to the scratch file and opens it.
std::optional<MappedTrace> openBytes(const std::string& bytes,
                                     std::string* error = nullptr) {
  return MappedTrace::open(writeScratch(bytes), error);
}

void expectRecordsEqual(TraceView a, TraceView b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Record& ra = a[i];
    const Record& rb = b[i];
    ASSERT_EQ(ra.kind, rb.kind) << "record " << i;
    ASSERT_EQ(ra.op, rb.op) << "record " << i;
    ASSERT_EQ(ra.taken, rb.taken) << "record " << i;
    ASSERT_EQ(ra.sid, rb.sid) << "record " << i;
    ASSERT_EQ(ra.frame, rb.frame) << "record " << i;
    ASSERT_EQ(ra.callee_frame, rb.callee_frame) << "record " << i;
    // For kIterBegin records `value` is the 0-based iteration index, so
    // this also checks loop-iteration reconstruction from disk.
    ASSERT_EQ(ra.value, rb.value) << "record " << i;
    ASSERT_EQ(ra.mem_addr, rb.mem_addr) << "record " << i;
    ASSERT_EQ(ra.mem_old, rb.mem_old) << "record " << i;
  }
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  ir::Module m("t");
  testing::buildForkLoop(m, 20);
  harness::TracedRun run = harness::traceProgram(m);

  const std::string path = tracePath("round_trip");
  ASSERT_TRUE(writeTraceFile(path, run.trace, {0x1234, ~0ull}));
  std::string error;
  const auto back = MappedTrace::open(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  expectRecordsEqual(run.trace, *back);
  EXPECT_EQ(back->meta().word0, 0x1234u);
  EXPECT_EQ(back->meta().word1, ~0ull);
}

TEST(TraceIo, SimulationFromFileMatchesInMemory) {
  ir::Module m("t");
  testing::buildArraySum(m, 300);
  harness::TracedRun run = harness::traceProgram(m);

  const std::string path = tracePath("simulate");
  ASSERT_TRUE(writeTraceFile(path, run.trace));
  const auto loaded = MappedTrace::open(path);
  ASSERT_TRUE(loaded.has_value());

  const support::MachineConfig config;
  const auto direct = sim::BaselineMachine(m, run.trace, config).run();
  const auto from_file = sim::BaselineMachine(m, *loaded, config).run();
  EXPECT_EQ(direct.cycles, from_file.cycles);
  EXPECT_EQ(direct.instrs, from_file.instrs);
  EXPECT_EQ(direct.breakdown.execution, from_file.breakdown.execution);
}

TEST(TraceIo, RejectsBadMagic) {
  std::string error;
  EXPECT_FALSE(openBytes(std::string("NOTATRACE") + std::string(64, 'x'),
                         &error)
                   .has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(TraceIo, RejectsTruncatedStream) {
  ir::Module m("t");
  testing::buildArraySum(m, 10);
  harness::TracedRun run = harness::traceProgram(m);
  const std::string full = fileBytes(run.trace);
  const std::size_t cut = full.size() / 2;
  std::string error;
  EXPECT_FALSE(openBytes(full.substr(0, cut), &error).has_value());
  EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
  // The diagnostic names the byte offset where the file fell short.
  EXPECT_NE(error.find("truncated at byte offset " + std::to_string(cut)),
            std::string::npos)
      << error;
}

TEST(TraceIo, RejectsCorruptKind) {
  ir::Module m("t");
  testing::buildArraySum(m, 2);
  harness::TracedRun run = harness::traceProgram(m);
  std::string bytes = fileBytes(run.trace);
  bytes[kHeaderBytes] = 0x7f;  // first record's kind byte
  std::string error;
  EXPECT_FALSE(openBytes(bytes, &error).has_value());
  EXPECT_NE(error.find("corrupt record kind"), std::string::npos) << error;
  EXPECT_NE(error.find("byte offset " + std::to_string(kHeaderBytes)),
            std::string::npos)
      << error;
}

TEST(TraceIo, RejectsVersionMismatch) {
  ir::Module m("t");
  testing::buildArraySum(m, 2);
  harness::TracedRun run = harness::traceProgram(m);
  const std::string good = fileBytes(run.trace);
  // Version 2 (the retired record stream) and version 3 (the byte-wise
  // checksum) are as foreign as any other.
  for (const char version : {char{2}, char{3}, char{99}}) {
    std::string bytes = good;
    bytes[8] = version;  // version field (little-endian low byte)
    std::string error;
    EXPECT_FALSE(openBytes(bytes, &error).has_value());
    EXPECT_NE(error.find("unsupported trace version " +
                         std::to_string(version) + " (expected 4)"),
              std::string::npos)
        << error;
  }
}

// Byte-truncation at many offsets of a serialized random program. Every
// truncation point must be rejected: inside the header as a truncated
// header, past it with the byte offset where the records fell short.
TEST(TraceIo, TruncationAtAnyOffsetIsDiagnosed) {
  ir::Module m = testing::generateRandomProgram(3);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string full = fileBytes(run.trace);
  ASSERT_GT(full.size(), kHeaderBytes + 2 * kRecordBytes);

  // One file, cut shorter and shorter through cuts 1, 98, 195, ...,
  // the longest first.
  const std::string path = writeScratch(full);
  for (std::size_t k = (full.size() - 2) / 97 + 1; k-- > 0;) {
    const std::size_t cut = 1 + 97 * k;
    std::filesystem::resize_file(path, cut);
    std::string error;
    ASSERT_FALSE(MappedTrace::open(path, &error).has_value())
        << "cut " << cut;
    const std::string want = cut < kHeaderBytes
                                 ? std::string("truncated header")
                                 : "truncated at byte offset " +
                                       std::to_string(cut);
    EXPECT_NE(error.find(want), std::string::npos)
        << "cut " << cut << ": " << error;
  }
}

// Single-bit flips anywhere in the record array are caught — either as an
// out-of-range kind/opcode/flag at a named offset or by the checksum.
TEST(TraceIo, BitFlipsAreDetected) {
  ir::Module m = testing::generateRandomProgram(5);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string full = fileBytes(run.trace);

  // One file, each bit flipped in place and flipped back.
  const std::string path = writeScratch(full);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto put = [&](std::size_t byte, char value) {
    file.seekp(static_cast<std::streamoff>(byte));
    file.put(value);
    file.flush();
  };
  std::size_t checksum_hits = 0;
  std::size_t range_hits = 0;
  for (std::size_t byte = kHeaderBytes; byte < full.size(); byte += 53) {
    for (int bit : {0, 4, 7}) {
      put(byte, static_cast<char>(full[byte] ^ (1 << bit)));
      std::string error;
      const bool opened = MappedTrace::open(path, &error).has_value();
      put(byte, full[byte]);
      ASSERT_FALSE(opened) << "byte " << byte << " bit " << bit;
      if (error.find("checksum mismatch") != std::string::npos) {
        ++checksum_hits;
      } else if (error.find("corrupt") != std::string::npos) {
        ++range_hits;
        EXPECT_NE(error.find("byte offset"), std::string::npos) << error;
      } else {
        FAIL() << "unexpected diagnostic: " << error;
      }
    }
  }
  EXPECT_GT(checksum_hits, 0u);
  EXPECT_GT(range_hits, 0u);
}

// Any corruption confined to one 64-bit payload word is caught: the
// checksum's lane step is a bijection for a fixed word, so a changed word
// always changes the digest. Each word gets a seeded random non-zero mask.
TEST(TraceIo, WholeWordCorruptionIsDetected) {
  ir::Module m("t");
  testing::buildForkLoop(m, 6);
  const harness::TracedRun run = harness::traceProgram(m);
  // 70 records: not a whole number of four-record checksum rounds, so the
  // words folded after the last round are covered too.
  ASSERT_EQ(run.trace.size() % 4, 2u);
  const std::string full = fileBytes(run.trace);

  const std::string path = writeScratch(full);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto put = [&](std::size_t at, const char* bytes) {
    file.seekp(static_cast<std::streamoff>(at));
    file.write(bytes, 8);
    file.flush();
  };
  std::mt19937_64 rng(23);
  std::size_t checksum_hits = 0;
  std::size_t range_hits = 0;
  for (std::size_t at = kHeaderBytes; at < full.size(); at += 8) {
    std::uint64_t mask = 0;
    while (mask == 0) mask = rng();
    std::uint64_t word = 0;
    std::memcpy(&word, full.data() + at, 8);
    word ^= mask;
    char bad[8];
    std::memcpy(bad, &word, 8);
    put(at, bad);
    std::string error;
    const bool opened = MappedTrace::open(path, &error).has_value();
    put(at, full.data() + at);
    ASSERT_FALSE(opened) << "word at byte " << at;
    if (error.find("checksum mismatch") != std::string::npos) {
      ++checksum_hits;
    } else if (error.find("corrupt") != std::string::npos &&
               error.find("byte offset") != std::string::npos) {
      ++range_hits;
    } else {
      FAIL() << "unexpected diagnostic: " << error;
    }
  }
  EXPECT_GT(checksum_hits, 0u);
  EXPECT_GT(range_hits, 0u);
  // The file is whole again.
  EXPECT_TRUE(MappedTrace::open(path).has_value());
}

// Every single-bit flip of the header's record count is a size mismatch.
// Bits 61-63 are the dangerous ones: `count * 40` wraps modulo 2^64 back
// to the true size, so a size check done in bytes passes and validation
// then reads far past the mapping.
TEST(TraceIo, CountFieldBitFlipsAreSizeMismatches) {
  ir::Module m("t");
  testing::buildArraySum(m, 1);
  const harness::TracedRun run = harness::traceProgram(m);
  ASSERT_GE(run.trace.size(), 3u);
  const TraceView three(run.trace.view().data(), 3);
  const std::string full = fileBytes(three);
  ASSERT_EQ(full.size(), kHeaderBytes + 3 * kRecordBytes);

  for (std::size_t byte = kCountOffset; byte < kCountOffset + 8; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = full;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      std::string error;
      EXPECT_FALSE(openBytes(bytes, &error).has_value())
          << "byte " << byte << " bit " << bit;
      EXPECT_NE(error.find("record stream size mismatch"), std::string::npos)
          << "byte " << byte << " bit " << bit << ": " << error;
    }
  }
}

void expectSameLoopIndex(const ir::Module& m, TraceView a, TraceView b) {
  const LoopIndex ia(m, a);
  const LoopIndex ib(m, b);
  ASSERT_EQ(ia.episodes().size(), ib.episodes().size());
  for (std::size_t e = 0; e < ia.episodes().size(); ++e) {
    const LoopEpisode& ea = ia.episodes()[e];
    const LoopEpisode& eb = ib.episodes()[e];
    EXPECT_EQ(ea.header_sid, eb.header_sid);
    EXPECT_EQ(ea.frame, eb.frame);
    EXPECT_EQ(ea.iter_begins, eb.iter_begins);
    EXPECT_EQ(ea.exit_index, eb.exit_index);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind == RecordKind::kInstr && a[i].op == ir::Opcode::kSptFork) {
      EXPECT_EQ(ia.startOfFork(i), ib.startOfFork(i)) << "record " << i;
    }
  }
}

// Property test: seeded random programs (induction chains, scattered
// loads/stores, calls, conditional blocks) survive a disk round trip
// record-exactly, and the LoopIndex rebuilt from the mapped trace is
// identical — episodes, iteration boundaries, and fork start-points.
TEST(TraceIo, RandomProgramRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ir::Module m = testing::generateRandomProgram(seed);
    const harness::TracedRun run = harness::traceProgram(m);
    ASSERT_GT(run.trace.size(), 0u) << "seed " << seed;

    const std::string path = tracePath("random_" + std::to_string(seed));
    ASSERT_TRUE(writeTraceFile(path, run.trace)) << "seed " << seed;
    std::string error;
    const auto back = MappedTrace::open(path, &error);
    ASSERT_TRUE(back.has_value()) << "seed " << seed << ": " << error;
    expectRecordsEqual(run.trace, *back);
    // The validating pass counts the instructions the run executed.
    EXPECT_EQ(back->instrCount(), run.result.dynamic_instrs) << "seed " << seed;
    expectSameLoopIndex(m, run.trace, *back);
  }
}

// Fork records specifically: the mapped trace must resolve every fork to
// the same speculative start-point as the in-memory trace.
TEST(TraceIo, ForkResolutionSurvivesRoundTrip) {
  ir::Module m("t");
  testing::buildForkLoop(m, 25);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string path = tracePath("forks");
  ASSERT_TRUE(writeTraceFile(path, run.trace));
  const auto back = MappedTrace::open(path);
  ASSERT_TRUE(back.has_value());

  const LoopIndex original(m, run.trace);
  std::size_t resolved_forks = 0;
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    if (run.trace[i].kind == RecordKind::kInstr &&
        run.trace[i].op == ir::Opcode::kSptFork &&
        original.startOfFork(i) != LoopIndex::kNoStart) {
      ++resolved_forks;
    }
  }
  EXPECT_GT(resolved_forks, 0u);
  expectSameLoopIndex(m, run.trace, *back);
}

// The writer checks each record as MappedTrace::open does: a record out
// of range fails finish() with open's diagnostic, and no file is left.
TEST(TraceIo, WriterRefusesOutOfRangeRecordsAndLeavesNoFile) {
  ir::Module m("t");
  testing::buildArraySum(m, 2000);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::size_t bad = TraceFileWriter::kBlockRecords + 3;
  ASSERT_GT(run.trace.size(), bad);
  const std::string path = tracePath("writer_refuses");
  std::filesystem::remove(path);
  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "append" : "onRecord");
    TraceBuffer damaged = run.trace;  // a copy, whose records we own
    Record* records = const_cast<Record*>(damaged.view().data());
    records[bad].pad = 7;
    TraceFileWriter writer(path, path + ".tmp.test");
    if (bulk) {
      writer.append(damaged.view());
    } else {
      for (const Record& r : damaged.view()) writer.onRecord(r);
    }
    std::string error;
    EXPECT_FALSE(writer.finish({}, &error).has_value());
    EXPECT_NE(error.find("corrupt pad byte 7 in record " +
                         std::to_string(bad) + " at byte offset " +
                         std::to_string(kHeaderBytes + bad * kRecordBytes +
                                        3)),
              std::string::npos)
        << error;
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp.test"));
  }
}

// A writer dropped before finish() (the run feeding it threw) removes its
// temp file; a file mapped against a summary it does not match is refused.
TEST(TraceIo, UnfinishedWriterLeavesNothingAndSummariesMustMatch) {
  ir::Module m("t");
  testing::buildArraySum(m, 300);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string path = tracePath("unfinished");
  std::filesystem::remove(path);
  {
    TraceFileWriter writer(path, path + ".tmp.test");
    writer.append(run.trace.view());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp.test"));

  TraceFileWriter writer(path, path + ".tmp.test");
  writer.append(run.trace.view());
  const std::optional<TraceFileSummary> written = writer.finish({1, 2});
  ASSERT_TRUE(written.has_value());
  EXPECT_EQ(written->records, run.trace.size());
  EXPECT_EQ(written->instrs, run.result.dynamic_instrs);
  std::string error;
  const auto mapped = MappedTrace::openWritten(path, *written, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(mapped->summary(), *written);
  EXPECT_EQ(mapped->summary(), MappedTrace::open(path)->summary());
  TraceFileSummary other_checksum = *written;
  other_checksum.checksum ^= 1;
  TraceFileSummary other_count = *written;
  other_count.records -= 1;
  TraceFileSummary other_meta = *written;
  other_meta.meta.word1 = 3;
  for (const TraceFileSummary& other :
       {other_checksum, other_count, other_meta}) {
    EXPECT_FALSE(MappedTrace::openWritten(path, other, &error).has_value());
    EXPECT_NE(error.find("differs from the one written"), std::string::npos)
        << error;
  }
}

TEST(TraceIo, FileHelpers) {
  ir::Module m("t");
  testing::buildFib(m, 6);
  harness::TracedRun run = harness::traceProgram(m);
  const std::string path = tracePath("file_helpers");
  ASSERT_TRUE(writeTraceFile(path, run.trace));
  std::string error;
  const auto back = MappedTrace::open(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->size(), run.trace.size());
  EXPECT_FALSE(MappedTrace::open(path + ".missing", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  EXPECT_FALSE(writeTraceFile(path + ".missing/dir/x", run.trace));
}

}  // namespace
}  // namespace spt::trace
