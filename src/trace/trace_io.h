// Binary trace serialization.
//
// The paper's simulator consumes execution-trace files (Section 5.1); this
// gives the same workflow: trace once, simulate many configurations without
// re-interpreting. The container is a 48-byte 8-aligned header (magic,
// version 4, flags, record count, checksum of the record words, two
// application-defined meta words) followed by the raw trace::Record array.
// Because Record *is* the disk layout (record.h's static_asserts),
// MappedTrace maps the file and hands out a zero-copy TraceView over the
// region — no materialization, and the page cache shares one physical copy
// across every process simulating the same workload. Validation (size,
// checksum, per-record ranges, canonical pad/taken bytes) runs once at
// open and reports corruption with the byte offset and what was expected
// there.
//
// Version 4 checksums the payload by 64-bit words (support::WordLanes)
// where version 3 folded FNV-1a byte by byte; open() checks, checksums and
// counts the records in one pass over the mapping, so opening a cached
// trace costs a small fraction of streaming it. Files of any other version
// are refused, and the trace cache re-produces them.
//
// There is one write path: TraceFileWriter, a TraceSink that checks,
// checksums, counts and writes the blocks of records as they arrive, so a trace can
// be written while the run that makes it streams into a machine. A file
// this process wrote is mapped again by openWritten() against the
// writer's summary, without a second pass over its records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "support/hash.h"
#include "trace/trace.h"

namespace spt::trace {

/// Application-defined words stored in the header (zero when unused).
/// The harness's shared-trace cache stores the traced run's return value
/// and memory hash here so cached simulations can re-assert the
/// baseline-vs-SPT execution equivalence without re-interpreting.
struct TraceFileMeta {
  std::uint64_t word0 = 0;
  std::uint64_t word1 = 0;
  bool operator==(const TraceFileMeta&) const = default;
};

/// What a container holds besides its records: what its writer reported,
/// or what a validating open found.
struct TraceFileSummary {
  std::uint64_t records = 0;
  std::uint64_t instrs = 0;  // kInstr records
  std::uint64_t checksum = 0;
  TraceFileMeta meta;
  bool operator==(const TraceFileSummary&) const = default;
};

/// Writes a container as its records arrive. Records gather in blocks of
/// kBlockRecords (an arriving whole block is taken as it is); each block
/// gets the per-record checks MappedTrace::open applies, is folded into
/// the checksum, counted and written to the temp file `tmp`. finish() writes the header last, at offset 0, and renames
/// `tmp` onto `path`, so no reader ever sees a partial trace. A writer
/// destroyed unfinished (the run feeding it threw) removes `tmp`.
class TraceFileWriter final : public TraceSink {
 public:
  /// A block folds 5 * 4096 words, a multiple of WordLanes::kLanes, so
  /// every block but the last continues the checksum at lane 0.
  static constexpr std::size_t kBlockRecords = trace::kBlockRecords;

  TraceFileWriter(std::string path, std::string tmp);
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;
  ~TraceFileWriter() override;

  /// The records of `block`: whole blocks go straight from it.
  void onBlock(TraceView block) override;

  /// Completes the file with `meta` in its header and renames it into
  /// place. Returns std::nullopt when a record failed its checks or a
  /// write failed; `error` (when given) says which, with byte offsets.
  std::optional<TraceFileSummary> finish(const TraceFileMeta& meta,
                                         std::string* error = nullptr);

 private:
  void flush();
  /// Checks, checksums, counts and writes `n` records; every call but the
  /// last passes a whole number of blocks.
  void put(const Record* records, std::size_t n);

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<Record[]> block_;
  std::size_t pending_ = 0;
  support::WordLanes lanes_;
  std::uint64_t records_ = 0;
  std::uint64_t instrs_ = 0;
  std::string error_;  // the first failure; empty while all is well
};

/// Writes `trace` to `path` through a TraceFileWriter (temp file
/// `<path>.tmp.<pid>`). Returns false on I/O failure.
bool writeTraceFile(const std::string& path, TraceView trace,
                    const TraceFileMeta& meta = {});

/// A trace file mapped (or, where mmap is unavailable, read) into memory.
/// The whole file is validated at open — magic, version, size, checksum,
/// and every record's kind/opcode/pad/taken bytes — so view() needs no
/// further checks.
///
/// Ownership & lifetime rules (docs/PERF.md "Trace v4"):
///  * MappedTrace owns the mapping; view() is non-owning and must not
///    outlive the MappedTrace it came from (nor any machine/LoopIndex
///    holding that view).
///  * The mapping is read-only and MAP_SHARED-equivalent: concurrent
///    opens of one file — including across supervised worker processes —
///    share a single page-cache copy, never a private writable clone.
///  * Move-only; moving transfers the mapping, invalidating nothing (views
///    point at the mapping, which does not relocate).
class MappedTrace {
 public:
  /// Opens and validates `path`. Returns std::nullopt on any validation
  /// failure; `error` (when given) explains with byte offsets.
  static std::optional<MappedTrace> open(const std::string& path,
                                         std::string* error = nullptr);
  /// Maps `path`, a file this process wrote, and checks its header and
  /// size against the `written` summary its writer reported instead of
  /// reading every record again. Any other file goes through open().
  static std::optional<MappedTrace> openWritten(
      const std::string& path, const TraceFileSummary& written,
      std::string* error = nullptr);

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;
  ~MappedTrace();

  TraceView view() const { return {records_, count_}; }
  operator TraceView() const { return view(); }  // NOLINT
  std::size_t size() const { return count_; }
  /// The number of kInstr records, counted by the validating pass.
  std::uint64_t instrCount() const { return instr_count_; }
  const TraceFileMeta& meta() const { return meta_; }
  TraceFileSummary summary() const {
    return {count_, instr_count_, checksum_, meta_};
  }

 private:
  MappedTrace() = default;
  void release();
  /// Maps `path` and reads its header: magic, version, flags and a record
  /// count that fits the file. The records are not yet checked.
  static std::optional<MappedTrace> map(const std::string& path,
                                        std::string* error);

  const Record* records_ = nullptr;  // points into map_base_ past the header
  std::size_t count_ = 0;
  std::uint64_t instr_count_ = 0;
  std::uint64_t checksum_ = 0;  // as stored in the header
  TraceFileMeta meta_;
  void* map_base_ = nullptr;   // mmap base (nullptr when heap-backed)
  std::size_t map_len_ = 0;    // mmap length in bytes
  char* heap_copy_ = nullptr;  // fallback buffer when mmap is unavailable
};

}  // namespace spt::trace
