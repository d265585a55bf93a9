// Binary trace serialization.
//
// The paper's simulator consumes execution-trace files (Section 5.1); this
// gives the same workflow: trace once, simulate many configurations without
// re-interpreting. The container is a 48-byte 8-aligned header (magic,
// version 3, flags, record count, FNV-1a checksum of the record bytes, two
// application-defined meta words) followed by the raw trace::Record array.
// Because Record *is* the disk layout (record.h's static_asserts),
// MappedTrace maps the file and hands out a zero-copy TraceView over the
// region — no materialization, and the page cache shares one physical copy
// across every process simulating the same workload. Validation (size,
// checksum, per-record ranges, canonical pad/taken bytes) runs once at
// open and reports corruption with the byte offset and what was expected
// there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "trace/trace.h"

namespace spt::trace {

/// Application-defined words stored in the v3 header (zero when unused).
/// The harness's shared-trace cache stores the traced run's return value
/// and memory hash here so cached simulations can re-assert the
/// baseline-vs-SPT execution equivalence without re-interpreting.
struct TraceFileMeta {
  std::uint64_t word0 = 0;
  std::uint64_t word1 = 0;
};

/// Writes the trace in v3 (mmap container) form. Returns false on I/O
/// failure.
bool writeTraceV3(std::ostream& os, TraceView trace,
                  const TraceFileMeta& meta = {});
bool writeTraceV3File(const std::string& path, TraceView trace,
                      const TraceFileMeta& meta = {});

/// A v3 trace file mapped (or, where mmap is unavailable, read) into
/// memory. The whole file is validated at open — magic, version, size,
/// checksum, and every record's kind/opcode/pad/taken bytes — so view()
/// needs no further checks.
///
/// Ownership & lifetime rules (docs/PERF.md "Trace v3"):
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

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;
  ~MappedTrace();

  TraceView view() const { return {records_, count_}; }
  operator TraceView() const { return view(); }  // NOLINT
  std::size_t size() const { return count_; }
  const TraceFileMeta& meta() const { return meta_; }

 private:
  MappedTrace() = default;
  void release();

  const Record* records_ = nullptr;  // points into map_base_ past the header
  std::size_t count_ = 0;
  TraceFileMeta meta_;
  void* map_base_ = nullptr;   // mmap base (nullptr when heap-backed)
  std::size_t map_len_ = 0;    // mmap length in bytes
  char* heap_copy_ = nullptr;  // fallback buffer when mmap is unavailable
};

}  // namespace spt::trace
