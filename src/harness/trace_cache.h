// Shared mmap-backed trace store for sweeps (trace container v4).
//
// A suite sweep re-runs the same workload under many machine configs, and
// a supervised sweep re-runs it across many worker processes; before this
// cache every cell re-interpreted the program just to rebuild a trace that
// is a pure function of (workload, scale, compiler plan). TraceCache
// makes the trace a file: the first producer interprets once and writes a
// trace container (trace_io.h), every later consumer — same process,
// another pool thread, or another forked worker — mmaps that file and
// simulates over a zero-copy TraceView. Because the mappings are read-only
// and MAP_SHARED, the page cache keeps **one** physical copy of each
// workload's trace no matter how many supervised workers are replaying it.
//
// The traced run's return value and memory hash ride in the container
// header's meta words, and its instruction count comes from the pass that
// validates the file at open, so cached experiments re-assert
// baseline-vs-SPT execution equivalence without re-interpreting or
// re-reading the trace.
//
// Concurrency: get() is thread-safe; production is serialized per key
// (std::call_once). Across *processes* the file itself is the lock-free
// rendezvous — writers produce into a pid-suffixed temp file and rename(2)
// it into place, so concurrent producers race benignly (the trace is
// deterministic, both files are byte-identical, last rename wins) and
// readers only ever see complete, checksummed files. A file that fails
// validation (truncated leftover, version skew) is silently re-produced.
// Files keep the name <key>.spt3 across container versions, so a cache
// written by an older version heals in place: each stale file is
// overwritten by the first get() that finds it.
//
// Beside the traces the cache keeps small checksummed blobs (getBlob) of
// values that are deterministic functions of their keys. A cached
// experiment keeps its baseline there and no baseline trace: the streamed
// one-core run's result, keyed by the one-core config, and its profile,
// so a hit neither interprets nor simulates the baseline; and the profile
// of a module unrolling made (experiment.h).
//
// Lifetime: entries (and the mappings behind their views) live until the
// cache is destroyed; every machine/LoopIndex built over an entry's view
// must be gone by then (docs/PERF.md "Trace v4").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "trace/trace.h"
#include "trace/trace_io.h"

namespace spt::harness {

class TraceCache {
 public:
  struct Entry {
    trace::TraceView view;
    trace::TraceFileMeta meta;  // word0 = return value, word1 = memory hash
    std::string path;           // the backing container file
    std::uint64_t instr_count = 0;  // kInstr records in `view`
  };

  /// Fills `meta` and returns the freshly produced trace on a miss.
  using Producer =
      std::function<trace::TraceBuffer(trace::TraceFileMeta* meta)>;

  /// `dir` is created if missing; trace files land there as <key>.spt3.
  explicit TraceCache(std::string dir);

  /// Returns the entry for `key`, producing and writing the file on
  /// first use in this process (or adopting a valid file another process
  /// already wrote). The reference is stable for the cache's lifetime.
  const Entry& get(const std::string& key, const Producer& produce);

  /// Accepts a blob's bytes; false for damaged or version-skewed ones.
  using BlobCheck = std::function<bool(const std::string& bytes)>;

  /// A small value kept as the file `<key>` (normalized like a trace key,
  /// so `key` names its own extension).
  /// Returns the bytes: held in memory after the first call in this
  /// process, else read from a file `valid` accepts, else made by
  /// `produce` and written by the same write-then-rename as a trace, so a
  /// missing, damaged or version-skewed file is silently made again. The
  /// bytes must be a deterministic function of the key and carry their own
  /// checksum and version, which `valid` tests. `produce` may fill another
  /// key's blob by calling getBlob() for it. The reference is stable for
  /// the cache's lifetime.
  const std::string& getBlob(const std::string& key,
                             const std::function<std::string()>& produce,
                             const BlobCheck& valid);

  const std::string& dir() const { return dir_; }

  /// Observability for tests: how many get() calls found an in-memory
  /// entry, adopted an existing file, or had to run the producer; and how
  /// many getBlob() calls were answered without the producer (in memory
  /// or from a file), or had to run it.
  std::uint64_t memoryHits() const;
  std::uint64_t fileReuses() const;
  std::uint64_t produced() const;
  std::uint64_t blobHits() const;
  std::uint64_t blobsProduced() const;

 private:
  struct Slot {
    std::once_flag once;
    std::optional<trace::MappedTrace> map;
    Entry entry;
  };

  struct Blob {
    std::once_flag once;
    std::string bytes;
  };

  void populate(Slot& slot, const std::string& key, const Producer& produce);

  std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
  std::uint64_t memory_hits_ = 0;
  std::uint64_t file_reuses_ = 0;
  std::uint64_t produced_ = 0;
  std::map<std::string, std::unique_ptr<Blob>> blobs_;
  std::uint64_t blob_hits_ = 0;
  std::uint64_t blobs_produced_ = 0;
};

}  // namespace spt::harness
