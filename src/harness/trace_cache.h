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
// validates the file at open (or from the writer, for a file this process
// wrote), so cached experiments re-assert baseline-vs-SPT execution
// equivalence without re-interpreting or re-reading the trace.
//
// A cache miss need not materialize the trace: getOrStream() hands the
// producing run a TraceFileWriter to tee its records into while they
// stream into a machine, so the producing cell is the uncached cell plus
// a write, and later cells in this process map the file against the
// writer's summary instead of validating it again.
//
// Beside each trace the cache keeps its fork table (trace::ForkTable, the
// blob <key>.forks): every fork's start-point, which is all the SPT
// machine reads of a LoopIndex. The producing stream's machine indexed the
// whole trace anyway, so it hands its table over and the cache writes it
// at no extra pass; a hit decodes the table once per process, checking it
// against the trace's record count and checksum and the records at its
// forks, and replays the mapped trace against it. So a hit makes no pass
// over the records beyond the validating open of a file this process did
// not write, and a missing or damaged table is made again by one batch
// LoopIndex.
//
// Concurrency: one writer per key per cache directory. Within one cache,
// calls for a key wait while one of them produces it, then share what it
// made (a stream that computes alone, below, makes nothing to share and
// holds no one up). Across caches (other processes, such as sibling pooled
// workers, or other caches in this process) a cache takes a non-blocking
// flock on <dir>/<key>.lock before it produces a trace or a blob, and
// looks for a valid file once more under it. A cache that finds the lock
// held waits on no one: it computes its own value exactly as an uncached
// cell does and writes nothing, so no cell ever blocks on another process,
// and a killed holder's lock is freed by the kernel. The lock files are
// never removed (removing one would let two writers hold "the" lock on two
// inodes). The holder writes a temp file <file>.tmp.held, truncating any a
// killed holder left, and renames it into place, so readers only ever see
// complete, checksummed files. A file that fails validation (truncated
// leftover, version skew) is silently re-produced. Files keep the name
// <key>.spt3 across container versions, so a cache written by an older
// version heals in place: each stale file is overwritten by the first
// get() that finds it.
//
// Beside the traces the cache keeps small checksummed blobs (getBlob) of
// values that are deterministic functions of their keys. A cached
// experiment keeps its baseline there and no baseline trace: the streamed
// one-core run's result, keyed by the one-core config, and its profile,
// so a hit neither interprets nor simulates the baseline; the profile of
// a module unrolling made (experiment.h); and the traces' fork tables.
//
// Lifetime: entries (and the mappings behind their views) and fork tables
// live until the cache is destroyed; every machine/LoopIndex built over an
// entry's view must be gone by then (docs/PERF.md "Trace v4").
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

  /// What a stream that makes a trace reports besides its records: the
  /// run's meta words and, when it wrote the trace, the trace's finished
  /// fork table.
  struct Streamed {
    trace::TraceFileMeta meta;
    trace::ForkTable forks;
  };

  /// Runs the program that makes a trace, teeing its records into
  /// `writer` when that is not null.
  using Streamer = std::function<Streamed(trace::TraceSink* writer)>;

  /// Makes a trace's fork table from its records (a batch LoopIndex).
  using ForkBuilder = std::function<trace::ForkTable()>;

  /// `dir` is created if missing; trace files land there as <key>.spt3.
  explicit TraceCache(std::string dir);

  /// Returns the entry for `key`, producing and writing the file on
  /// first use in this process (or adopting a valid file another process
  /// already wrote). When another cache holds the key's lock the entry is
  /// the produced trace, kept in memory. The reference is stable for the
  /// cache's lifetime.
  const Entry& get(const std::string& key, const Producer& produce);

  /// Returns the entry for `key` when this process has it or a valid file
  /// exists. Otherwise runs `stream` once, with a writer for the key's
  /// file when this cache takes the key's lock and with nullptr when
  /// another cache holds it, and returns nullptr: the caller has its
  /// result from the stream. A `stream` that throws leaves no file. A
  /// stream that wrote the file hands over its fork table, which is
  /// stored as forks() stores one before any other call sees the entry.
  const Entry* getOrStream(const std::string& key, const Streamer& stream);

  /// Accepts a blob's bytes; false for damaged or version-skewed ones.
  using BlobCheck = std::function<bool(const std::string& bytes)>;

  /// A small value kept as the file `<key>` (normalized like a trace key,
  /// so `key` names its own extension).
  /// Returns the bytes: held in memory after the first call in this
  /// process, else read from a file `valid` accepts, else made by
  /// `produce` and written by the same locked write-then-rename as a trace
  /// (or only kept in memory when another cache holds the lock), so a
  /// missing, damaged or version-skewed file is silently made again. The
  /// bytes must be a deterministic function of the key and carry their own
  /// checksum and version, which `valid` tests. `produce` may fill another
  /// key's blob by calling getBlob() for it. The reference is stable for
  /// the cache's lifetime.
  const std::string& getBlob(const std::string& key,
                             const std::function<std::string()>& produce,
                             const BlobCheck& valid);

  /// The fork table of `key`'s trace, whose entry this cache already holds
  /// (get() or getOrStream() found or made it). It is the blob
  /// `<key>.forks` (encodeForkTable) and is counted as one, but held
  /// decoded, not as bytes: after the first call in this process, read
  /// from a file decodeForkTable binds to the entry's file, else made by
  /// `build` and written as getBlob() writes. An entry kept in memory
  /// because another cache held its lock has no file to bind a table to,
  /// so `build` makes its table and nothing is written or counted. The
  /// reference is stable for the cache's lifetime.
  const trace::ForkTable& forks(const std::string& key,
                                const ForkBuilder& build);

  const std::string& dir() const { return dir_; }

  /// Observability for tests: how many get()/getOrStream() calls found
  /// an in-memory entry, adopted an existing file, or produced and wrote
  /// one; how many getBlob() and forks() calls were answered without the
  /// producer (in memory or from a file), or produced and wrote the blob;
  /// and how many calls of any kind found another cache's lock and
  /// computed alone.
  std::uint64_t memoryHits() const;
  std::uint64_t fileReuses() const;
  std::uint64_t produced() const;
  std::uint64_t blobHits() const;
  std::uint64_t blobsProduced() const;
  std::uint64_t bypasses() const;

 private:
  struct Slot {
    std::mutex mu;  // serializes this key's calls in this process
    bool ready = false;
    std::optional<trace::MappedTrace> map;
    trace::TraceBuffer buffer;  // the entry's records when nothing is mapped
    Entry entry;
    std::optional<trace::ForkTable> forks;  // once forks() has run
  };

  struct Blob {
    std::mutex mu;
    bool ready = false;
    std::string bytes;
  };

  Slot& slotFor(const std::string& key);
  /// The file for `key` with `extension` appended.
  std::string pathOf(const std::string& key, const char* extension) const;
  /// Fills `slot` from a valid file at `path`; false when there is none.
  bool adopt(Slot& slot, const std::string& path);
  static void install(Slot& slot, const std::string& path,
                      trace::MappedTrace mapped);
  /// forks() for a slot whose mutex the caller holds.
  const trace::ForkTable& forksOf(Slot& slot, const std::string& key,
                                  const ForkBuilder& build);
  /// getBlob() without the in-memory copy: the file's bytes, or
  /// `produce`'s, written under the key's lock when this cache takes it.
  std::string loadBlob(const std::string& key,
                       const std::function<std::string()>& produce,
                       const BlobCheck& valid);
  void count(std::uint64_t& counter);

  std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
  std::uint64_t memory_hits_ = 0;
  std::uint64_t file_reuses_ = 0;
  std::uint64_t produced_ = 0;
  std::map<std::string, std::unique_ptr<Blob>> blobs_;
  std::uint64_t blob_hits_ = 0;
  std::uint64_t blobs_produced_ = 0;
  std::uint64_t bypasses_ = 0;
};

}  // namespace spt::harness
