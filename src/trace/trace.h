// Trace sinks, in-memory trace buffer, and the loop/fork index.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"
#include "trace/record.h"

namespace spt::trace {

/// Streaming consumer of trace records (profilers implement this so that
/// profiling runs need not buffer the whole trace).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onRecord(const Record& record) = 0;
};

/// Sink that discards everything (plain functional runs).
class NullSink final : public TraceSink {
 public:
  void onRecord(const Record&) override {}
};

/// Sink that forwards to several sinks.
class TeeSink final : public TraceSink {
 public:
  void add(TraceSink* sink) { sinks_.push_back(sink); }
  void onRecord(const Record& record) override {
    for (TraceSink* s : sinks_) s->onRecord(record);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Non-owning view over a contiguous run of records — the single currency
/// the machines, LoopIndex, and the oracle consume. Both an in-memory
/// TraceBuffer and an mmap-ed trace file (trace_io::MappedTrace) produce one,
/// so simulation is zero-copy over whichever backing store holds the
/// records. Lifetime: the backing store must outlive every view (and every
/// machine/index holding one); views are cheap value types (pointer+size).
class TraceView {
 public:
  TraceView() = default;
  TraceView(const Record* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Record& operator[](std::size_t i) const { return data_[i]; }
  const Record* data() const { return data_; }
  const Record* begin() const { return data_; }
  const Record* end() const { return data_ + size_; }

  /// Number of kInstr records.
  std::size_t instrCount() const;

 private:
  const Record* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Stores the full trace in memory, for the consumers that need all of it
/// at once: trace files, the trace cache, and replays of one trace through
/// many machines. A single simulation needs no stored trace: both machines
/// also run as sinks behind the interpreter.
///
/// The records live in one malloc'd block grown by std::realloc (Record is
/// trivially copyable). Once the block is large, glibc keeps it in a
/// mapping of its own and grows it with mremap, so growth neither copies
/// the records nor holds the old and new blocks at once.
class TraceBuffer final : public TraceSink {
 public:
  TraceBuffer() = default;
  TraceBuffer(const TraceBuffer& other);
  /// Leaves `other` empty; the records keep their address.
  TraceBuffer(TraceBuffer&& other) noexcept;
  TraceBuffer& operator=(TraceBuffer other) noexcept;
  ~TraceBuffer() override;

  void onRecord(const Record& record) override {
    if (size_ == capacity_) grow();
    data_[size_++] = record;
  }

  std::size_t size() const { return size_; }
  const Record& operator[](std::size_t i) const { return data_[i]; }
  TraceView records() const { return view(); }

  TraceView view() const { return {data_, size_}; }
  /// Implicit so every TraceView consumer keeps accepting a TraceBuffer.
  operator TraceView() const { return view(); }  // NOLINT

  /// Number of kInstr records.
  std::size_t instrCount() const;

 private:
  void grow();

  Record* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Stable display name for a loop: "func.label" of its header block.
std::string loopNameOf(const ir::Module& module, ir::StaticId header_sid);

/// One dynamic execution episode of a loop: from entering the header to the
/// exit marker. `iter_begins` are record indices of kIterBegin markers.
struct LoopEpisode {
  ir::StaticId header_sid = ir::kInvalidStaticId;
  FrameId frame = 0;
  std::vector<std::size_t> iter_begins;
  std::size_t exit_index = 0;  // index of the kLoopExit marker (or trace end)
};

/// The forks of one trace and their start-points: all the SPT machine reads
/// of a LoopIndex. A LoopIndex fills one as the records pass; a finished
/// one is a pure function of the trace, so a trace cache stores it beside
/// the trace and a cache hit replays against the stored table without a
/// pass over the records (harness/trace_cache.h).
struct ForkTable {
  static constexpr std::size_t kNoStart = static_cast<std::size_t>(-1);
  /// The start-point of a fork that has no answer yet (only while a
  /// LoopIndex is still being built).
  static constexpr std::size_t kPending = kNoStart - 1;

  /// Fork record indices, strictly increasing. A fork's ordinal is its
  /// position here and in `starts`.
  std::vector<std::size_t> records;
  /// Each fork's start-point record index, kNoStart or kPending.
  std::vector<std::size_t> starts;

  /// True once the fork record at `record_index` has a start-point answer.
  bool resolved(std::size_t record_index) const;
  /// For the fork record at `record_index`: the record index of the
  /// speculative thread's start-point (a kIterBegin marker for loop forks,
  /// a kInstr record for region forks), or kNoStart when control never
  /// reached the start-point (wrong-path fork).
  std::size_t startOfFork(std::size_t record_index) const;

  bool operator==(const ForkTable&) const = default;

 private:
  /// starts entry of the fork record at `record_index`, or null when that
  /// record is not a fork of the table.
  const std::size_t* startEntry(std::size_t record_index) const;
};

/// Index over a trace that resolves SPT forks to their speculative
/// start-points and groups iterations into loop episodes.
///
/// Two fork flavours are resolved:
///  * loop forks — the fork's target block is the header of a currently
///    open loop: the start-point is the next kIterBegin of that loop;
///  * region forks (region-based speculation, paper Section 6) — the
///    target is an ordinary block downstream in the same frame: the
///    start-point is the next kInstr record of that block's first
///    instruction in the forking frame.
///
/// A fork is resolved as soon as its start-point record is added, or when
/// control can no longer reach it: its loop exits (loop forks) or its frame
/// returns (region forks; frame ids are never reused). The index is built
/// either over a whole trace at once or incrementally, record by record,
/// while the trace streams past; both give the same answers and the same
/// forks(). The SPT machine reads only forks(); a trace-cache hit replays
/// against a stored table and builds no index.
class LoopIndex {
 public:
  /// Incremental: add() every record in order, then finish().
  explicit LoopIndex(const ir::Module& module);
  /// The whole of `trace` added and finished.
  LoopIndex(const ir::Module& module, TraceView trace);

  static constexpr std::size_t kNoStart = ForkTable::kNoStart;

  /// Indexes `record`, the trace's record number `i` (0, 1, 2, ...).
  void add(std::size_t i, const Record& record);
  /// Ends the trace after `size` records: forks still waiting for their
  /// start-point resolve to kNoStart, open episodes exit at `size`.
  void finish(std::size_t size);

  /// ForkTable::resolved() and ForkTable::startOfFork() of forks().
  bool resolved(std::size_t record_index) const {
    return forks_.resolved(record_index);
  }
  std::size_t startOfFork(std::size_t record_index) const {
    return forks_.startOfFork(record_index);
  }

  /// The fork table so far; complete, with no kPending start, once
  /// finish() has run.
  const ForkTable& forks() const { return forks_; }

  const std::vector<LoopEpisode>& episodes() const { return episodes_; }

  /// Stable display name for a loop: "func.label" of the header block.
  std::string loopName(ir::StaticId header_sid) const;

 private:
  struct LoopKey {
    FrameId frame;
    ir::StaticId header_sid;
    bool operator==(const LoopKey&) const = default;
  };
  struct LoopKeyHash {
    std::size_t operator()(const LoopKey& k) const {
      return (static_cast<std::size_t>(k.frame) << 32) ^ k.header_sid;
    }
  };
  struct OpenEpisode {
    std::size_t episode_index;
    std::vector<std::size_t> pending_forks;  // fork ordinals
  };

  /// Resolves the forks with ordinals `forks` to `start` and empties the
  /// list.
  void resolve(std::vector<std::size_t>& forks, std::size_t start);

  const ir::Module& module_;
  /// add() sees the forks in record order, so the table's records are
  /// sorted.
  ForkTable forks_;
  std::vector<LoopEpisode> episodes_;
  /// Loops currently executing, with the loop forks awaiting their next
  /// iteration.
  std::unordered_map<LoopKey, OpenEpisode, LoopKeyHash> open_;
  /// Region forks (ordinals) awaiting the next execution of their target
  /// instruction in the forking frame (key: forking frame, target's static
  /// id).
  std::unordered_map<LoopKey, std::vector<std::size_t>, LoopKeyHash>
      pending_regions_;
};

}  // namespace spt::trace
