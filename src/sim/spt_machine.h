// The N-pipeline SPT machine (paper Section 3; docs/MULTIWAY.md for the
// chained N-way generalization).
//
// Trace-driven co-simulation of the main pipeline and an ordered chain of
// up to MachineConfig::spec_threads speculative pipelines over the
// sequential trace:
//  * the main pipeline executes trace records in order;
//  * `spt_fork` spawns a speculative thread at the next iteration's
//    start-point (resolved by a trace::ForkTable); the register context copy
//    costs rf_copy_overhead cycles. With spec_threads > 1 a speculative
//    thread that consumes a fork record spawns its own successor
//    (Prophet-style chaining): the forker freezes at the successor's
//    start-point and the successor's context snapshot is materialized from
//    the forker's speculative view, optionally refined by a compiler
//    precomputation slice (ir::Module::forkSlice);
//  * each speculative pipeline runs ahead whenever its clock is behind the
//    main clock, emulating every instruction on its fork-time register
//    snapshot — so speculative values, and therefore misspeculation, are
//    exact rather than modeled probabilistically;
//  * speculative stores go to the thread's speculative store buffer;
//    speculative loads look up their own SSB first, then (chained mode)
//    every less-speculative predecessor's SSB nearest-first, and otherwise
//    register in the thread's load address buffer. Main-thread stores check
//    every active thread's LAB; a speculative store also checks the LABs of
//    all more-speculative successors (cross-thread memory dependence
//    checking, Section 3.2 generalized);
//  * when the main thread arrives at the least-speculative thread's
//    start-point, registers are checked (value-based or scoreboard mode;
//    chained threads always use value-based — their snapshot has no
//    main-thread scoreboard) and the thread is fast-committed, selectively
//    replayed, or fully squashed, per the configured recovery mechanism.
//    Commits are strictly in chain order; a full squash of the arriving
//    thread cascades to every more-speculative thread, and a committed
//    spt_kill record kills the rest of the chain;
//  * a speculative thread is frozen at arrival and at its successor's
//    start-point; it also stops on its own at a mismatching branch (wrong
//    path), a division fault, a full SSB/LAB, or when it would return out
//    of the forked function.
//
// spec_threads == 1 reduces exactly to the paper's 2-core machine: the
// golden-digest tests assert bit-identity with the pre-multiway simulator.
//
// No step reads a record behind the main thread's position, and a thread
// runs at most its SRB's capacity past its start-point, so the machine
// needs only a window of the trace. It either replays a stored trace
// (run()) or sits behind the interpreter as a TraceSink (onRecord() then
// finish()): it then resolves forks with an incremental LoopIndex, steps
// until the next step needs a record or a fork start-point that has not
// arrived yet, and drops the records behind the main thread. Both ways take
// the same steps in the same order, so results are identical.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/module.h"
#include "sim/arch_state.h"
#include "sim/baseline.h"
#include "sim/decode.h"
#include "sim/fault_injector.h"
#include "sim/flat_map.h"
#include "sim/loop_tracker.h"
#include "sim/oracle.h"
#include "sim/result.h"
#include "support/machine_config.h"
#include "trace/trace.h"

namespace spt::sim {

/// One machine simulates one trace: either run() once, or onRecord() for
/// every record and then finish() once.
class SptMachine final : public trace::TraceSink {
 public:
  /// Streaming: records arrive through onRecord(). The machine indexes the
  /// forks itself and keeps only the records a thread can still read.
  SptMachine(const ir::Module& module, const support::MachineConfig& config);
  /// Replay: run() simulates `trace`, whose backing store (TraceBuffer or
  /// trace_io::MappedTrace) must outlive the machine; `forks` must be the
  /// finished fork table of the same records (a LoopIndex's, or one stored
  /// with the trace) and outlive the machine too.
  SptMachine(const ir::Module& module, trace::TraceView trace,
             const trace::ForkTable& forks,
             const support::MachineConfig& config);
  SptMachine(const ir::Module& module, trace::TraceView trace,
             const trace::LoopIndex& loop_index,
             const support::MachineConfig& config)
      : SptMachine(module, trace, loop_index.forks(), config) {}
  SptMachine(const SptMachine&) = delete;
  SptMachine& operator=(const SptMachine&) = delete;

  /// Appends the record to the window; every kBlockRecords records the
  /// machine runs as far as the records seen so far allow.
  void onRecord(const trace::Record& record) override {
    window_.push_back(record);
    if (base_ + window_.size() - indexed_ == kBlockRecords) drainBlock();
  }

  /// Ends the trace: closes the fork index, runs the machine to the end
  /// and returns the result.
  MachineResult finish();

  /// Simulates the whole trace given at construction, then finish().
  MachineResult run();

  /// The fork table the machine reads; when streaming, the whole trace's
  /// once finish() has run.
  const trace::ForkTable& forks() const { return *forks_; }

  /// The most records the machine held at once: the window's peak when
  /// streaming, the whole trace on replay.
  std::size_t windowHighWater() const { return high_water_; }

 private:
  /// 4096 records of 40 bytes: 160 KB.
  static constexpr std::size_t kBlockRecords = 4096;

  struct SrbEntry {
    std::size_t record_index = 0;
    std::int64_t emu_value = 0;
    std::uint64_t emu_addr = 0;
    // Cross-thread forwarding provenance (chained mode): the spawn id of
    // the predecessor whose SSB satisfied this load (0 = not forwarded
    // cross-thread) and the SRB index of the producing store within it.
    // Commit-time dependence checks use it to exempt a load that read
    // exactly the value the store later commits.
    std::uint32_t fwd_seq = 0;
    std::uint32_t fwd_srb = 0;
    bool violated = false;         // LAB hit / allocator race / fault
    bool input_violated = false;   // register check at arrival
    bool branch_mismatch = false;  // emulated direction != trace direction
  };

  struct CallCtx {
    trace::FrameId caller_frame = 0;
    ir::Reg dst;
  };

  struct SsbEntry {
    std::int64_t value = 0;
    std::size_t srb_index = 0;  // producing store's SRB entry
  };

  /// No freeze horizon: the thread may run to the end of the trace.
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);
  /// No speculative thread waits for the main clock.
  static constexpr std::uint64_t kNoHorizon = static_cast<std::uint64_t>(-1);

  /// Per-thread speculative state. The containers are persistent across
  /// threads (reset() is O(1) epoch bumps plus clearing the touched lists)
  /// so per-fork setup does not rehash or free anything. One instance per
  /// speculative core; active instances are ordered least- to
  /// most-speculative by `chain_`.
  struct SpecThread {
    bool active = false;
    bool wrong_path = false;
    bool stalled = false;
    /// Forked by the main thread (chain head); only such threads have a
    /// main-written scoreboard for RegisterCheckMode::kScoreboard.
    bool forked_by_main = false;
    std::uint32_t seq = 0;   // spawn id, 1-based; 0 is reserved
    std::uint32_t slot = 0;  // index into slots_ / spec_pipes_
    std::size_t start_pos = 0;
    std::size_t pos = 0;
    /// Freeze horizon: one past the last record this thread owns (its
    /// successor's start-point). kNoLimit when it is the most speculative.
    std::size_t limit_pos = kNoLimit;
    trace::FrameId fork_frame = 0;
    std::vector<std::int64_t> fork_rf;
    FrameRegMap<std::int64_t> rf;  // emulated overlay
    EpochMap64<SsbEntry> ssb;      // addr -> latest speculative store
    // LAB: addr -> SRB indices of the speculative loads from it. The lists
    // live in a recycled pool; the map stores pool slot + 1 (0 = fresh key).
    EpochMap64<std::uint32_t> lab;
    std::vector<std::vector<std::size_t>> lab_pool;
    std::size_t lab_pool_used = 0;
    // Live-in reads from the fork-time context, dense by register index.
    std::vector<std::vector<std::size_t>> livein_reads;
    std::vector<std::uint32_t> livein_touched;
    std::vector<SrbEntry> srb;
    std::vector<CallCtx> call_stack;
    std::uint64_t halloc_at_fork = 0;
    /// Injected faults charged to this thread, classified at settle time.
    std::size_t faults_pending = 0;
    CycleBreakdown breakdown_at_fork;
    // Per-loop stats of the loop this thread speculates for; points into
    // result_.loop_threads (std::map nodes are stable). Set at fork from
    // the fork-site cache.
    ThreadStats* loop_stats = nullptr;
    /// This slot's speculative pipeline (owned by spec_pipes_).
    Pipeline* pipe = nullptr;

    void reset();
    std::vector<std::size_t>& labList(std::uint64_t addr);
  };

  /// Fork-site cache: everything executeFork derives from the static fork
  /// instruction (target-loop header, display name, per-loop stats slot,
  /// precomputation slice, forking function's register count), computed
  /// once per site instead of per dynamic fork. FlatMap64-backed — the
  /// last per-machine hash map; hit/miss counts land in
  /// MachineResult::hotpath.
  struct ForkSite {
    std::string loop_name;
    ThreadStats* stats = nullptr;  // &result_.loop_threads[loop_name]
    const std::vector<ir::Instr>* slice = nullptr;  // may be null
    std::uint32_t frame_regs = 0;  // forking function's reg_count
  };

  SptMachine(const ir::Module& module, trace::TraceView trace,
             const trace::ForkTable* forks,
             const support::MachineConfig& config);

  /// Record `i` of the trace; only indices in [base_, end_) are held.
  const trace::Record& rec(std::size_t i) const { return data_[i - base_]; }
  /// Indexes the records that arrived since the last call.
  void indexNewRecords();
  /// Streaming: indexes the block, runs the machine, compacts the window.
  void drainBlock();
  /// Drops the records below pos_ (no thread reads them again).
  void compact();
  /// The step loop. Runs until the trace is done or, before finish(), until
  /// the next step needs a record that has not arrived yet.
  void step();
  /// Steps the main thread while no speculative thread can step before the
  /// main clock reaches `horizon`, through markers and fast-class records
  /// only; the steps and their order are exactly step()'s. Returns false
  /// when the next record needs stepMain().
  bool burstMain(std::uint64_t horizon);
  /// Steps thread `t`, the first that can step, and keeps stepping it
  /// while it stays so; the steps and their order are exactly step()'s.
  void burstSpec(SpecThread& t);
  /// Counts one step; budgets are checked every 1024th.
  void countStep() {
    if (budgeted_ && (++steps_ & 1023u) == 0) checkBudgets();
  }
  /// True when the next step (thread `t`, or the main thread when null)
  /// consumes a fork record whose start-point is not yet resolved.
  bool forkWaits(const SpecThread* t) const;
  /// True when thread `t` may spawn a successor on a fork record.
  bool chainCanGrow(const SpecThread& t) const;
  /// Feeds the oracle's reference the records up to `pos`.
  void advanceOracle(std::size_t pos);
  void checkOracle(std::size_t pos, const char* boundary);
  void stepMain();
  /// One speculative record, dispatched on its class like
  /// executeMainInstr: values, loads, stores, branches and jumps pair their
  /// emulation and SSB/LAB bookkeeping with the class-specialized issue;
  /// calls, returns, forks, kills, hallocs, kGeneric records and divide
  /// faults take stepSpecGeneric.
  void stepSpec(SpecThread& t);
  /// The generic speculative path for `entry`, the SRB entry of record `r`.
  /// Returns false, having done nothing, for a return out of the forked
  /// function.
  bool stepSpecGeneric(SpecThread& t, const DecodedInstr& d,
                       const trace::Record& r, SrbEntry& entry,
                       bool& stall_after);
  /// Issues a speculative record through the generic execute path.
  void issueSpecGeneric(SpecThread& t, const DecodedInstr& d,
                        const trace::Record& r,
                        std::uint64_t mem_addr_override, bool ssb_forwarded);
  /// Emulates a const, mov or binary op; sets `fault` on a division fault.
  std::int64_t specEmulateValue(SpecThread& t, const trace::Record& r,
                                const ir::Instr& instr, bool& fault);
  /// Emulates a speculative load from `addr` into `entry`: from the own SSB
  /// (returns true: no cache access), else from a predecessor's SSB or
  /// memory, registering the load in the LAB.
  bool specLoad(SpecThread& t, const trace::Record& r, std::uint64_t addr,
                SrbEntry& entry);
  /// Every test for stepping thread `t` except its clock and that its
  /// record exists.
  bool specRunnable(const SpecThread& t) const;
  void executeFork(const trace::Record& record);
  /// A speculative thread consumed a fork record (chained mode): spawn its
  /// successor, or drop the fork when no core is free / the forker is not
  /// the chain tail.
  void chainFork(SpecThread& t, const trace::Record& record);
  /// Runs the fork site's precomputation slice (if any) over the fork-time
  /// snapshot and charges its execution to the new thread's pipeline.
  void applyForkSlice(SpecThread& t, const ForkSite& site);
  /// Materializes into `out` a register snapshot of `frame` as seen by
  /// thread `t` (its overlay over its own fork-time context).
  void snapshotRegsFrom(const SpecThread& t, trace::FrameId frame,
                        std::uint32_t reg_count,
                        std::vector<std::int64_t>& out) const;
  void executeMainInstr(const DecodedInstr& d, const trace::Record& record);
  /// Generic-path main instruction (calls, returns, kills, hallocs, and
  /// anything classified kGeneric); the class-specialized handlers live in
  /// executeMainInstr's dispatch switch.
  void executeMainFallback(const DecodedInstr& d, const trace::Record& record);
  void arrival(SpecThread& t);
  /// Commit-time value validation (fault mode only): replicates the replay
  /// dirty-closure walk without timing or architectural effects, and flags
  /// any *clean* SRB entry whose emulated result diverges from the trace.
  /// Returns the number of entries it had to flag — divergences the
  /// dependence-checking net alone would have fast-committed.
  std::size_t validateSrbAtArrival(SpecThread& t);
  /// True when `e`'s emulated result observably diverges from the trace's
  /// ground truth (opcode-aware: branches compare direction, stores also
  /// compare the address, control records carry no comparable payload).
  bool entryDiverges(const SrbEntry& e, const trace::Record& r) const;
  /// Classifies thread `t`'s pending injected faults into result_.faults.
  /// `discarded` marks kill/wrong-path/cascade paths (nothing speculative
  /// committed).
  void settleFaults(SpecThread& t, bool replayed, std::size_t oracle_flagged,
                    bool discarded, std::size_t escapes = 0);
  void checkBudgets() const;
  void syncToFreezePoint(SpecThread& t);
  /// Returns the number of divergent entries it committed (fault mode
  /// only; must be zero — the arrival validation walk forces any thread
  /// with a divergent entry into replay before fast commit is reachable).
  std::size_t fastCommit(SpecThread& t);
  void replayCommit(SpecThread& t);
  void fullSquash(SpecThread& t);
  void killSpec(SpecThread& t);
  /// Kills every active thread and empties the chain (main-thread
  /// spt_kill / end of trace).
  void killChain();
  /// Kills every thread more speculative than the chain head (a committed
  /// spt_kill record: the loop exited inside the committing thread's span,
  /// so its successors speculate iterations that never execute).
  void cascadeKillSuccessors();
  /// Chain position of `t` (index into chain_).
  std::size_t chainIndexOf(const SpecThread& t) const;
  /// True when `seq` names a currently active chained thread — its stores
  /// are still sequentially ahead of the main thread.
  bool seqIsLivePredecessor(std::uint32_t seq) const;
  /// Cross-thread memory dependence check: a store by `t` (at execute or
  /// commit time) flags every load of `addr` registered in the LAB of a
  /// more-speculative thread. With `allow_forward_exemption` (commit
  /// time), a load that forwarded this exact store's committed value — or
  /// a later store of the same thread — is exempt.
  void flagSuccessorLoads(const SpecThread& t, std::uint64_t addr,
                          std::int64_t value, std::uint32_t store_srb,
                          bool allow_forward_exemption);
  /// Main-thread store: flags matching loads in every active thread's LAB.
  void mainStoreCheck(std::uint64_t addr);

  /// Reads a register for the SRB entry under construction (the last one),
  /// recording a live-in read of the fork-time context.
  std::int64_t specReadReg(SpecThread& t, trace::FrameId frame, ir::Reg reg);
  /// Reads like specReadReg but records nothing: used to pre-compute a
  /// memory address for the SSB/LAB capacity check before committing to
  /// execute the instruction (a stalled instruction must leave no live-in
  /// read behind — it never gets an SRB entry to attach the read to).
  std::int64_t specPeekReg(const SpecThread& t, trace::FrameId frame,
                           ir::Reg reg) const;
  void specWriteReg(SpecThread& t, trace::FrameId frame, ir::Reg reg,
                    std::int64_t value);

  CycleBreakdown specProfileSinceFork(const SpecThread& t) const;

  const ir::Module& module_;
  const support::MachineConfig& config_;
  DecodeTable decode_;

  FlatMap64<ForkSite> fork_sites_;
  ForkSite& forkSiteOf(const trace::Record& record);

  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<Pipeline> main_pipe_;
  /// One speculative pipeline per thread slot (slot i drives pipe i).
  std::vector<std::unique_ptr<Pipeline>> spec_pipes_;
  ArchState arch_;
  LoopCycleTracker loop_tracker_;

  std::size_t pos_ = 0;  // main thread's next record
  /// Thread slots (stable addresses) and the active chain: slot indices
  /// ordered least- to most-speculative. Slot 0 is the paper's single
  /// speculative core; chain_.size() <= config_.spec_threads.
  std::vector<std::unique_ptr<SpecThread>> slots_;
  std::vector<std::uint32_t> chain_;
  std::uint32_t next_seq_ = 1;
  bool multiway_ = false;  // config_.spec_threads > 1
  // Robustness subsystem (null / false on the default path).
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Oracle> oracle_;
  bool fault_mode_ = false;
  /// Scoreboard tracking for the main-forked thread: fork-frame regs
  /// written by the main thread since its fork, dense by index.
  /// sb_thread_ is that thread (null when none is live).
  SpecThread* sb_thread_ = nullptr;
  std::vector<char> main_written_;
  // Replay scratch (persistent; epoch-reset at each replayCommit).
  FrameRegMap<char> replay_dirty_regs_;
  EpochMap64<char> replay_dirty_addrs_;
  // Instructions issued through the generic execute path instead of a
  // class-specialized handler, by cause: the main thread's calls, returns,
  // kills, hallocs and kGeneric records; its spt_fork issues; speculative
  // records through stepSpecGeneric and divide faults; re-executions
  // during selective replay. MachineResult::hotpath reports their sum as
  // dispatch_fallback.
  std::uint64_t fallback_main_ = 0;
  std::uint64_t fallback_fork_ = 0;
  std::uint64_t fallback_spec_ = 0;
  std::uint64_t fallback_replay_ = 0;
  std::uint64_t fork_site_hits_ = 0;
  std::uint64_t fork_site_misses_ = 0;
  MachineResult result_;
  /// Streaming only: the fork index built as records arrive.
  std::optional<trace::LoopIndex> own_index_;
  const trace::ForkTable* forks_;
  /// Streaming only: records [base_, base_ + window_.size()) of the trace.
  std::vector<trace::Record> window_;
  /// Records [base_, end_) are readable at data_ (the window or the
  /// replayed trace). Indices are absolute trace positions.
  const trace::Record* data_ = nullptr;
  std::size_t base_ = 0;
  std::size_t end_ = 0;
  /// Records handed to own_index_ so far.
  std::size_t indexed_ = 0;
  std::size_t high_water_ = 0;
  /// Set by finish(): end_ is the end of the trace, so the loop never
  /// waits for more records.
  bool final_ = false;
  bool budgeted_ = false;
  /// Steps taken (countStep).
  std::uint64_t steps_ = 0;
};

}  // namespace spt::sim
