#include "sim/spt_machine.h"

#include <algorithm>

#include "support/check.h"
#include "support/error.h"

namespace spt::sim {
namespace {

/// Binary-op evaluation for speculative emulation. Unlike the interpreter,
/// faults (division by zero on stale inputs) are reported, not fatal: a
/// real speculative pipeline would suppress the fault and the thread would
/// be squashed at validation.
std::int64_t emulateBinary(ir::Opcode op, std::int64_t a, std::int64_t b,
                           bool& fault) {
  using ir::Opcode;
  switch (op) {
    case Opcode::kAdd:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                       static_cast<std::uint64_t>(b));
    case Opcode::kSub:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                       static_cast<std::uint64_t>(b));
    case Opcode::kMul:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                       static_cast<std::uint64_t>(b));
    case Opcode::kDiv:
      if (b == 0 || (a == INT64_MIN && b == -1)) {
        fault = true;
        return 0;
      }
      return a / b;
    case Opcode::kRem:
      if (b == 0 || (a == INT64_MIN && b == -1)) {
        fault = true;
        return 0;
      }
      return a % b;
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kShl:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                       << (b & 63));
    case Opcode::kShr:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                       (b & 63));
    case Opcode::kCmpEq:
      return a == b;
    case Opcode::kCmpNe:
      return a != b;
    case Opcode::kCmpLt:
      return a < b;
    case Opcode::kCmpLe:
      return a <= b;
    case Opcode::kCmpGt:
      return a > b;
    case Opcode::kCmpGe:
      return a >= b;
    default:
      SPT_UNREACHABLE("not a binary opcode");
  }
}

}  // namespace

void ThreadStats::accumulate(const ThreadStats& other) {
  spawned += other.spawned;
  forks_ignored += other.forks_ignored;
  wrong_path += other.wrong_path;
  fast_commits += other.fast_commits;
  replays += other.replays;
  squashes += other.squashes;
  killed += other.killed;
  spec_instrs += other.spec_instrs;
  misspec_instrs += other.misspec_instrs;
  committed_instrs += other.committed_instrs;
}

SptMachine::SptMachine(const ir::Module& module,
                       const support::MachineConfig& config)
    : SptMachine(module, trace::TraceView{}, nullptr, config) {}

SptMachine::SptMachine(const ir::Module& module, trace::TraceView trace,
                       const trace::ForkTable& forks,
                       const support::MachineConfig& config)
    : SptMachine(module, trace, &forks, config) {}

SptMachine::SptMachine(const ir::Module& module, trace::TraceView trace,
                       const trace::ForkTable* forks,
                       const support::MachineConfig& config)
    : module_(module),
      config_(config),
      decode_(module),
      memory_(std::make_unique<MemorySystem>(config)),
      main_pipe_(std::make_unique<Pipeline>(config, *memory_)),
      arch_(module),
      loop_tracker_(module),
      forks_(forks),
      data_(trace.data()),
      end_(trace.size()) {
  SPT_CHECK_MSG(config.spec_threads >= 1 &&
                    config.spec_threads <= support::kMaxSpecThreads,
                "spec_threads out of range");
  if (forks_ == nullptr) {
    forks_ = &own_index_.emplace(module).forks();
    window_.reserve(2 * kBlockRecords);
  }
  budgeted_ = config.max_simulated_records != 0 ||
              config.max_simulated_cycles != 0;
  multiway_ = config.spec_threads > 1;
  spec_pipes_.reserve(config.spec_threads);
  slots_.reserve(config.spec_threads);
  chain_.reserve(config.spec_threads);
  for (std::uint32_t i = 0; i < config.spec_threads; ++i) {
    spec_pipes_.push_back(std::make_unique<Pipeline>(config, *memory_));
    auto t = std::make_unique<SpecThread>();
    t->slot = i;
    t->pipe = spec_pipes_[i].get();
    // The SSB/LAB hold at most the configured number of distinct addresses
    // (capacity stalls enforce it), so size them once and never rehash.
    t->ssb.reserveFor(config.speculative_store_buffer_entries);
    t->lab.reserveFor(config.load_address_buffer_entries);
    slots_.push_back(std::move(t));
  }
  if (config.fault_plan.enabled) {
    injector_ = std::make_unique<FaultInjector>(config.fault_plan);
    fault_mode_ = true;
  }
  if (config.oracle != support::OracleMode::kOff) {
    oracle_ = std::make_unique<Oracle>(module, decode_, config.oracle);
    arch_.enableDigest();
  }
}

void SptMachine::SpecThread::reset() {
  active = false;
  wrong_path = false;
  stalled = false;
  forked_by_main = false;
  seq = 0;
  start_pos = 0;
  pos = 0;
  limit_pos = kNoLimit;
  fork_frame = 0;
  rf.reset();
  ssb.clear();
  lab.clear();
  lab_pool_used = 0;
  for (const std::uint32_t reg : livein_touched) livein_reads[reg].clear();
  livein_touched.clear();
  srb.clear();
  call_stack.clear();
  halloc_at_fork = 0;
  faults_pending = 0;
  breakdown_at_fork = CycleBreakdown{};
  loop_stats = nullptr;
}

std::vector<std::size_t>& SptMachine::SpecThread::labList(
    std::uint64_t addr) {
  std::uint32_t& slot = lab[addr];
  if (slot == 0) {
    if (lab_pool_used == lab_pool.size()) lab_pool.emplace_back();
    lab_pool[lab_pool_used].clear();
    slot = static_cast<std::uint32_t>(++lab_pool_used);
  }
  return lab_pool[slot - 1];
}

SptMachine::ForkSite& SptMachine::forkSiteOf(const trace::Record& r) {
  if (ForkSite* found = fork_sites_.find(r.sid)) {
    ++fork_site_hits_;
    return *found;
  }
  ++fork_site_misses_;

  // Loop attribution: the fork's target block is the loop header.
  const auto& loc = module_.locate(r.sid);
  const ir::Function& func = module_.function(loc.func);
  const ir::Instr& fork = func.blocks[loc.block].instrs[loc.index];
  const ir::StaticId header_sid =
      func.blocks[fork.target0].instrs.front().static_id;

  ForkSite& site = fork_sites_[r.sid];
  site.loop_name = trace::loopNameOf(module_, header_sid);
  site.stats = &result_.loop_threads[site.loop_name];
  site.slice = module_.forkSlice(r.sid);
  site.frame_regs = func.reg_count;
  return site;
}

CycleBreakdown SptMachine::specProfileSinceFork(const SpecThread& t) const {
  const CycleBreakdown& now = t.pipe->breakdown();
  const CycleBreakdown& base = t.breakdown_at_fork;
  CycleBreakdown delta;
  delta.execution = now.execution - base.execution;
  delta.pipeline_stall = now.pipeline_stall - base.pipeline_stall;
  delta.dcache_stall = now.dcache_stall - base.dcache_stall;
  return delta;
}

std::int64_t SptMachine::specPeekReg(const SpecThread& t,
                                     trace::FrameId frame,
                                     ir::Reg reg) const {
  const std::int64_t* v = t.rf.find(frame, reg.index);
  if (v != nullptr) return *v;
  if (frame == t.fork_frame) return t.fork_rf[reg.index];
  return 0;
}

std::int64_t SptMachine::specReadReg(SpecThread& t, trace::FrameId frame,
                                     ir::Reg reg) {
  const std::int64_t* v = t.rf.find(frame, reg.index);
  if (v != nullptr) return *v;
  if (frame == t.fork_frame) {
    // Live-in read from the fork-time register context, by the SRB entry
    // under construction.
    std::vector<std::size_t>& reads = t.livein_reads[reg.index];
    if (reads.empty()) t.livein_touched.push_back(reg.index);
    reads.push_back(t.srb.size() - 1);
    return t.fork_rf[reg.index];
  }
  // Registers of frames created during speculation are zero-initialized,
  // matching interpreter frames.
  return 0;
}

void SptMachine::specWriteReg(SpecThread& t, trace::FrameId frame,
                              ir::Reg reg, std::int64_t value) {
  t.rf.at(frame, reg.index) = value;
}

bool SptMachine::specRunnable(const SpecThread& t) const {
  return t.active && !t.wrong_path && !t.stalled && t.pos < t.limit_pos &&
         t.srb.size() < config_.speculation_result_buffer_entries;
}

bool SptMachine::chainCanGrow(const SpecThread& t) const {
  // Only the chain tail may extend the chain: its successor would
  // otherwise speculate an iteration an existing thread already covers.
  return chain_.size() < config_.spec_threads && chain_.back() == t.slot;
}

bool SptMachine::forkWaits(const SpecThread* t) const {
  const std::size_t i = t != nullptr ? t->pos : pos_;
  const trace::Record& r = rec(i);
  if (r.kind != trace::RecordKind::kInstr || r.op != ir::Opcode::kSptFork ||
      forks_->resolved(i)) {
    return false;
  }
  // A main-thread fork spawns only into an empty chain (otherwise it is
  // dropped unresolved); a speculative one only when it may chain.
  return t != nullptr ? multiway_ && chainCanGrow(*t) : chain_.empty();
}

std::size_t SptMachine::chainIndexOf(const SpecThread& t) const {
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i] == t.slot) return i;
  }
  SPT_UNREACHABLE("thread not in chain");
}

bool SptMachine::seqIsLivePredecessor(std::uint32_t seq) const {
  if (seq == 0) return false;
  for (const std::uint32_t slot : chain_) {
    if (slots_[slot]->seq == seq) return true;
  }
  return false;
}

void SptMachine::indexNewRecords() {
  data_ = window_.data();
  end_ = base_ + window_.size();
  for (; indexed_ < end_; ++indexed_) own_index_->add(indexed_, rec(indexed_));
}

void SptMachine::drainBlock() {
  indexNewRecords();
  step();
  // Compacting once the dead prefix passes half the window keeps the copy
  // cost at most one record moved per record appended.
  if (pos_ - base_ > window_.size() / 2) compact();
}

void SptMachine::compact() {
  if (oracle_) advanceOracle(pos_);
  window_.erase(window_.begin(),
                window_.begin() + static_cast<std::ptrdiff_t>(pos_ - base_));
  base_ = pos_;
  data_ = window_.data();
}

void SptMachine::advanceOracle(std::size_t pos) {
  const std::size_t from = oracle_->position();
  oracle_->advance({data_ + (from - base_), pos - from});
}

void SptMachine::checkOracle(std::size_t pos, const char* boundary) {
  advanceOracle(pos);
  oracle_->checkAt(pos, arch_, boundary);
}

void SptMachine::step() {
  high_water_ = std::max(high_water_, end_ - base_);
  // Every record a step reads lies in [pos_, end_): pos_ never decreases
  // and every thread's records lie at or beyond it. Before finish(), a step
  // that would need a record past end_ (or an unresolved fork start-point)
  // waits for the next block instead; the state is untouched, so the same
  // step is chosen when the loop resumes.
  while (pos_ < end_) {
    // The first thread in chain order that can step, else the main thread.
    // `horizon` is the earliest clock at which a thread that waits only for
    // the main clock could step.
    SpecThread* t = nullptr;
    std::uint64_t horizon = kNoHorizon;
    for (const std::uint32_t slot : chain_) {
      SpecThread& c = *slots_[slot];
      if (!specRunnable(c)) continue;
      if (c.pipe->cycle() > main_pipe_->cycle()) {
        horizon = std::min(horizon, c.pipe->cycle());
        continue;
      }
      if (c.pos < end_) {
        t = &c;
        break;
      }
      if (!final_) return;
    }
    if (t == nullptr && burstMain(horizon)) continue;
    if (!final_ && forkWaits(t)) return;
    if (t != nullptr) {
      burstSpec(*t);
    } else {
      countStep();
      stepMain();
    }
  }
}

void SptMachine::burstSpec(SpecThread& t) {
  // A speculative step changes neither the main clock nor anything a less
  // speculative thread's eligibility depends on, so `t` stays the first
  // thread that can step for as long as it can step at all.
  do {
    countStep();
    stepSpec(t);
  } while (specRunnable(t) && t.pipe->cycle() <= main_pipe_->cycle() &&
           t.pos < end_ && (final_ || !forkWaits(&t)));
}

bool SptMachine::burstMain(std::uint64_t horizon) {
  // Until the main clock reaches `horizon` no speculative thread can step,
  // and a marker or a fast-class record changes nothing any thread's
  // eligibility depends on: the main thread takes these steps back to back.
  // The burst stops short of the chain head's start-point (arrival) and at
  // the first record stepMain must handle.
  std::size_t stop = end_;
  if (!chain_.empty()) {
    const SpecThread& head = *slots_[chain_.front()];
    if (!head.wrong_path && head.start_pos >= pos_) {
      stop = std::min(stop, head.start_pos);
    }
  }
  const std::size_t from = pos_;
  while (pos_ < stop && main_pipe_->cycle() < horizon) {
    const trace::Record& r = rec(pos_);
    if (r.kind != trace::RecordKind::kInstr) {
      countStep();
      loop_tracker_.onMarker(r, main_pipe_->cycle());
    } else {
      const DecodedInstr& d = decode_[r.sid];
      if (d.klass > static_cast<std::uint8_t>(DispatchClass::kJump)) break;
      countStep();
      executeMainInstr(d, r);
    }
    ++pos_;
  }
  return pos_ != from;
}

MachineResult SptMachine::run() { return finish(); }

MachineResult SptMachine::finish() {
  if (own_index_) {
    indexNewRecords();
    own_index_->finish(end_);
  }
  final_ = true;
  step();
  killChain();
  if (budgeted_) checkBudgets();

  main_pipe_->finish();
  loop_tracker_.finish(main_pipe_->cycle());

  result_.cycles = main_pipe_->cycle();
  std::uint64_t spec_issued = 0;
  for (const auto& p : spec_pipes_) spec_issued += p->instrsIssued();
  result_.instrs = main_pipe_->instrsIssued() + spec_issued;
  result_.breakdown = main_pipe_->breakdown();
  result_.loops = loop_tracker_.stats();
  result_.l1d = memory_->l1d().stats();
  result_.l2 = memory_->l2().stats();
  result_.l3 = memory_->l3().stats();
  result_.branch_mispredict_ratio = main_pipe_->predictor().mispredictRatio();
  const std::uint64_t fallbacks =
      fallback_main_ + fallback_fork_ + fallback_spec_ + fallback_replay_;
  result_.hotpath.dispatch_fallback = fallbacks;
  result_.hotpath.dispatch_fast = result_.instrs - fallbacks;
  result_.hotpath.fallback_fork = fallback_fork_;
  result_.hotpath.fallback_spec = fallback_spec_;
  result_.hotpath.fallback_replay = fallback_replay_;
  result_.hotpath.arena_frame_allocs = arch_.arenaAllocs();
  result_.hotpath.arena_frame_reuses = arch_.arenaReuses();
  result_.hotpath.fork_site_hits = fork_site_hits_;
  result_.hotpath.fork_site_misses = fork_site_misses_;
  if (injector_) {
    // Timing-metadata faults never enter the per-thread classification:
    // fold them in as injected + benign (the claim the campaign asserts).
    result_.faults.injected += injector_->metadataInjected();
    result_.faults.benign += injector_->metadataInjected();
  }
  if (oracle_) {
    checkOracle(end_, "end-of-run");
    result_.arch_digest = arch_.streamDigest();
    result_.oracle_checks = oracle_->checksRun();
  }
  return result_;
}

void SptMachine::checkBudgets() const {
  if (config_.max_simulated_cycles != 0 &&
      main_pipe_->cycle() > config_.max_simulated_cycles) {
    throw support::SptBudgetExceeded("simulated cycles", main_pipe_->cycle(),
                                     config_.max_simulated_cycles);
  }
  if (config_.max_simulated_records != 0 &&
      pos_ > config_.max_simulated_records) {
    throw support::SptBudgetExceeded("simulated trace records", pos_,
                                     config_.max_simulated_records);
  }
}

void SptMachine::stepMain() {
  const trace::Record& r = rec(pos_);

  if (!chain_.empty()) {
    SpecThread& front = *slots_[chain_.front()];
    if (!front.wrong_path && pos_ == front.start_pos) {
      arrival(front);
      return;
    }
  }

  if (r.kind != trace::RecordKind::kInstr) {
    loop_tracker_.onMarker(r, main_pipe_->cycle());
    ++pos_;
    return;
  }

  if (r.op == ir::Opcode::kSptFork) {
    executeFork(r);
    ++pos_;
    return;
  }
  executeMainInstr(decode_[r.sid], r);
  ++pos_;
}

void SptMachine::executeFork(const trace::Record& r) {
  const DecodedInstr& d = decode_[r.sid];
  // The fork instruction itself plus the register-context copy (Table 1:
  // 1 cycle minimum — the copy is assumed banked/bulk, not port-limited;
  // our virtual-register IR would otherwise overcharge it).
  main_pipe_->execute(makeExecInstr(d, r));
  ++fallback_fork_;
  main_pipe_->advanceTo(main_pipe_->cycle() + config_.rf_copy_overhead,
                        StallKind::kPipeline);
  arch_.apply(r, *d.instr);

  if (!chain_.empty()) {
    // The fork is dropped because the chain head's core is busy; attribute
    // it to the loop whose thread is occupying the most speculative core so
    // per-loop and whole-program fork counts stay consistent.
    ++result_.threads.forks_ignored;
    ++slots_[chain_.back()]->loop_stats->forks_ignored;
    return;
  }

  const std::size_t start = forks_->startOfFork(pos_);
  ForkSite& site = forkSiteOf(r);

  // The chain is empty, so every slot is free; the head always spawns into
  // slot 0 (the paper's single speculative core).
  SpecThread& t = *slots_[0];
  t.reset();
  t.active = true;
  t.forked_by_main = true;
  t.seq = next_seq_++;
  t.loop_stats = site.stats;
  t.halloc_at_fork = arch_.hallocCount();
  t.breakdown_at_fork = t.pipe->breakdown();
  chain_.push_back(t.slot);

  ThreadStats& ts = *t.loop_stats;
  ++result_.threads.spawned;
  ++ts.spawned;

  if (start == trace::ForkTable::kNoStart) {
    // No next iteration exists in the trace: the speculative thread runs a
    // wrong path we cannot replay; it occupies the core until spt_kill.
    t.wrong_path = true;
    ++result_.threads.wrong_path;
    ++ts.wrong_path;
    return;
  }

  t.start_pos = start;
  // Loop forks start at a kIterBegin marker (skip it); region forks start
  // directly at the target instruction.
  t.pos =
      rec(start).kind == trace::RecordKind::kInstr ? start : start + 1;
  t.fork_frame = arch_.curFrame();
  t.fork_rf = arch_.topRegs();
  if (injector_) {
    if (injector_->maybeFlipForkReg(t.fork_rf)) ++t.faults_pending;
    // Timing-metadata faults, fired once per fork: the shared hierarchy
    // and the speculative pipeline's predictor carry no data values, so
    // these are benign by construction (counted separately; see run()).
    injector_->maybeCorruptCacheMeta(*memory_);
    injector_->maybeCorruptBpMeta(t.pipe->predictor());
  }
  if (t.livein_reads.size() < t.fork_rf.size()) {
    t.livein_reads.resize(t.fork_rf.size());
  }
  main_written_.assign(t.fork_rf.size(), 0);
  sb_thread_ = &t;
  t.pipe->advanceTo(main_pipe_->cycle(), StallKind::kPipeline);
  // Main forks copy the architectural registers directly — the snapshot is
  // already exact, so the precomputation slice (which *predicts* live-ins
  // from a stale context) only runs for chained forks.
}

void SptMachine::chainFork(SpecThread& t, const trace::Record& r) {
  ForkSite& site = forkSiteOf(r);
  if (!chainCanGrow(t)) {
    // Every speculative core is occupied, or a more speculative thread
    // already owns the chain tail.
    ++result_.threads.forks_ignored;
    ++site.stats->forks_ignored;
    return;
  }

  // Spawn into the lowest free slot.
  bool used[support::kMaxSpecThreads] = {};
  for (const std::uint32_t slot : chain_) used[slot] = true;
  std::uint32_t free_slot = 0;
  while (used[free_slot]) ++free_slot;

  SpecThread& nt = *slots_[free_slot];
  nt.reset();
  nt.active = true;
  nt.seq = next_seq_++;
  nt.loop_stats = site.stats;
  nt.halloc_at_fork = arch_.hallocCount();
  nt.breakdown_at_fork = nt.pipe->breakdown();
  chain_.push_back(nt.slot);

  ++result_.threads.spawned;
  ++site.stats->spawned;

  const std::size_t start = forks_->startOfFork(t.pos);
  if (start == trace::ForkTable::kNoStart) {
    // The forker speculates the loop's last iteration: its successor has
    // no trace to replay. The wrong-path thread occupies the tail slot
    // (blocking further chaining) until the chain is squashed or killed —
    // the forker's own horizon stays unbounded.
    nt.wrong_path = true;
    ++result_.threads.wrong_path;
    ++site.stats->wrong_path;
    return;
  }

  nt.start_pos = start;
  nt.pos =
      rec(start).kind == trace::RecordKind::kInstr ? start : start + 1;
  nt.fork_frame = r.frame;
  // The successor's context is the forker's *speculative* view of the
  // forking frame — possibly stale or wrong; the arrival register check
  // (always value-based for chained threads) validates every live-in
  // against ground truth.
  snapshotRegsFrom(t, r.frame, site.frame_regs, nt.fork_rf);
  if (injector_) {
    if (injector_->maybeFlipForkReg(nt.fork_rf)) ++nt.faults_pending;
    injector_->maybeCorruptCacheMeta(*memory_);
    injector_->maybeCorruptBpMeta(nt.pipe->predictor());
  }
  if (nt.livein_reads.size() < nt.fork_rf.size()) {
    nt.livein_reads.resize(nt.fork_rf.size());
  }
  // The forker freezes at its successor's start-point: records from
  // `start` on belong to the successor.
  t.limit_pos = start;
  // Timing: the forker pays the register-context copy; the new core then
  // syncs to the forker's clock and runs the precomputation slice, if any.
  t.pipe->advanceTo(t.pipe->cycle() + config_.rf_copy_overhead,
                    StallKind::kPipeline);
  nt.pipe->advanceTo(t.pipe->cycle(), StallKind::kPipeline);
  applyForkSlice(nt, site);
}

void SptMachine::snapshotRegsFrom(const SpecThread& t, trace::FrameId frame,
                                   std::uint32_t reg_count,
                                   std::vector<std::int64_t>& out) const {
  // The fork-time context under the forking frame (zeros elsewhere and
  // past its end), then the thread's overlay.
  out.assign(reg_count, 0);
  if (frame == t.fork_frame) {
    std::copy_n(t.fork_rf.begin(), std::min<std::size_t>(reg_count,
                                                         t.fork_rf.size()),
                out.begin());
  }
  t.rf.overlayOnto(frame, out);
}

void SptMachine::applyForkSlice(SpecThread& t, const ForkSite& site) {
  if (site.slice == nullptr) return;
  // The slice is straight-line predictor code over the snapshot: each
  // instruction reads and writes t.fork_rf, refining the live-ins the
  // forked iteration will observe. A wrong prediction is safe — the
  // arrival register check validates every live-in read against ground
  // truth — so a suppressed fault simply stops the refinement.
  for (const ir::Instr& in : *site.slice) {
    const auto reg = [&t](ir::Reg rg) -> std::int64_t {
      return rg.valid() && rg.index < t.fork_rf.size() ? t.fork_rf[rg.index]
                                                       : 0;
    };
    std::int64_t v = 0;
    if (in.op == ir::Opcode::kConst) {
      v = in.imm;
    } else if (in.op == ir::Opcode::kMov) {
      v = reg(in.a);
    } else {
      bool fault = false;
      v = emulateBinary(in.op, reg(in.a), reg(in.b), fault);
      if (fault) break;
    }
    if (in.dst.valid() && in.dst.index < t.fork_rf.size()) {
      t.fork_rf[in.dst.index] = v;
    }
  }
  // Slice execution occupies the speculative core before its first record:
  // one cycle per slice instruction.
  t.pipe->advanceTo(t.pipe->cycle() + site.slice->size(),
                    StallKind::kPipeline);
}

void SptMachine::flagSuccessorLoads(const SpecThread& t, std::uint64_t addr,
                                    std::int64_t value,
                                    std::uint32_t store_srb,
                                    bool allow_forward_exemption) {
  // A store by thread t conflicts with every load of `addr` a more
  // speculative thread has already executed — unless (commit time only)
  // the load forwarded this exact store's committed value, or a later
  // store of the same thread that sequentially shadows this one.
  const std::size_t ci = chainIndexOf(t);
  for (std::size_t j = ci + 1; j < chain_.size(); ++j) {
    SpecThread& s = *slots_[chain_[j]];
    if (s.wrong_path) continue;
    const std::uint32_t* slot = s.lab.find(addr);
    if (slot == nullptr) continue;
    for (const std::size_t idx : s.lab_pool[*slot - 1]) {
      SrbEntry& le = s.srb[idx];
      if (allow_forward_exemption && le.fwd_seq == t.seq) {
        if (le.fwd_srb > store_srb) continue;
        if (le.fwd_srb == store_srb && le.emu_value == value) continue;
      }
      le.violated = true;
    }
  }
}

void SptMachine::mainStoreCheck(std::uint64_t addr) {
  // Memory dependence checking: every main store is checked against every
  // active thread's load address buffer (paper Section 3.2). A load that
  // forwarded from a *still-active* chained thread's SSB is exempt: that
  // thread's store is sequentially ahead of this one and shadows it. Once
  // the forwarding thread has committed (or was discarded), its stores are
  // in the main thread's past and this store supersedes them.
  for (const std::uint32_t ci : chain_) {
    SpecThread& s = *slots_[ci];
    if (s.wrong_path) continue;
    const std::uint32_t* slot = s.lab.find(addr);
    if (slot == nullptr) continue;
    for (const std::size_t idx : s.lab_pool[*slot - 1]) {
      SrbEntry& le = s.srb[idx];
      if (!seqIsLivePredecessor(le.fwd_seq)) le.violated = true;
    }
  }
}

void SptMachine::executeMainInstr(const DecodedInstr& d,
                                  const trace::Record& r) {
  // Threaded dispatch off the predecoded class (jump table): each fast case
  // pairs the class-specialized ExecInstr builder and executeKnown
  // instantiation with the matching inline ArchState applier, hoisting the
  // opcode re-dispatch and every data-dependent flag test out of the
  // per-record path. Calls/returns/kills/hallocs take the generic fallback.
  switch (static_cast<DispatchClass>(d.klass)) {
    case DispatchClass::kValue:
      main_pipe_->executeKnown<Pipeline::kExecPlain>(
          makeExecInstrFor<DispatchClass::kValue>(d, r));
      arch_.applyValue(r, d.dst_reg);
      if (sb_thread_ != nullptr && r.frame == sb_thread_->fork_frame) {
        main_written_[d.dst_reg] = 1;  // scoreboard-mode register tracking
      }
      return;
    case DispatchClass::kLoad:
      main_pipe_->executeKnown<Pipeline::kExecLoad>(
          makeExecInstrFor<DispatchClass::kLoad>(d, r));
      arch_.applyLoad(r, d.dst_reg);
      if (sb_thread_ != nullptr && r.frame == sb_thread_->fork_frame) {
        main_written_[d.dst_reg] = 1;
      }
      return;
    case DispatchClass::kStore:
      main_pipe_->executeKnown<Pipeline::kExecStore>(
          makeExecInstrFor<DispatchClass::kStore>(d, r));
      arch_.applyStore(r);
      if (!chain_.empty()) mainStoreCheck(r.mem_addr);
      return;
    case DispatchClass::kCondBr:
      main_pipe_->executeKnown<Pipeline::kExecBranch>(
          makeExecInstrFor<DispatchClass::kCondBr>(d, r));
      arch_.applyNoEffect(r);
      return;
    case DispatchClass::kJump:
      main_pipe_->executeKnown<Pipeline::kExecPlain>(
          makeExecInstrFor<DispatchClass::kJump>(d, r));
      arch_.applyNoEffect(r);
      return;
    default:
      executeMainFallback(d, r);
      return;
  }
}

void SptMachine::executeMainFallback(const DecodedInstr& d,
                                     const trace::Record& r) {
  const ir::Instr& instr = *d.instr;
  ++fallback_main_;

  if (d.op == ir::Opcode::kSptKill) {
    main_pipe_->execute(makeExecInstr(d, r));
    arch_.apply(r, instr);
    killChain();
    return;
  }

  const ExecInstr e = makeExecInstr(d, r);
  const std::uint64_t done = main_pipe_->execute(e);
  const ApplyInfo info = arch_.apply(r, instr);

  if (d.op == ir::Opcode::kCall) {
    for (std::uint32_t p = 0; p < info.callee_params; ++p) {
      main_pipe_->setRegReady(Pipeline::regKey(info.callee_frame, ir::Reg{p}),
                              done, false);
    }
  } else if (d.op == ir::Opcode::kRet && info.caller_dst.valid()) {
    main_pipe_->setRegReady(
        Pipeline::regKey(info.caller_frame, info.caller_dst), done, false);
  }

  // Memory dependence checking (see the kStore fast case).
  if (d.is_store && !chain_.empty()) mainStoreCheck(r.mem_addr);

  // Register tracking for the scoreboard checking mode. A call's optional
  // destination counts as written by the main thread here, exactly as the
  // pre-dispatch implementation did.
  if (sb_thread_ != nullptr && r.frame == sb_thread_->fork_frame &&
      instr.dst.valid() && ir::producesValue(instr.op)) {
    main_written_[instr.dst.index] = 1;
  }
}

void SptMachine::stepSpec(SpecThread& t) {
  const trace::Record& r = rec(t.pos);
  if (r.kind != trace::RecordKind::kInstr) {
    ++t.pos;
    return;
  }

  const DecodedInstr& d = decode_[r.sid];
  const ir::Instr& instr = *d.instr;

  // Buffer-capacity stalls for stores/loads. Both buffers are keyed by
  // address, so only an access that would create a *new* entry can exceed
  // capacity: a store overwriting an SSB entry and a load that hits the
  // SSB (forwarded, never reaches the LAB) or re-reads a LAB address are
  // always admitted. The stall triggers exactly when the buffer already
  // holds the configured number of distinct addresses and one more would
  // be needed, so the address is computed only for a full buffer, with
  // specPeekReg (no live-in read is recorded): a stalled instruction never
  // executes speculatively, so it must not leave an SRB entry or a
  // dangling reference to one behind.
  if (d.is_store &&
      t.ssb.size() >= config_.speculative_store_buffer_entries) {
    const std::uint64_t addr = static_cast<std::uint64_t>(
        specPeekReg(t, r.frame, instr.a) + instr.imm);
    if (!t.ssb.contains(addr)) {
      t.stalled = true;
      return;
    }
  }
  if (d.is_load && t.lab.size() >= config_.load_address_buffer_entries) {
    const std::uint64_t addr = static_cast<std::uint64_t>(
        specPeekReg(t, r.frame, instr.a) + instr.imm);
    if (!t.ssb.contains(addr) && !t.lab.contains(addr)) {
      t.stalled = true;
      return;
    }
  }

  // The SRB entry is built in place: live-in reads, the LAB and the SSB
  // name it as t.srb.size() - 1 while the record executes.
  SrbEntry& entry = t.srb.emplace_back();
  entry.record_index = t.pos;
  bool stall_after = false;

  // Threaded dispatch off the predecoded class, as executeMainInstr: each
  // fast case pairs the emulation and its SSB/LAB bookkeeping with the
  // class-specialized ExecInstr builder and executeKnown instantiation.
  switch (static_cast<DispatchClass>(d.klass)) {
    case DispatchClass::kValue: {
      bool fault = false;
      entry.emu_value = specEmulateValue(t, r, instr, fault);
      if (fault) {
        // A suppressed fault (division by zero on stale inputs): the
        // entry forces replay and the thread stops after it.
        entry.violated = true;
        entry.emu_value = r.value;
        stall_after = true;
      }
      specWriteReg(t, r.frame, instr.dst, entry.emu_value);
      if (fault) {
        issueSpecGeneric(t, d, r, 0, false);
      } else {
        t.pipe->executeKnown<Pipeline::kExecPlain>(
            makeExecInstrFor<DispatchClass::kValue>(d, r));
      }
      break;
    }
    case DispatchClass::kLoad: {
      const std::int64_t base = specReadReg(t, r.frame, instr.a);
      const std::uint64_t addr = static_cast<std::uint64_t>(base + instr.imm);
      const bool forwarded = specLoad(t, r, addr, entry);
      specWriteReg(t, r.frame, instr.dst, entry.emu_value);
      ExecInstr e = makeExecInstrFor<DispatchClass::kLoad>(d, r);
      if (forwarded) {
        // Forwarded from the thread's own SSB: no cache access.
        t.pipe->executeKnown<Pipeline::kExecPlain>(e);
      } else {
        // The emulated address, as makeExecInstr's override (address 0
        // keeps the record's).
        if (addr != 0) e.mem_addr = addr;
        t.pipe->executeKnown<Pipeline::kExecLoad>(e);
      }
      break;
    }
    case DispatchClass::kStore: {
      const std::int64_t base = specReadReg(t, r.frame, instr.a);
      const std::int64_t value = specReadReg(t, r.frame, instr.b);
      const std::uint64_t addr = static_cast<std::uint64_t>(base + instr.imm);
      entry.emu_addr = addr;
      entry.emu_value = value;
      SsbEntry& slot = (t.ssb[addr] = SsbEntry{value, t.srb.size() - 1});
      // Corrupts the buffered copy only: later loads forward the corrupted
      // value while this store's own SRB payload stays correct, so only the
      // *consumers* can diverge.
      if (injector_ && injector_->maybeCorruptSsbValue(slot.value)) {
        ++t.faults_pending;
      }
      // Cross-thread dependence: this store may conflict with loads already
      // executed by more speculative successors. No exemption at execute
      // time — a successor's forward from an *earlier* store of this thread
      // is stale by definition once this one executes.
      if (multiway_ && chain_.size() > 1) {
        flagSuccessorLoads(t, addr, 0, 0, /*allow_forward_exemption=*/false);
      }
      // Speculative stores stay in the SSB; they only reach the shared
      // cache at commit time.
      t.pipe->executeKnown<Pipeline::kExecPlain>(
          makeExecInstrFor<DispatchClass::kStore>(d, r));
      break;
    }
    case DispatchClass::kCondBr: {
      entry.emu_value = specReadReg(t, r.frame, instr.a);
      if ((entry.emu_value != 0) != r.taken) {
        // The speculative thread would fetch down the other path, which the
        // sequential trace cannot provide; it stops producing results here
        // and replay will stop at this entry.
        entry.branch_mismatch = true;
        stall_after = true;
      }
      t.pipe->executeKnown<Pipeline::kExecBranch>(
          makeExecInstrFor<DispatchClass::kCondBr>(d, r));
      break;
    }
    case DispatchClass::kJump:
      if (d.op == ir::Opcode::kBr || d.op == ir::Opcode::kNop) {
        t.pipe->executeKnown<Pipeline::kExecPlain>(
            makeExecInstrFor<DispatchClass::kJump>(d, r));
        break;
      }
      [[fallthrough]];  // a dead destination still emulates
    default:
      if (!stepSpecGeneric(t, d, r, entry, stall_after)) {
        t.srb.pop_back();
        t.stalled = true;
        return;
      }
      break;
  }

  // SRB payload corruption targets entries whose buffered result is
  // actually consumed at commit (value producers, stores, returns); the
  // register-file overlay keeps the true value, so downstream speculative
  // dataflow is unaffected — exactly a buffer-array corruption.
  if (injector_ && (d.is_store || d.op == ir::Opcode::kRet ||
                    (ir::producesValue(d.op) && d.op != ir::Opcode::kCall))) {
    if (injector_->maybeCorruptSrbPayload(entry.emu_value)) {
      ++t.faults_pending;
    }
  }
  ++t.pos;
  if (stall_after) t.stalled = true;
}

std::int64_t SptMachine::specEmulateValue(SpecThread& t,
                                          const trace::Record& r,
                                          const ir::Instr& instr,
                                          bool& fault) {
  switch (instr.op) {
    case ir::Opcode::kConst:
      return instr.imm;
    case ir::Opcode::kMov:
      return specReadReg(t, r.frame, instr.a);
    default: {
      const std::int64_t a = specReadReg(t, r.frame, instr.a);
      const std::int64_t b = specReadReg(t, r.frame, instr.b);
      return emulateBinary(instr.op, a, b, fault);
    }
  }
}

bool SptMachine::specLoad(SpecThread& t, const trace::Record& r,
                          std::uint64_t addr, SrbEntry& entry) {
  entry.emu_addr = addr;
  if (const SsbEntry* hit = t.ssb.find(addr)) {
    entry.emu_value = hit->value;
    return true;
  }
  // Chained mode: a miss in the thread's own SSB consults every
  // less-speculative predecessor's SSB, nearest first — the nearest
  // predecessor's store is the latest one sequentially before this load. A
  // cross-thread forward records its provenance in the SRB entry
  // (commit-time exemption) and still registers in this thread's LAB:
  // main-thread and intermediate stores must be able to flag it. It is
  // charged as a cache access, not a same-core forward — the value crosses
  // cores.
  bool cross = false;
  if (multiway_ && chain_.size() > 1) {
    for (std::size_t j = chainIndexOf(t); j-- > 0;) {
      const SpecThread& p = *slots_[chain_[j]];
      if (const SsbEntry* ph = p.ssb.find(addr)) {
        entry.emu_value = ph->value;
        entry.fwd_seq = p.seq;
        entry.fwd_srb = static_cast<std::uint32_t>(ph->srb_index);
        cross = true;
        break;
      }
    }
  }
  std::vector<std::size_t>& loads = t.labList(addr);
  loads.push_back(t.srb.size() - 1);
  // Dropping the record cuts the memory-dependence net's wire for this
  // load: a conflicting store can no longer flag it, and only the
  // commit-time validation walk can catch the divergence.
  if (injector_ && injector_->maybeDropLabRecord()) {
    loads.pop_back();
    ++t.faults_pending;
  }
  if (!cross) {
    entry.emu_value = addr == r.mem_addr ? arch_.memValue(addr, r.value)
                                         : arch_.memValue(addr, 0);
  }
  return false;
}

void SptMachine::issueSpecGeneric(SpecThread& t, const DecodedInstr& d,
                                  const trace::Record& r,
                                  std::uint64_t mem_addr_override,
                                  bool ssb_forwarded) {
  ExecInstr e = makeExecInstr(d, r, mem_addr_override);
  // Speculative stores stay in the SSB (see the kStore fast case); loads
  // satisfied by the SSB are forwarded without a cache access.
  e.is_store = false;
  if (ssb_forwarded) e.is_load = false;
  t.pipe->execute(e);
  ++fallback_spec_;
}

bool SptMachine::stepSpecGeneric(SpecThread& t, const DecodedInstr& d,
                                 const trace::Record& r, SrbEntry& entry,
                                 bool& stall_after) {
  const ir::Instr& instr = *d.instr;
  std::uint64_t mem_addr_override = 0;
  bool ssb_forwarded = false;

  switch (instr.op) {
    case ir::Opcode::kLoad: {
      // A load without a live destination (class kGeneric).
      const std::int64_t base = specReadReg(t, r.frame, instr.a);
      mem_addr_override = static_cast<std::uint64_t>(base + instr.imm);
      ssb_forwarded = specLoad(t, r, mem_addr_override, entry);
      specWriteReg(t, r.frame, instr.dst, entry.emu_value);
      break;
    }
    case ir::Opcode::kCall: {
      for (std::size_t i = 0; i < instr.args.size(); ++i) {
        const std::int64_t v = specReadReg(t, r.frame, instr.args[i]);
        specWriteReg(t, r.callee_frame,
                     ir::Reg{static_cast<std::uint32_t>(i)}, v);
      }
      t.call_stack.push_back({r.frame, instr.dst});
      break;
    }
    case ir::Opcode::kRet: {
      // Returning out of the forked function: stop speculating.
      if (t.call_stack.empty()) return false;
      const std::int64_t v =
          instr.a.valid() ? specReadReg(t, r.frame, instr.a) : 0;
      entry.emu_value = v;
      const CallCtx ctx = t.call_stack.back();
      t.call_stack.pop_back();
      if (ctx.dst.valid()) specWriteReg(t, ctx.caller_frame, ctx.dst, v);
      break;
    }
    case ir::Opcode::kHalloc:
      // The bump allocator is shared architectural state; if the main
      // thread allocated since the fork the speculative address is stale.
      entry.emu_value = r.value;
      entry.violated = arch_.hallocCount() != t.halloc_at_fork;
      specWriteReg(t, r.frame, instr.dst, entry.emu_value);
      break;
    case ir::Opcode::kSptFork:
      // Chained speculation: the tail thread consuming a fork record spawns
      // its own successor (single-core mode: a no-op on the spec pipeline).
      if (multiway_) chainFork(t, r);
      break;
    case ir::Opcode::kSptKill:
    case ir::Opcode::kNop:
      // No-ops on the speculative pipeline (paper Section 3.1).
      break;
    default: {
      bool fault = false;
      entry.emu_value = specEmulateValue(t, r, instr, fault);
      if (fault) {
        entry.violated = true;
        entry.emu_value = r.value;
        stall_after = true;
      }
      specWriteReg(t, r.frame, instr.dst, entry.emu_value);
      break;
    }
  }
  issueSpecGeneric(t, d, r, mem_addr_override, ssb_forwarded);
  return true;
}

void SptMachine::arrival(SpecThread& t) {
  SPT_CHECK(arch_.curFrame() == t.fork_frame);
  ThreadStats& ts = *t.loop_stats;

  // Register dependence check (paper Section 3.2). Flag setting is
  // idempotent, so the iteration order over live-in registers is free.
  // Chained threads always use the value-based check: their snapshot was
  // materialized from a predecessor's speculative view, so the main-thread
  // scoreboard does not describe it — comparing against the architectural
  // registers at arrival both detects main-thread overwrites and validates
  // the (possibly slice-predicted) snapshot itself.
  const bool value_based =
      config_.register_check == support::RegisterCheckMode::kValueBased ||
      !t.forked_by_main;
  const std::vector<std::int64_t>& now = arch_.topRegs();
  for (const std::uint32_t reg : t.livein_touched) {
    bool violated;
    if (value_based) {
      violated = now[reg] != t.fork_rf[reg];
    } else {
      violated = main_written_[reg] != 0;
    }
    if (violated) {
      for (const std::size_t idx : t.livein_reads[reg]) {
        t.srb[idx].input_violated = true;
      }
    }
  }

  // Commit-time value validation (fault mode only): any clean entry whose
  // buffered result diverges from the trace — possible only when injection
  // cut one of the net's wires — is flagged here, forcing the thread into
  // the replay/squash path instead of fast-committing a wrong value.
  const std::size_t oracle_flagged = fault_mode_ ? validateSrbAtArrival(t) : 0;

  bool any_violation = false;
  for (const SrbEntry& e : t.srb) {
    if (e.violated || e.input_violated) {
      any_violation = true;
      break;
    }
  }
  result_.threads.spec_instrs += t.srb.size();
  ts.spec_instrs += t.srb.size();

  switch (config_.recovery) {
    case support::RecoveryMechanism::kSelectiveReplayFastCommit:
      if (!any_violation) {
        settleFaults(t, false, oracle_flagged, false, fastCommit(t));
      } else {
        replayCommit(t);
        settleFaults(t, true, oracle_flagged, false);
      }
      break;
    case support::RecoveryMechanism::kSelectiveReplay:
      replayCommit(t);
      settleFaults(t, true, oracle_flagged, false);
      break;
    case support::RecoveryMechanism::kFullSquash:
      if (!any_violation) {
        settleFaults(t, false, oracle_flagged, false, fastCommit(t));
      } else {
        fullSquash(t);
        settleFaults(t, true, oracle_flagged, false);
      }
      break;
  }

  // The thread is settled either way: remove it from the chain head. Its
  // successor (if any) becomes the least-speculative thread and the main
  // thread will arrive at its start-point next — cascaded in-order commit.
  SPT_CHECK(!chain_.empty() && chain_.front() == t.slot);
  chain_.erase(chain_.begin());
  if (sb_thread_ == &t) sb_thread_ = nullptr;
}

bool SptMachine::entryDiverges(const SrbEntry& e,
                               const trace::Record& r) const {
  switch (decode_[r.sid].op) {
    case ir::Opcode::kBr:
    case ir::Opcode::kCall:
    case ir::Opcode::kSptFork:
    case ir::Opcode::kSptKill:
    case ir::Opcode::kNop:
      return false;  // no comparable result payload
    case ir::Opcode::kCondBr:
      // The record's value field is unused for branches; the emulated
      // direction against the trace's `taken` bit is the ground truth.
      return e.branch_mismatch;
    case ir::Opcode::kStore:
      return e.emu_value != r.value || e.emu_addr != r.mem_addr;
    default:
      return e.emu_value != r.value;
  }
}

std::size_t SptMachine::validateSrbAtArrival(SpecThread& t) {
  // Mirrors replayCommit's dirty-closure walk (same scratch maps, same
  // propagation rule) but with no timing or architectural effects: its only
  // output is `violated` flags on clean entries that diverge from the
  // trace. Entries inside the closure are left alone — replay re-executes
  // them anyway, so only clean-yet-divergent entries are the net's misses.
  replay_dirty_regs_.reset();
  replay_dirty_addrs_.clear();
  const bool value_based =
      config_.register_check == support::RegisterCheckMode::kValueBased ||
      !t.forked_by_main;
  // Local call contexts for ret propagation: every executed ret in the SRB
  // range has its matching call in range (a ret with an empty speculative
  // call stack stalls the thread before recording an entry).
  std::vector<CallCtx> calls;
  std::size_t flagged = 0;

  for (SrbEntry& e : t.srb) {
    const trace::Record& r = rec(e.record_index);
    const DecodedInstr& d = decode_[r.sid];
    const ir::Instr& instr = *d.instr;

    bool dirty = e.violated || e.input_violated;
    if (!dirty) {
      const auto srcDirty = [&](ir::Reg reg) {
        return reg.valid() &&
               replay_dirty_regs_.find(r.frame, reg.index) != nullptr;
      };
      dirty = srcDirty(instr.a) || srcDirty(instr.b);
      if (!dirty) {
        for (const ir::Reg arg : instr.args) {
          if (srcDirty(arg)) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty && d.is_load) {
        dirty = replay_dirty_addrs_.contains(e.emu_addr) ||
                replay_dirty_addrs_.contains(r.mem_addr);
      }
    }

    if (!dirty && entryDiverges(e, r)) {
      e.violated = true;
      dirty = true;
      ++flagged;
    }

    if (dirty) {
      const bool value_changed =
          e.emu_value != r.value ||
          (d.is_store && e.emu_addr != r.mem_addr) ||
          e.branch_mismatch;
      if (!value_based || value_changed) {
        if (instr.dst.valid() && ir::producesValue(instr.op)) {
          replay_dirty_regs_.at(r.frame, instr.dst.index) = 1;
        }
        if (d.is_store) {
          replay_dirty_addrs_[e.emu_addr] = 1;
          replay_dirty_addrs_[r.mem_addr] = 1;
        }
        if (d.op == ir::Opcode::kCall) {
          const std::uint32_t params =
              module_.function(instr.callee).param_count;
          for (std::uint32_t p = 0; p < params; ++p) {
            replay_dirty_regs_.at(r.callee_frame, p) = 1;
          }
        }
        if (d.op == ir::Opcode::kRet && !calls.empty() &&
            calls.back().dst.valid()) {
          replay_dirty_regs_.at(calls.back().caller_frame,
                                calls.back().dst.index) = 1;
        }
      }
      if (e.branch_mismatch) break;  // replay discards everything after it
    }

    if (d.op == ir::Opcode::kCall) {
      calls.push_back({r.frame, instr.dst});
    } else if (d.op == ir::Opcode::kRet && !calls.empty()) {
      calls.pop_back();
    }
  }
  return flagged;
}

void SptMachine::settleFaults(SpecThread& t, bool replayed,
                              std::size_t oracle_flagged, bool discarded,
                              std::size_t escapes) {
  if (!injector_) return;
  const std::size_t n = t.faults_pending;
  t.faults_pending = 0;
  if (n == 0) return;
  result_.faults.injected += n;
  if (escapes > 0) {
    // A divergent value fast-committed undetected. Must never happen; the
    // campaign asserts this stays zero.
    result_.faults.escaped += n;
  } else if (discarded || !replayed) {
    // Discarded wholesale (kill / wrong path / cascade), or fast-committed
    // with every entry validated equal: the corruption never reached
    // committed state.
    result_.faults.benign += n;
  } else if (oracle_flagged > 0) {
    result_.faults.detected_by_oracle += n;
  } else {
    result_.faults.detected_by_net += n;
  }
}

void SptMachine::syncToFreezePoint(SpecThread& t) {
  // The speculative thread is frozen at arrival; results in the buffer were
  // produced by (at latest) the speculative pipeline's clock, so the main
  // pipeline cannot consume them earlier. The jump inherits the speculative
  // pipeline's cycle breakdown — it represents that pipeline's work.
  const std::uint64_t freeze = std::max(main_pipe_->cycle(), t.pipe->cycle());
  main_pipe_->advanceToWithProfile(freeze, specProfileSinceFork(t));
}

std::size_t SptMachine::fastCommit(SpecThread& t) {
  ThreadStats& ts = *t.loop_stats;
  syncToFreezePoint(t);
  // The bulk commit costs the Table 1 minimum regardless of buffer depth —
  // that is fast commit's whole point versus walking the buffer at replay
  // width.
  main_pipe_->advanceTo(main_pipe_->cycle() + config_.fast_commit_overhead,
                        StallKind::kPipeline);

  // Commit the speculative state: walk the committed record range, applying
  // architectural effects and loop markers at commit time. The walk is
  // class-dispatched like executeMainInstr: the common classes pair the
  // inline ArchState applier with the scoreboard update, and only
  // calls/returns/hallocs re-dispatch through the generic apply().
  std::size_t srb_i = 0;
  for (std::size_t i = t.start_pos; i < t.pos; ++i) {
    const trace::Record& r = rec(i);
    if (r.kind != trace::RecordKind::kInstr) {
      loop_tracker_.onMarker(r, main_pipe_->cycle());
      continue;
    }
    const std::size_t cur_srb = srb_i++;
    const DecodedInstr& d = decode_[r.sid];
    switch (static_cast<DispatchClass>(d.klass)) {
      case DispatchClass::kValue:
        arch_.applyValue(r, d.dst_reg);
        main_pipe_->setRegReady(
            (static_cast<std::uint64_t>(r.frame) << 32) + 1 + d.dst_reg,
            main_pipe_->cycle(), false);
        continue;
      case DispatchClass::kLoad:
        arch_.applyLoad(r, d.dst_reg);
        main_pipe_->setRegReady(
            (static_cast<std::uint64_t>(r.frame) << 32) + 1 + d.dst_reg,
            main_pipe_->cycle(), false);
        continue;
      case DispatchClass::kStore:
        arch_.applyStore(r);
        // Outstanding speculative stores write back at commit.
        memory_->accessData(r.mem_addr, main_pipe_->cycle());
        // Cross-thread dependence: the committed store checks successor
        // LABs; a successor load that forwarded exactly this store's
        // committed value is exempt.
        if (multiway_ && chain_.size() > 1) {
          flagSuccessorLoads(t, r.mem_addr, r.value,
                             static_cast<std::uint32_t>(cur_srb),
                             /*allow_forward_exemption=*/true);
        }
        continue;
      case DispatchClass::kCondBr:
      case DispatchClass::kJump:
      case DispatchClass::kFork:
        arch_.applyNoEffect(r);
        continue;
      case DispatchClass::kKill:
        arch_.applyNoEffect(r);
        // The loop exited inside the committed span: every more
        // speculative thread runs iterations that never execute.
        if (multiway_) cascadeKillSuccessors();
        continue;
      default:
        break;
    }
    const ir::Instr& instr = *d.instr;
    const ApplyInfo info = arch_.apply(r, instr);
    if (instr.dst.valid() && ir::producesValue(instr.op)) {
      main_pipe_->setRegReady(Pipeline::regKey(r.frame, instr.dst),
                              main_pipe_->cycle(), false);
    }
    if (instr.op == ir::Opcode::kRet && info.caller_dst.valid()) {
      main_pipe_->setRegReady(
          Pipeline::regKey(info.caller_frame, info.caller_dst),
          main_pipe_->cycle(), false);
    }
  }

  result_.threads.committed_instrs += t.srb.size();
  ts.committed_instrs += t.srb.size();
  ++result_.threads.fast_commits;
  ++ts.fast_commits;

  // Honest escape detector (fault mode): the arrival validation walk must
  // have routed every divergent entry into replay, so nothing that reaches
  // fast commit may mismatch the trace.
  std::size_t escapes = 0;
  if (fault_mode_) {
    for (const SrbEntry& e : t.srb) {
      if (entryDiverges(e, rec(e.record_index))) ++escapes;
    }
  }

  pos_ = t.pos;
  t.active = false;
  if (oracle_) checkOracle(pos_, "fast-commit");
  return escapes;
}

void SptMachine::replayCommit(SpecThread& t) {
  ThreadStats& ts = *t.loop_stats;
  ++result_.threads.replays;
  ++ts.replays;
  syncToFreezePoint(t);

  replay_dirty_regs_.reset();
  replay_dirty_addrs_.clear();
  const bool value_based =
      config_.register_check == support::RegisterCheckMode::kValueBased ||
      !t.forked_by_main;

  std::size_t srb_i = 0;
  bool diverged = false;
  std::size_t resume_pos = t.pos;

  for (std::size_t rec_i = t.start_pos; rec_i < t.pos && !diverged;
       ++rec_i) {
    const trace::Record& r = rec(rec_i);
    if (r.kind != trace::RecordKind::kInstr) {
      loop_tracker_.onMarker(r, main_pipe_->cycle());
      continue;
    }
    const std::size_t cur_srb = srb_i;
    SrbEntry& e = t.srb[srb_i++];
    SPT_CHECK(e.record_index == rec_i);
    const DecodedInstr& d = decode_[r.sid];
    const ir::Instr& instr = *d.instr;

    bool dirty = e.violated || e.input_violated;
    if (!dirty) {
      const auto srcDirty = [&](ir::Reg reg) {
        return reg.valid() &&
               replay_dirty_regs_.find(r.frame, reg.index) != nullptr;
      };
      dirty = srcDirty(instr.a) || srcDirty(instr.b);
      if (!dirty) {
        for (const ir::Reg arg : instr.args) {
          if (srcDirty(arg)) {
            dirty = true;
            break;
          }
        }
      }
      if (!dirty && d.is_load) {
        dirty = replay_dirty_addrs_.contains(e.emu_addr) ||
                replay_dirty_addrs_.contains(r.mem_addr);
      }
    }

    const ApplyInfo info = arch_.apply(r, instr);

    // Cross-thread dependence on the architecturally applied record: the
    // committed store checks successor LABs (forwarding exemption against
    // the trace value), and a speculative store whose emulated address was
    // wrong additionally invalidates forwards from the phantom address.
    if (multiway_ && d.is_store && chain_.size() > 1) {
      flagSuccessorLoads(t, r.mem_addr, r.value,
                         static_cast<std::uint32_t>(cur_srb),
                         /*allow_forward_exemption=*/true);
      if (e.emu_addr != r.mem_addr) {
        flagSuccessorLoads(t, e.emu_addr, 0, 0,
                           /*allow_forward_exemption=*/false);
      }
    }
    if (multiway_ && d.op == ir::Opcode::kSptKill) cascadeKillSuccessors();

    if (dirty) {
      // Selective re-execution on the main pipeline (normal width).
      const std::uint64_t done = main_pipe_->execute(makeExecInstr(d, r));
      ++fallback_replay_;
      ++result_.threads.misspec_instrs;
      ++ts.misspec_instrs;

      const bool value_changed =
          e.emu_value != r.value ||
          (d.is_store && e.emu_addr != r.mem_addr) ||
          e.branch_mismatch;
      if (!value_based || value_changed) {
        if (instr.dst.valid() && ir::producesValue(instr.op)) {
          replay_dirty_regs_.at(r.frame, instr.dst.index) = 1;
        }
        if (d.is_store) {
          replay_dirty_addrs_[e.emu_addr] = 1;
          replay_dirty_addrs_[r.mem_addr] = 1;
        }
        if (d.op == ir::Opcode::kCall) {
          for (std::uint32_t p = 0; p < info.callee_params; ++p) {
            replay_dirty_regs_.at(info.callee_frame, p) = 1;
          }
        }
        if (d.op == ir::Opcode::kRet && info.caller_dst.valid()) {
          replay_dirty_regs_.at(info.caller_frame, info.caller_dst.index) = 1;
        }
      }
      if (d.op == ir::Opcode::kCall) {
        for (std::uint32_t p = 0; p < info.callee_params; ++p) {
          main_pipe_->setRegReady(
              Pipeline::regKey(info.callee_frame, ir::Reg{p}), done, false);
        }
      } else if (d.op == ir::Opcode::kRet && info.caller_dst.valid()) {
        main_pipe_->setRegReady(
            Pipeline::regKey(info.caller_frame, info.caller_dst), done,
            false);
      }
      if (e.branch_mismatch) {
        // The re-executed branch goes the other way: everything after it in
        // the buffer is wrong-path and is discarded (paper Section 3.1).
        diverged = true;
        resume_pos = rec_i + 1;
      }
    } else {
      main_pipe_->commitFromBuffer();
      if (instr.dst.valid() && ir::producesValue(instr.op)) {
        main_pipe_->setRegReady(Pipeline::regKey(r.frame, instr.dst),
                                main_pipe_->cycle(), false);
      }
      if (d.is_store) {
        memory_->accessData(r.mem_addr, main_pipe_->cycle());
      }
      ++result_.threads.committed_instrs;
      ++ts.committed_instrs;
    }
  }

  if (multiway_ && diverged && chain_.size() > 1) {
    // Replay stopped at the mismatching branch: stores past it never
    // commit, so any successor load that forwarded from one read a phantom
    // value the net can no longer observe — flag those entries directly.
    // (The successors themselves stay alive: their spans are real trace
    // iterations the main thread will still arrive at.)
    const std::uint32_t div_srb = static_cast<std::uint32_t>(srb_i - 1);
    for (std::size_t j = 1; j < chain_.size(); ++j) {
      SpecThread& s = *slots_[chain_[j]];
      if (s.wrong_path) continue;
      for (SrbEntry& le : s.srb) {
        if (le.fwd_seq == t.seq && le.fwd_srb > div_srb) le.violated = true;
      }
    }
  }

  pos_ = diverged ? resume_pos : t.pos;
  t.active = false;
  if (oracle_) checkOracle(pos_, "replay");
}

void SptMachine::fullSquash(SpecThread& t) {
  ThreadStats& ts = *t.loop_stats;
  ++result_.threads.squashes;
  ++ts.squashes;
  result_.threads.misspec_instrs += t.srb.size();
  ts.misspec_instrs += t.srb.size();
  main_pipe_->advanceTo(main_pipe_->cycle() + config_.fast_commit_overhead,
                        StallKind::kPipeline);

  // Cascaded squash: the violating thread's whole span re-executes on the
  // main thread, so every more speculative thread — forked from it and
  // covering later iterations — is discarded with it.
  while (chain_.size() > 1) {
    SpecThread& s = *slots_[chain_.back()];
    ThreadStats& sts = *s.loop_stats;
    ++result_.threads.squashes;
    ++sts.squashes;
    // Cascaded threads never arrived, so charge both their speculative
    // and misspeculated instruction counts here.
    result_.threads.spec_instrs += s.srb.size();
    sts.spec_instrs += s.srb.size();
    result_.threads.misspec_instrs += s.srb.size();
    sts.misspec_instrs += s.srb.size();
    settleFaults(s, false, 0, /*discarded=*/true);
    s.active = false;
    chain_.pop_back();
  }

  pos_ = t.start_pos;  // re-execute the whole speculative span normally
  t.active = false;
  if (oracle_) checkOracle(pos_, "squash");
}

void SptMachine::killSpec(SpecThread& t) {
  ThreadStats& ts = *t.loop_stats;
  ++result_.threads.killed;
  ++ts.killed;
  result_.threads.spec_instrs += t.srb.size();
  ts.spec_instrs += t.srb.size();
  result_.threads.misspec_instrs += t.srb.size();
  ts.misspec_instrs += t.srb.size();
  t.active = false;
  settleFaults(t, false, 0, /*discarded=*/true);
}

void SptMachine::killChain() {
  for (const std::uint32_t slot : chain_) killSpec(*slots_[slot]);
  chain_.clear();
  sb_thread_ = nullptr;
}

void SptMachine::cascadeKillSuccessors() {
  while (chain_.size() > 1) {
    killSpec(*slots_[chain_.back()]);
    chain_.pop_back();
  }
}

}  // namespace spt::sim
