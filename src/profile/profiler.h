// Streaming profiler: a TraceSink that builds ProfileData in one pass.
//
// Collected in a single sequential profiling run: the paper's dependence
// and edge profiling, plus value profiling of a given set of def sids (the
// paper's SVP instrumentation, Section 4.4). Each sid's value stats are
// kept independently, so a run over a superset of sids, projected onto a
// subset, equals a run over that subset.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/module.h"
#include "profile/profile_data.h"
#include "sim/flat_map.h"
#include "trace/trace.h"

namespace spt::profile {

class Profiler final : public trace::TraceSink {
 public:
  /// `module` provides static operand information for dependent-slice
  /// tracking (the paper's "misspeculation computation amount").
  /// `value_candidates`: def sids whose value pattern should be profiled
  /// (empty set = no value profiling).
  explicit Profiler(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates = {});

  void onRecord(const trace::Record& record) override;

  /// Takes the accumulated profile (call once, after the run).
  ProfileData take();

 private:
  struct OpenLoop {
    ir::StaticId header_sid = ir::kInvalidStaticId;
    trace::FrameId frame = 0;
    std::uint64_t iterations = 0;
    std::uint64_t instrs = 0;  // own + nested-loop + callee instructions
    std::int64_t cur_iter = 0;
    /// address -> (iteration, store sid) of the loop-relative last store.
    std::unordered_map<std::uint64_t,
                       std::pair<std::int64_t, ir::StaticId>>
        last_store;
  };

  /// Value state of one profiled sid. The delta histogram is a flat
  /// table keyed by the delta's bits until take() turns it into
  /// ValueStats::delta_counts.
  struct ValueSlot {
    ir::StaticId sid = ir::kInvalidStaticId;
    bool has_prev = false;
    std::int64_t prev = 0;
    std::uint64_t samples = 0;
    sim::FlatMap64<std::uint64_t> deltas;
  };

  /// Tracks the *dependent* slice downstream of a violated load inside a
  /// call: registers/addresses tainted by the loaded value, and how many
  /// instructions consumed them (the re-execution amount a selective
  /// replay would pay).
  struct DepTracker {
    ir::StaticId loop_header = ir::kInvalidStaticId;
    std::pair<ir::StaticId, ir::StaticId> pair;
    std::size_t call_depth = 0;  // open_calls_ index that owns it
    std::unordered_set<std::uint64_t> tainted_regs;  // (frame<<32)|reg
    std::unordered_set<std::uint64_t> tainted_addrs;
    std::uint64_t dependent_instrs = 0;
  };

  struct OpenCall {
    ir::StaticId call_sid = ir::kInvalidStaticId;
    trace::FrameId caller_frame = 0;
    trace::FrameId callee_frame = 0;
    std::uint64_t instrs = 0;  // inclusive
  };

  static std::uint64_t regKey(trace::FrameId frame, ir::Reg reg) {
    return (static_cast<std::uint64_t>(frame) << 32) | reg.index;
  }

  void trackDependents(const trace::Record& record);

  void closeTopLoop();

  const ir::Module& module_;
  ProfileData data_;
  std::vector<OpenLoop> open_;  // innermost last; spans frames
  std::vector<OpenCall> open_calls_;
  std::vector<DepTracker> trackers_;
  /// sid -> index into value_slots_ (kNoSlot when not profiled); empty
  /// when no sid is.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<std::uint32_t> slot_of_;
  std::vector<ValueSlot> value_slots_;
};

}  // namespace spt::profile
