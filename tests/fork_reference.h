// Brute-force reference for trace::LoopIndex: the start-point of every
// fork by looking ahead in the trace, as trace.h defines it, shared by the
// tests that pin the index to that definition.
#pragma once

#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "ir/module.h"
#include "trace/trace.h"

namespace spt::testing {

/// (frame, header static id) of the loops executing at a trace position.
using OpenLoops = std::set<std::pair<trace::FrameId, ir::StaticId>>;

/// The start-point of the fork at `i` by looking ahead, as the definition
/// in trace.h states it: with (frame, target) an open loop, its next
/// iteration unless the loop exits first; otherwise the target's next
/// execution in the forking frame. `open` holds the loops open at `i`.
inline std::size_t lookAheadStart(const ir::Module& m, trace::TraceView trace,
                                  std::size_t i, const OpenLoops& open) {
  const trace::Record& fork_record = trace[i];
  const auto& loc = m.locate(fork_record.sid);
  const ir::Function& func = m.function(loc.func);
  const ir::Instr& fork = func.blocks[loc.block].instrs[loc.index];
  const ir::StaticId target =
      func.blocks[fork.target0].instrs.front().static_id;
  const bool loop_fork = open.contains({fork_record.frame, target});
  for (std::size_t j = i + 1; j < trace.size(); ++j) {
    const trace::Record& r = trace[j];
    if (r.frame != fork_record.frame || r.sid != target) continue;
    if (loop_fork && r.kind == trace::RecordKind::kIterBegin) return j;
    if (loop_fork && r.kind == trace::RecordKind::kLoopExit) break;
    if (!loop_fork && r.kind == trace::RecordKind::kInstr) return j;
  }
  return trace::LoopIndex::kNoStart;
}

/// Updates `open` past record `r`.
inline void trackOpenLoops(const trace::Record& r, OpenLoops& open) {
  if (r.kind == trace::RecordKind::kIterBegin) {
    open.insert({r.frame, r.sid});
  } else if (r.kind == trace::RecordKind::kLoopExit) {
    open.erase({r.frame, r.sid});
  }
}

/// Marks a record that is not a fork in referenceForkStarts.
inline constexpr std::size_t kNotFork = trace::LoopIndex::kNoStart - 1;

/// For every record of `trace`: kNotFork, or the fork's lookAheadStart.
inline std::vector<std::size_t> referenceForkStarts(const ir::Module& m,
                                                    trace::TraceView trace) {
  std::vector<std::size_t> starts(trace.size(), kNotFork);
  OpenLoops open;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::Record& r = trace[i];
    if (r.kind == trace::RecordKind::kInstr &&
        r.op == ir::Opcode::kSptFork) {
      starts[i] = lookAheadStart(m, trace, i, open);
    }
    trackOpenLoops(r, open);
  }
  return starts;
}

}  // namespace spt::testing
