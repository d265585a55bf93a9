// Architectural oracle for the SPT machine (co-simulation cross-check).
//
// The SPT machine's correctness contract is that, whatever the speculative
// pipeline did, the *committed* architectural state after every recovery
// boundary is exactly the sequential execution's state. The oracle enforces
// that contract at runtime: it owns an independent ArchState that replays
// the trace strictly sequentially, and at every fast-commit, selective-
// replay, and full-squash boundary (plus end of run) it compares it with
// the machine's state. The machine feeds the reference the records up to
// its commit position before each check, and before it drops records it no
// longer needs, so the oracle works on a streamed trace too.
//
//  * kDigest (cheap): both sides fold each applied record into an
//    incremental FNV digest (O(1) per record); the boundary check is one
//    integer compare. This catches any skipped, duplicated, or reordered
//    architectural commit.
//  * kDeep: additionally diffs the materialized state — every frame
//    register, the memory image, the allocator count — and names the first
//    divergent register or address. O(state) per boundary; for debugging.
//
// On divergence the oracle throws support::SptInternalError with the diff,
// so a quarantined sweep cell reports it instead of silently producing
// wrong numbers.
#pragma once

#include <cstddef>
#include <memory>

#include "ir/module.h"
#include "sim/arch_state.h"
#include "sim/decode.h"
#include "support/machine_config.h"
#include "trace/trace.h"

namespace spt::sim {

class Oracle {
 public:
  Oracle(const ir::Module& module, const DecodeTable& decode,
         support::OracleMode mode);

  /// Trace position of the sequential reference: the next record it
  /// applies.
  std::size_t position() const { return ref_pos_; }

  /// Applies `records`, the trace from position() on, to the reference.
  /// The caller may drop them afterwards: the oracle keeps no records.
  void advance(trace::TraceView records);

  /// Cross-checks `machine_arch` (whose digest must be enabled) against the
  /// sequential reference, which must stand at trace position `pos`.
  /// Throws support::SptInternalError on divergence.
  void checkAt(std::size_t pos, const ArchState& machine_arch,
               const char* boundary);

  std::size_t checksRun() const { return checks_run_; }
  std::uint64_t referenceDigest() const { return ref_.streamDigest(); }

  /// The sequential architectural digest of a whole trace — what any
  /// correct machine's oracle digest must equal at end of run (used by the
  /// fault campaign as the baseline architectural result).
  static std::uint64_t sequentialDigest(const ir::Module& module,
                                        trace::TraceView trace);

 private:
  const DecodeTable& decode_;
  support::OracleMode mode_;
  ArchState ref_;
  std::size_t ref_pos_ = 0;
  std::size_t checks_run_ = 0;
};

}  // namespace spt::sim
