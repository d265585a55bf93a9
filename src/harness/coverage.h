// Loop-coverage accounting for paper Figure 6.
//
// Figure 6 plots, per benchmark, the cumulative fraction of dynamic
// execution covered by loops whose average body size is within a limit.
// An instruction is covered at limit S when at least one of its dynamically
// enclosing loops (across call frames) has average body size <= S; the
// instruction is therefore binned at the *minimum* enclosing average body
// size, and the curve is the cumulative histogram. This avoids double
// counting nested loops.
#pragma once

#include <unordered_map>
#include <vector>

#include "profile/profile_data.h"
#include "support/stats.h"
#include "trace/trace.h"

namespace spt::harness {

class CoverageSink final : public trace::TraceSink {
 public:
  /// `loop_stats` comes from a prior profiling run of the same module
  /// (average body sizes must be known before binning).
  explicit CoverageSink(
      const std::unordered_map<ir::StaticId, profile::LoopStats>& loop_stats);

  void onBlock(trace::TraceView block) override;

  const support::Histogram& histogram() const { return hist_; }
  std::uint64_t totalInstrs() const { return total_; }

  /// Fraction of instructions covered by loops of avg body size <= limit.
  double coverageUpTo(std::int64_t limit) const;

 private:
  void add(const trace::Record& record);

  struct OpenLoop {
    ir::StaticId header_sid;
    trace::FrameId frame;
    /// Minimum avg body size from this loop outward (monotone stack).
    std::int64_t min_size;
  };

  const std::unordered_map<ir::StaticId, profile::LoopStats>& loop_stats_;
  std::vector<OpenLoop> open_;
  support::Histogram hist_;  // key: min enclosing avg body size
  std::uint64_t total_ = 0;
};

/// Convenience: profiles the module once for loop stats, then streams a
/// second run through a CoverageSink. Returns the filled sink data.
struct CoverageResult {
  support::Histogram histogram;
  std::uint64_t total_instrs = 0;

  double coverageUpTo(std::int64_t limit) const {
    return total_instrs == 0
               ? 0.0
               : static_cast<double>(
                     histogram.cumulativeWeightUpTo(limit)) /
                     static_cast<double>(total_instrs);
  }
};

CoverageResult measureLoopCoverage(ir::Module& module);

}  // namespace spt::harness
