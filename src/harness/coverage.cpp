#include "harness/coverage.h"

#include <algorithm>
#include <limits>

#include "interp/interpreter.h"
#include "profile/profiler.h"
#include "support/check.h"

namespace spt::harness {

namespace {
constexpr std::int64_t kNotInLoop = -1;
}

CoverageSink::CoverageSink(
    const std::unordered_map<ir::StaticId, profile::LoopStats>& loop_stats)
    : loop_stats_(loop_stats) {}

void CoverageSink::onBlock(trace::TraceView block) {
  for (const trace::Record& record : block) add(record);
}

void CoverageSink::add(const trace::Record& record) {
  switch (record.kind) {
    case trace::RecordKind::kIterBegin: {
      if (!open_.empty() && open_.back().header_sid == record.sid &&
          open_.back().frame == record.frame) {
        return;  // subsequent iteration of the already-open loop
      }
      const auto it = loop_stats_.find(record.sid);
      const auto size =
          it == loop_stats_.end()
              ? std::numeric_limits<std::int64_t>::max()
              : static_cast<std::int64_t>(it->second.avgBodySize() + 0.5);
      const std::int64_t outer_min =
          open_.empty() ? std::numeric_limits<std::int64_t>::max()
                        : open_.back().min_size;
      open_.push_back({record.sid, record.frame, std::min(size, outer_min)});
      return;
    }
    case trace::RecordKind::kLoopExit:
      SPT_CHECK_MSG(!open_.empty() && open_.back().header_sid == record.sid,
                    "unbalanced loop exit in coverage sink");
      open_.pop_back();
      return;
    case trace::RecordKind::kInstr:
      ++total_;
      hist_.add(open_.empty() ? kNotInLoop : open_.back().min_size);
      return;
  }
}

double CoverageSink::coverageUpTo(std::int64_t limit) const {
  if (total_ == 0) return 0.0;
  // kNotInLoop (-1) sorts below any real size; exclude it by subtracting.
  const std::uint64_t not_in_loop = hist_.weightOf(kNotInLoop);
  const std::uint64_t upto = hist_.cumulativeWeightUpTo(limit);
  return static_cast<double>(upto - std::min(upto, not_in_loop)) /
         static_cast<double>(total_);
}

CoverageResult measureLoopCoverage(ir::Module& module) {
  if (!module.finalized()) module.finalize();

  // Pass 1: loop statistics (average body sizes).
  interp::ProgramContext ctx(module);
  profile::ProfileData stats;
  {
    interp::Memory memory;
    profile::Profiler profiler(module);
    interp::Interpreter interp(ctx, memory, profiler);
    interp.runMain();
    stats = profiler.take();
  }

  // Pass 2: per-instruction binning by min enclosing avg body size.
  CoverageSink sink(stats.loops);
  {
    interp::Memory memory;
    interp::Interpreter interp(ctx, memory, sink);
    interp.runMain();
  }

  CoverageResult result;
  // Strip the not-in-loop bin into the total only.
  result.total_instrs = sink.totalInstrs();
  for (const auto& [key, weight] : sink.histogram().bins()) {
    if (key >= 0) result.histogram.add(key, weight);
  }
  return result;
}

}  // namespace spt::harness
