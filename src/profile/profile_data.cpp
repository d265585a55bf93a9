#include "profile/profile_data.h"

namespace spt::profile {

std::int64_t ValueStats::bestStride() const {
  std::int64_t best = 0;
  std::uint64_t best_count = 0;
  for (const auto& [delta, count] : delta_counts) {
    if (count > best_count) {
      best = delta;
      best_count = count;
    }
  }
  return best;
}

double ValueStats::predictability() const {
  if (samples == 0) return 0.0;
  std::uint64_t best_count = 0;
  for (const auto& [delta, count] : delta_counts) {
    (void)delta;
    if (count > best_count) best_count = count;
  }
  return static_cast<double>(best_count) / static_cast<double>(samples);
}

double ProfileData::branchTakenProb(ir::StaticId sid, double fallback) const {
  const auto it = branches.find(sid);
  return it == branches.end() ? fallback : it->second.takenProb(fallback);
}

double ProfileData::memDepProb(ir::StaticId loop_header,
                               ir::StaticId store_sid,
                               ir::StaticId load_sid) const {
  const auto lit = mem_deps.find(loop_header);
  if (lit == mem_deps.end()) return 0.0;
  const auto pit = lit->second.find({store_sid, load_sid});
  if (pit == lit->second.end()) return 0.0;
  const LoopStats* stats = loopStats(loop_header);
  if (stats == nullptr || stats->iterations == 0) return 0.0;
  const double p = static_cast<double>(pit->second.count) /
                   static_cast<double>(stats->iterations);
  return p > 1.0 ? 1.0 : p;
}

const LoopStats* ProfileData::loopStats(ir::StaticId loop_header) const {
  const auto it = loops.find(loop_header);
  return it == loops.end() ? nullptr : &it->second;
}

void ProfileData::projectValues(const std::unordered_set<ir::StaticId>& sids) {
  std::erase_if(values, [&](const auto& entry) {
    return !sids.contains(entry.first);
  });
}

}  // namespace spt::profile
