// The loop episodes of a trace, read from its kIterBegin/kLoopExit
// records: the tests that check loop structure share it.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "ir/module.h"
#include "trace/trace.h"

namespace spt::testing {

/// One dynamic execution of a loop in one frame: from its header's first
/// kIterBegin to its kLoopExit.
struct LoopEpisode {
  ir::StaticId header_sid = ir::kInvalidStaticId;
  trace::FrameId frame = 0;
  std::vector<std::size_t> iter_begins;  // record indices of kIterBegin
  std::size_t exit_index = 0;  // index of the kLoopExit (or trace end)
};

/// The episodes of `trace` in the order they open. A kIterBegin of a
/// (frame, header) with no open episode opens one; a kLoopExit closes it;
/// episodes still open at the end exit at trace.size().
inline std::vector<LoopEpisode> loopEpisodes(trace::TraceView trace) {
  std::vector<LoopEpisode> episodes;
  std::map<std::pair<trace::FrameId, ir::StaticId>, std::size_t> open;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::Record& r = trace[i];
    const std::pair<trace::FrameId, ir::StaticId> key{r.frame, r.sid};
    if (r.kind == trace::RecordKind::kIterBegin) {
      const auto [it, opened] = open.try_emplace(key, episodes.size());
      if (opened) episodes.push_back({r.sid, r.frame, {}, 0});
      episodes[it->second].iter_begins.push_back(i);
    } else if (r.kind == trace::RecordKind::kLoopExit) {
      const auto it = open.find(key);
      if (it == open.end()) continue;
      episodes[it->second].exit_index = i;
      open.erase(it);
    }
  }
  for (const auto& [key, e] : open) {
    (void)key;
    episodes[e].exit_index = trace.size();
  }
  return episodes;
}

}  // namespace spt::testing
