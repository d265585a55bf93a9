#include "spt/pass.h"

#include <chrono>

#include "ir/verifier.h"
#include "support/check.h"

namespace spt::compiler {

profile::ProfileData PassContext::profileRun(
    const std::unordered_set<ir::StaticId>& value_candidates) {
  // svpSuperset analyzes the module with its own AnalysisManager, so the
  // pipeline's analysis cache counters stay those of the passes.
  std::unordered_set<ir::StaticId> tracked = svpSuperset(module);
  tracked.insert(value_candidates.begin(), value_candidates.end());
  profile::ProfileData profile = profiles.run(module, tracked, runner);
  profile.projectValues(value_candidates);
  return profile;
}

PassRemark& PassManager::statFor(std::string_view name) {
  for (PassRemark& s : stats_) {
    if (s.name == name) return s;
  }
  stats_.push_back(PassRemark{std::string(name), 0, 0, 0.0});
  return stats_.back();
}

void PassManager::run(PassContext& ctx) {
  for (const auto& pass : passes_) {
    const auto start = std::chrono::steady_clock::now();
    const bool mutated = pass->run(ctx);
    const auto end = std::chrono::steady_clock::now();

    PassRemark& stat = statFor(pass->name());
    ++stat.invocations;
    stat.mutations += mutated ? 1 : 0;
    stat.wall_ms +=
        std::chrono::duration<double, std::milli>(end - start).count();

    if (mutated) ctx.analyses.invalidateAll();
    if (verify_) {
      const std::vector<ir::Violation> violations =
          ir::verifyModuleDetailed(ctx.module);
      if (!violations.empty()) {
        const std::string msg = "IR verification failed after pass '" +
                                std::string(pass->name()) + "':\n" +
                                ir::formatViolations(violations);
        SPT_CHECK_MSG(violations.empty(), msg.c_str());
      }
    }
  }
}

}  // namespace spt::compiler
