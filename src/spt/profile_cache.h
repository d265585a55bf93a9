// Memoizes ProfileRunner invocations across pipeline attempts.
//
// A profiling run is a pure function of (module structure, value-profiled
// sid set): the interpreter is deterministic and the sid set only adds
// value instrumentation. The pipeline requests each module's SVP superset
// (PassContext::profileRun), so every request for one module structure,
// the deny-unroll restart's included, is served by one run. Keys are
// (Module::structuralDigest(), sorted sids), so finalize() churn never
// causes spurious misses.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "profile/profile_data.h"
#include "spt/driver.h"

namespace spt::compiler {

class ProfileCache {
 public:
  /// Returns the profile for (module, value_candidates), invoking `runner`
  /// only on a cache miss.
  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates,
      ProfileRunner& runner);

  std::uint64_t hits() const { return hits_; }
  /// Misses == actual ProfileRunner::run invocations through this cache.
  std::uint64_t misses() const { return misses_; }

 private:
  using Key = std::pair<std::uint64_t, std::vector<ir::StaticId>>;

  std::map<Key, profile::ProfileData> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace spt::compiler
