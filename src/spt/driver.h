// The two-pass SPT compilation driver (paper Section 4.1).
//
// The driver owns the outer control the pipeline cannot express as a pass:
// it keeps a pristine copy of the module, runs the pass pipeline (pass.h)
// once, and — when unrolling was applied to loops that pass 2 then
// rejected — restarts compilation from the pristine module with those
// loops on an unroll deny-list, since preprocessing must not degrade loops
// that end up untransformed. Profiling runs are memoized across both
// attempts through a ProfileCache, one run per module structure, so the
// restart's profiles are cache hits rather than more interpreter runs.
#pragma once

#include <unordered_set>

#include "profile/profile_data.h"
#include "spt/options.h"
#include "spt/plan.h"
#include "spt/remarks.h"

namespace spt::compiler {

/// How the driver obtains profiles: the harness runs the interpreter over
/// the workload's input; tests may stub it.
class ProfileRunner {
 public:
  virtual ~ProfileRunner() = default;
  virtual profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) = 0;
};

class SptCompiler {
 public:
  explicit SptCompiler(CompilerOptions options = {})
      : options_(options) {}

  const CompilerOptions& options() const { return options_; }

  /// Runs the full pipeline (including the deny-unroll restart when
  /// needed), transforming `module` in place (the caller keeps a pristine
  /// copy as the baseline). The module is finalized and verified on
  /// return. With non-null `remarks`, fills the structured per-loop
  /// decision log (remarks.h) for the compile.
  SptPlan compile(ir::Module& module, ProfileRunner& runner,
                  CompilationRemarks* remarks = nullptr);

 private:
  CompilerOptions options_;
};

}  // namespace spt::compiler
