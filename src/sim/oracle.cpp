#include "sim/oracle.h"

#include "support/check.h"
#include "support/error.h"

namespace spt::sim {

Oracle::Oracle(const ir::Module& module, const DecodeTable& decode,
               support::OracleMode mode)
    : decode_(decode), mode_(mode), ref_(module) {
  ref_.enableDigest();
}

void Oracle::advance(trace::TraceView records) {
  for (const trace::Record& r : records) {
    if (r.kind == trace::RecordKind::kInstr) {
      ref_.apply(r, *decode_[r.sid].instr);
    }
  }
  ref_pos_ += records.size();
}

void Oracle::checkAt(std::size_t pos, const ArchState& machine_arch,
                     const char* boundary) {
  SPT_CHECK_MSG(pos == ref_pos_, "oracle reference is not at the check");
  ++checks_run_;
  if (machine_arch.streamDigest() != ref_.streamDigest()) {
    std::string diff = "(digest mode; re-run with the deep oracle to name "
                       "the first divergent register/address)";
    if (mode_ == support::OracleMode::kDeep) {
      machine_arch.deepEquals(ref_, &diff);
    }
    throw support::SptOracleDivergence(pos, boundary, diff);
  }
  if (mode_ == support::OracleMode::kDeep) {
    std::string diff;
    if (!machine_arch.deepEquals(ref_, &diff)) {
      throw support::SptOracleDivergence(pos, boundary, diff,
                                         /*deep=*/true);
    }
  }
}

std::uint64_t Oracle::sequentialDigest(const ir::Module& module,
                                       trace::TraceView trace) {
  ArchState arch(module);
  arch.enableDigest();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::Record& r = trace[i];
    if (r.kind != trace::RecordKind::kInstr) continue;
    arch.apply(r);
  }
  return arch.streamDigest();
}

}  // namespace spt::sim
