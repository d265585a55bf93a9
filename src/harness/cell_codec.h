// Binary payload codec for supervised workers.
//
// A supervised worker reports its finished cell to the parent as one
// supervisor frame (supervisor.h); the frame payload is this codec's
// output. A warm-pool worker nests these bytes inside a pooled reply
// after the cell/rusage header (supervisor.h's PoolReplyHeader — kept
// there, with the frame codec, because this header already depends on
// parallel_sweep.h which depends on supervisor.h). The encoding is a flat
// tagged field list — every JSON-visible field of a SweepRow /
// FaultCampaignCell crosses the pipe, so an isolated run's output is
// field-for-field identical to the in-process path's. The codec is
// deliberately strict: decode fails (rather
// than zero-fills) on a truncated or wrong-tag payload, and the
// supervisor reports that as CellStatus::kProtocolError.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "harness/fault_campaign.h"
#include "harness/parallel_sweep.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace spt::harness {

/// Little helper pair used by the codecs (exposed for tests).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    out_.append(s);
  }
  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  std::string out_;
};

/// Strict reader: every accessor returns false once the payload runs out
/// (and `ok()` latches false); decoders check ok() + fully-consumed.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t* v) { return raw(v, sizeof *v); }
  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool f64(double* v) { return raw(v, sizeof *v); }
  bool boolean(bool* v) {
    std::uint8_t b = 0;
    if (!u8(&b)) return false;
    *v = b != 0;
    return true;
  }
  bool str(std::string* s) {
    std::uint64_t n = 0;
    if (!u64(&n)) return false;
    if (n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    s->assign(bytes_, pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }
  bool ok() const { return ok_; }
  bool atEnd() const { return pos_ == bytes_.size(); }

 private:
  bool raw(void* dst, std::size_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// MachineConfig <-> bytes, every field: the sweep service's requests
/// carry configs this way, and baselineConfigDigest (experiment.h) hashes
/// these bytes.
void encodeMachineConfig(ByteWriter& w, const support::MachineConfig& m);
bool decodeMachineConfig(ByteReader& r, support::MachineConfig* m);

/// A run and its whole sim::MachineResult as one support::wire frame
/// (magic "SPTR", version 2, kind 0): the run's return value, memory hash
/// and instruction count, then a row's machine fields, the per-loop cycle
/// and thread maps, the three cache levels' stats, the bits of
/// branch_mispredict_ratio and the host-side telemetry. A trace cache
/// stores streamed baseline runs in this form (experiment.h).
std::string encodeMachineResult(const sim::MachineResult& result,
                                const interp::RunResult& run);
/// nullopt unless `bytes` are one complete, checksummed version-2 frame
/// whose payload decodes exactly; then fills a non-null `run` too.
std::optional<sim::MachineResult> decodeMachineResult(
    const std::string& bytes, interp::RunResult* run = nullptr);

/// A finished trace::ForkTable as one support::wire frame (magic "SPTF",
/// version 1, kind 0): the record count and container checksum of the
/// trace it belongs to (trace::MappedTrace::summary()), then each fork's
/// record index and start-point. A trace cache stores an SPT trace's fork
/// table this way beside the trace (trace_cache.h).
std::string encodeForkTable(const trace::ForkTable& forks,
                            const trace::TraceFileSummary& trace);
/// nullopt unless `bytes` are one complete, checksummed version-1 frame
/// bound to `trace`, the summary of `records`, whose forks lie strictly
/// increasing inside the trace, each on a kSptFork instruction record with
/// a start of kNoStart or a record after it. Reads the records at the
/// forks only.
std::optional<trace::ForkTable> decodeForkTable(
    const std::string& bytes, trace::TraceView records,
    const trace::TraceFileSummary& trace);

/// SweepRow <-> payload (tag 'S'). Covers benchmark, config, status,
/// diagnostic, both machines' cycles/instrs/breakdown, the SPT machine's
/// thread and fault stats, digests, and the extra-metric map — everything
/// writeSweepJson consumes; the durable log stores these bytes as its row
/// records. Worker diagnostics are parent-side and never cross the pipe.
std::string encodeRow(const SweepRow& row);
bool decodeRow(const std::string& payload, SweepRow* row);

/// FaultCampaignCell <-> payload (tag 'F').
std::string encodeRow(const FaultCampaignCell& cell);
bool decodeRow(const std::string& payload, FaultCampaignCell* cell);

/// A grid row type's name, for decode diagnostics.
template <typename Row>
inline constexpr const char* kRowName = "row";
template <>
inline constexpr const char* kRowName<SweepRow> = "sweep row";
template <>
inline constexpr const char* kRowName<FaultCampaignCell> = "campaign cell";

}  // namespace spt::harness
