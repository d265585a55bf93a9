// Dynamic trace records.
//
// The interpreter executes a program *sequentially* and emits one record per
// dynamic instruction plus loop markers. The SPT simulator is trace-driven
// exactly as the paper's is (Section 5.1): it replays this sequential trace
// on two pipelines. Records carry enough information (result values, memory
// addresses, overwritten memory values, branch outcomes) for the simulator
// to emulate speculative execution exactly.
//
// Layout contract: Record is the trace container's on-disk record
// (trace_io.h). The field order below packs to exactly 40 bytes with no
// padding holes, little-endian on every supported target — so a trace file
// is mmap-able as a raw Record array (zero-copy). The static_asserts below
// pin the contract; do not reorder fields without bumping the trace format
// version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ir/instr.h"

namespace spt::trace {

enum class RecordKind : std::uint8_t {
  kInstr,      // a dynamic instruction (including spt_fork / spt_kill)
  kIterBegin,  // control reached a loop header (entry or back edge)
  kLoopExit,   // control left a loop (exit edge or frame return)
};

/// Dynamic frame id; frames are numbered in call order, starting at 0 for
/// the main function's frame. Registers are frame-local.
using FrameId = std::uint32_t;

struct Record {
  RecordKind kind = RecordKind::kInstr;
  ir::Opcode op = ir::Opcode::kNop;
  /// kCondBr: true if target0 (the "taken" side) was followed.
  bool taken = false;

  /// Reserved; always zero (keeps the struct hole-free and the on-disk byte
  /// stream canonical — readers reject a nonzero pad).
  std::uint8_t pad = 0;

  /// kInstr: static id of the instruction.
  /// kIterBegin/kLoopExit: static id of the first instruction of the loop
  /// header block (the loop's stable identity within a module).
  ir::StaticId sid = ir::kInvalidStaticId;

  /// Frame the instruction executed in (for markers: the frame the loop
  /// runs in).
  FrameId frame = 0;

  /// kCall: the callee's new frame id.
  FrameId callee_frame = 0;

  /// kInstr with a destination: the architectural result value.
  /// kIterBegin: the 0-based iteration index within this loop episode.
  std::int64_t value = 0;

  /// kLoad/kStore: the effective byte address.
  std::uint64_t mem_addr = 0;

  /// kStore: the value overwritten in memory (enables reconstruction of the
  /// fork-time memory image during speculative emulation).
  std::int64_t mem_old = 0;
};

// The zero-copy contract (see header comment).
static_assert(sizeof(Record) == 40, "Record must be the 40-byte disk layout");
static_assert(std::is_trivially_copyable_v<Record>);
static_assert(offsetof(Record, kind) == 0);
static_assert(offsetof(Record, op) == 1);
static_assert(offsetof(Record, taken) == 2);
static_assert(offsetof(Record, pad) == 3);
static_assert(offsetof(Record, sid) == 4);
static_assert(offsetof(Record, frame) == 8);
static_assert(offsetof(Record, callee_frame) == 12);
static_assert(offsetof(Record, value) == 16);
static_assert(offsetof(Record, mem_addr) == 24);
static_assert(offsetof(Record, mem_old) == 32);

}  // namespace spt::trace
