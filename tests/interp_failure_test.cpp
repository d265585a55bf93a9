// How an interpreter run fails, pinned. Each failure keeps its exact text,
// and a sink has received exactly the whole blocks before the failing
// instruction: the partial block is dropped, as the machines drop theirs.
//
// Each program loops long enough to fill a few blocks and then runs one
// instruction in its exit block. The faulty variant differs from the sound
// one only in that instruction (or, for the instruction budget, only in the
// limit), so the sound run's trace up to that instruction's record is what
// the faulty run emitted before it failed.
//
// A block without a terminator never reaches the interpreter: building the
// ProgramContext runs the loop analyses, whose CFG refuses it, before any
// record is emitted. The decoded program's kEndOfBlock sentinel, which
// raises "fell off the end of a block", stays as the interpreter's own
// guard.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "support/check.h"
#include "support/error.h"

namespace spt::interp {
namespace {

enum class Fault {
  kDivisionByZero,
  kRemainderOverflow,
  kNullLoad,
  kUnalignedLoad,
  kOutOfBoundsStore,
  kHeapOverflow,
  kFallOffBlock,
  kBudget,
};

/// Records every block it receives.
class BlockRecorder final : public trace::TraceSink {
 public:
  void onBlock(trace::TraceView block) override {
    sizes.push_back(block.size());
    records.insert(records.end(), block.begin(), block.end());
  }
  std::vector<std::size_t> sizes;
  std::vector<trace::Record> records;
};

/// main(): 2500 loop iterations, then the exit block runs the instruction
/// `fault` names, faulty or sound, and returns.
ir::Module faultProgram(Fault fault, bool faulty) {
  using namespace ir;
  Module m("fault");
  const FuncId main_id = m.addFunction("main", 0);
  m.setMainFunc(main_id);
  IrBuilder b(m, main_id);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("loop");
  const BlockId body = b.createBlock("body");
  const BlockId exit = b.createBlock("exit");

  b.setInsertPoint(entry);
  const Reg buf = b.halloc(64);
  const Reg zero = b.iconst(0);
  const Reg one = b.iconst(1);
  const Reg minus_one = b.iconst(-1);
  const Reg min = b.iconst(INT64_MIN);
  const Reg n = b.iconst(2500);
  const Reg i = b.func().newReg();
  b.constTo(i, 0);
  b.br(head);

  b.setInsertPoint(head);
  b.condBr(b.cmpLt(i, n), body, exit);

  b.setInsertPoint(body);
  b.movTo(i, b.add(i, one));
  b.br(head);

  b.setInsertPoint(exit);
  Reg v = one;
  switch (fault) {
    case Fault::kDivisionByZero:
      v = b.div(n, faulty ? zero : one);
      break;
    case Fault::kRemainderOverflow:
      v = b.rem(min, faulty ? minus_one : one);
      break;
    case Fault::kNullLoad:
      v = b.load(faulty ? zero : buf, 0);
      break;
    case Fault::kUnalignedLoad:
      v = b.load(buf, faulty ? 4 : 0);
      break;
    case Fault::kOutOfBoundsStore:
      b.store(buf, faulty ? std::int64_t{1} << 40 : 0, one);
      break;
    case Fault::kHeapOverflow:
      v = b.halloc(faulty ? std::int64_t{1} << 40 : 8);
      break;
    case Fault::kFallOffBlock:
      b.nop();
      if (faulty) {
        m.finalize();
        return m;  // no terminator after the nop
      }
      break;
    case Fault::kBudget:
      break;
  }
  b.ret(v);
  m.finalize();
  return m;
}

/// Decodes and runs `module` into `sink`; returns the failure's text, or
/// "" when the run completes.
std::string runFailure(const ir::Module& module, trace::TraceSink& sink,
                       std::uint64_t max_instrs = RunLimits{}.max_instrs) {
  const support::ScopedCheckThrowMode throwing(true);
  try {
    const ProgramContext ctx(module);
    Memory memory;
    Interpreter(ctx, memory, sink).runMain({}, RunLimits{max_instrs});
  } catch (const support::SptInternalError& e) {
    return e.context();
  } catch (const support::SptBudgetExceeded& e) {
    return e.what();
  }
  return "";
}

/// Index in `records` of the record the faulty run fails on: the first
/// record of the instruction in `fault`'s place, or for the budget the
/// (max_instrs + 1)-th instruction record.
std::size_t failingIndex(const std::vector<trace::Record>& records,
                         ir::StaticId sid, std::uint64_t max_instrs) {
  std::uint64_t instrs = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].kind != trace::RecordKind::kInstr) continue;
    if (sid != ir::kInvalidStaticId ? records[i].sid == sid
                                    : instrs == max_instrs) {
      return i;
    }
    ++instrs;
  }
  ADD_FAILURE() << "the sound run never reaches the failing instruction";
  return records.size();
}

struct Case {
  Fault fault;
  const char* text;
};

class InterpreterFailure : public ::testing::TestWithParam<Case> {};

TEST_P(InterpreterFailure, KeepsItsTextAndHandsOnOnlyTheWholeBlocksBefore) {
  const Case& c = GetParam();
  const std::uint64_t budget = c.fault == Fault::kBudget ? 9000 : 0;

  const ir::Module sound = faultProgram(c.fault, false);
  BlockRecorder reference;
  ASSERT_EQ(runFailure(sound, reference), "");
  // The exit block's first instruction (after the loop-exit marker) is the
  // one the faulty variant changes.
  const ir::Function& main_func = sound.function(sound.mainFunc());
  const ir::StaticId sid =
      c.fault == Fault::kBudget ? ir::kInvalidStaticId
      : c.fault == Fault::kFallOffBlock
          ? main_func.blocks.back().instrs.back().static_id
          : main_func.blocks.back().instrs.front().static_id;
  const std::size_t failing = failingIndex(reference.records, sid, budget);
  ASSERT_GE(failing, 2 * trace::kBlockRecords);
  // A partial block is pending at the failure.
  ASSERT_NE(failing % trace::kBlockRecords, 0u);
  const std::size_t whole =
      c.fault == Fault::kFallOffBlock
          ? 0  // refused before the run starts
          : failing / trace::kBlockRecords * trace::kBlockRecords;

  const ir::Module faulty =
      c.fault == Fault::kBudget ? faultProgram(c.fault, false)
                                : faultProgram(c.fault, true);
  BlockRecorder got;
  EXPECT_EQ(runFailure(faulty, got, budget != 0 ? budget
                                                : RunLimits{}.max_instrs),
            c.text);
  EXPECT_EQ(got.sizes,
            std::vector<std::size_t>(whole / trace::kBlockRecords,
                                     trace::kBlockRecords));
  ASSERT_EQ(got.records.size(), whole);
  EXPECT_EQ(std::memcmp(got.records.data(), reference.records.data(),
                        whole * sizeof(trace::Record)),
            0);
}

std::string faultName(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kNames[] = {
      "DivisionByZero", "RemainderOverflow", "NullLoad",
      "UnalignedLoad",  "OutOfBoundsStore",  "HeapOverflow",
      "FallOffBlock",   "Budget"};
  return kNames[static_cast<int>(info.param.fault)];
}

INSTANTIATE_TEST_SUITE_P(
    Faults, InterpreterFailure,
    ::testing::Values(
        Case{Fault::kDivisionByZero, "division by zero"},
        Case{Fault::kRemainderOverflow, "remainder overflow"},
        Case{Fault::kNullLoad, "null pointer dereference"},
        Case{Fault::kUnalignedLoad, "unaligned 64-bit access"},
        Case{Fault::kOutOfBoundsStore, "memory access out of bounds"},
        Case{Fault::kHeapOverflow, "interpreter heap overflow"},
        Case{Fault::kFallOffBlock, "block missing terminator"},
        Case{Fault::kBudget,
             "interpreted instructions budget exceeded: 9000 > 9000"}),
    faultName);

}  // namespace
}  // namespace spt::interp
