// Textual dump of the SPT mini-IR (diagnostics, golden tests).
#pragma once

#include <ostream>
#include <string>

#include "ir/module.h"

namespace spt::ir {

/// A block's label, or "B<id>" for an unlabeled block ("B?" for
/// kInvalidBlock).
std::string blockName(const Function& func, BlockId block);

/// Prints one instruction, e.g. "r5 = add r3, r4" or "condbr r1, B2, B3".
void printInstr(std::ostream& os, const Module& module, const Instr& instr);

/// Prints a whole function with block labels.
void printFunction(std::ostream& os, const Module& module,
                   const Function& func);

/// Prints every function in the module.
void printModule(std::ostream& os, const Module& module);

/// Convenience: printFunction into a string.
std::string functionToString(const Module& module, const Function& func);

}  // namespace spt::ir
