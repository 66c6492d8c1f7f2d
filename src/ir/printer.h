// Textual rendering of modules and functions, in an
// LLVM-flavoured format. Used for debugging, golden tests, and inspecting
// what the instrumentation passes did.
#ifndef CPI_SRC_IR_PRINTER_H_
#define CPI_SRC_IR_PRINTER_H_

#include <string>

#include "src/ir/module.h"

namespace cpi::ir {

std::string PrintModule(const Module& module);
std::string PrintFunction(const Function& function);

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_PRINTER_H_
