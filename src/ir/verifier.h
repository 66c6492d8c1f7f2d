// Structural and type verification of modules.
//
// The verifier runs after construction and after every instrumentation pass;
// it is the IR-level analogue of `opt -verify`. It returns a list of
// human-readable errors (empty == valid).
#ifndef CPI_SRC_IR_VERIFIER_H_
#define CPI_SRC_IR_VERIFIER_H_

#include <string>
#include <vector>

#include "src/ir/module.h"

namespace cpi::ir {

std::vector<std::string> VerifyModule(const Module& module);

// Verifies `module`; on errors prints each to stderr as "<context>: <error>"
// and aborts (CPI_CHECK). For pipelines whose input must already be valid.
void VerifyOrDie(const Module& module, const std::string& context);

// Convenience for tests: true iff VerifyModule returns no errors.
bool IsValid(const Module& module);

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_VERIFIER_H_
