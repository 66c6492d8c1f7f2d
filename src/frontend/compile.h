// Compiling the Appendix-A C subset to IR.
//
// The grammar follows Fig. 6 of the paper, extended with what real programs
// in the evaluation need: function definitions, control flow (if/while/for),
// arrays, string literals, the libc routines the analysis special-cases
// (strcpy & co.), and function-pointer declarations `T (*name)(params...)`.
//
//   struct handler { char name[16]; int (*fn)(int); };
//   int dispatch(struct handler* h, int arg) { return (*h->fn)(arg); }
//
// `input()` / `output(e)` map to the VM's observable I/O; `malloc`/`free`
// are the heap interface of the formal model.
//
// The libc routines are typed by their rows in ir/intrinsics.h: a call with
// the wrong argument count, or an integer where a pointer belongs (or the
// reverse), is a compile error. The integer literal 0 is C's null pointer
// constant and converts to any pointer type in assignments, comparisons,
// returns and call arguments; any other integer needs a cast.
#ifndef CPI_SRC_FRONTEND_COMPILE_H_
#define CPI_SRC_FRONTEND_COMPILE_H_

#include <memory>
#include <string>

#include "src/ir/module.h"

namespace cpi::frontend {

struct CompileResult {
  std::unique_ptr<ir::Module> module;  // null on error
  std::string error;

  bool ok() const { return module != nullptr; }
};

CompileResult CompileC(const std::string& source, const std::string& module_name = "program");

}  // namespace cpi::frontend

#endif  // CPI_SRC_FRONTEND_COMPILE_H_
