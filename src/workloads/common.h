// Shared IR-emission helpers for workload generators.
#ifndef CPI_SRC_WORKLOADS_COMMON_H_
#define CPI_SRC_WORKLOADS_COMMON_H_

#include <string>
#include <vector>

#include "src/ir/builder.h"

namespace cpi::workloads {

// Emits a canonical counted loop:
//
//   store start -> slot
//   br header
// header:
//   i = load slot ; condbr (i < limit), body, exit
// body:
//   ...            <- builder insert point after BeginLoop
//   (EndLoop: store i+step -> slot ; br header; insert point moves to exit)
//
// `slot` must be an i64 alloca created in the entry block (so nested loops
// do not grow the stack frame per iteration).
struct LoopBlocks {
  ir::BasicBlock* header = nullptr;
  ir::BasicBlock* body = nullptr;
  ir::BasicBlock* exit = nullptr;
  ir::Value* slot = nullptr;
  ir::Value* index = nullptr;  // valid inside the body
};

LoopBlocks BeginLoop(ir::IRBuilder& b, ir::Function* f, ir::Value* slot, ir::Value* start,
                     ir::Value* limit, const std::string& tag);
void EndLoop(ir::IRBuilder& b, const LoopBlocks& loop, uint64_t step = 1);

// Defines a global i64 `checksum` accumulator and returns it; workloads fold
// results into it and output it at the end so that differential tests can
// compare behaviour across protection levels.
ir::GlobalVariable* MakeChecksumGlobal(ir::Module& m);

// checksum = checksum * 31 + value
void AccumulateChecksum(ir::IRBuilder& b, ir::GlobalVariable* checksum, ir::Value* value);

// output(load checksum); ret 0   -- standard workload epilogue.
void EmitChecksumAndRet(ir::IRBuilder& b, ir::GlobalVariable* checksum);

// --- Table 4 fragments --------------------------------------------------------
// The web-server scenarios of Table 4 (system.cc) and their multi-worker
// re-runs (concurrent.cc) are built from these, so a concurrent server differs
// from its single-threaded scenario only in how work is split across workers.

// The constant page the static-page servers serve: kStaticPageBytes chars,
// NUL-terminated.
inline constexpr uint64_t kStaticPageBytes = 2048;
ir::GlobalVariable* MakeStaticPage(ir::Module& m);

// Four response formatters `<prefix>0` .. `<prefix>3` of type `ty`
// (i64(char* buf, i64 req)): handler k writes `len` chars
// '0' + ((i * (stride * k + offset) + req) & 63) into buf, NUL-terminates it
// and returns strlen(buf).
std::vector<ir::Function*> EmitFormatHandlers(ir::Module& m, ir::IRBuilder& b,
                                              const ir::FunctionType* ty,
                                              const std::string& prefix, uint64_t len,
                                              uint64_t stride, uint64_t offset);

// The handler-registration pick: fns[index & 3] as a select chain (branch-free,
// so registration loops stay straight-line).
ir::Value* SelectOfFour(ir::IRBuilder& b, ir::Value* index,
                        const std::vector<ir::Function*>& fns);

// The boxed-value runtime of the dynamic-page scenario, modelling the Python
// interpreter: `pyobj` boxes { tag, payload: void* } whose payload is a
// universal pointer, a `locals` table of box pointers, a 16-entry `optable`,
// and the functions box_new(tag, v), box_val(slot) and four opcode handlers
// pyop_k. With `slice` == 0 the handlers take (pc) and address all of
// `locals`; otherwise they take (base, pc) and stay inside the `slice` slots
// starting at base.
struct BoxRuntime {
  ir::GlobalVariable* optable = nullptr;
  ir::GlobalVariable* locals = nullptr;
  ir::Function* box_new = nullptr;
  ir::Function* box_val = nullptr;
  std::vector<ir::Function*> ops;
};
BoxRuntime EmitBoxRuntime(ir::Module& m, ir::IRBuilder& b, uint64_t n_slots, uint64_t slice);

// optable[4 * i + k] = pyop_k for i, k in 0..3, as a loop over `i_slot`.
void EmitOpTableInit(ir::IRBuilder& b, ir::Function* f, ir::Value* i_slot,
                     const BoxRuntime& rt);

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_COMMON_H_
