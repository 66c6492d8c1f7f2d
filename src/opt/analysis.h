// Local analyses shared by the optimization passes: alloca escape analysis
// and register-metadata provenance.
//
// Both lean on the use-lists rebuilt by Module::RecomputeUses(); the pass
// manager guarantees they are current before any pass runs.
#ifndef CPI_SRC_OPT_ANALYSIS_H_
#define CPI_SRC_OPT_ANALYSIS_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/function.h"

namespace cpi::opt {

// Simple escape analysis for one alloca: the object's address escapes unless
// every use is a direct scalar access — the address operand of a load, or
// the address (not value!) operand of a store. Field/index arithmetic,
// libcalls, calls, casts and intrinsics all count as escapes; so does
// storing the address itself somewhere.
struct AllocaUses {
  bool escapes = false;
  std::vector<ir::Instruction*> loads;   // kLoad through the alloca
  std::vector<ir::Instruction*> stores;  // kStore with the alloca as address
};

AllocaUses AnalyzeAllocaUses(const ir::Instruction* alloca);

// Conservative static check that a value's register never carries based-on
// metadata (vm::RegMeta::None()) no matter what the program does. Forwarding
// such a value in place of a plain load is exact: a plain load also produces
// a metadata-free register, so uses observe an identical (value, meta) pair.
//
// The VM's metadata propagation rules (machine.cc) drive the lattice:
// comparisons, non-add/sub arithmetic, float ops, narrowing truncations,
// int<->float casts, input words and plain loads all produce RegMeta::None;
// add/sub propagate a safe operand's metadata, so they qualify only when
// both operands qualify. Everything else (allocas, address producers, safe
// loads, calls, casts that forward metadata) is assumed tainted.
class MetaNoneAnalysis {
 public:
  bool DefinitelyNoMeta(const ir::Value* v);

 private:
  std::unordered_map<const ir::Value*, int> cache_;  // 0 in-progress, 1 yes, -1 no
};

// Drops `dead` from the function's blocks. The caller has already called
// DropOperandUses() on (and ReplaceAllUsesWith() away from) every member.
void EraseInstructions(ir::Function& function,
                       const std::unordered_set<const ir::Instruction*>& dead);

// True for every instruction that can write program memory — regular
// region, safe region, safe pointer store or shadow metadata: stores, store
// intrinsics, libcalls whose row says they write memory (ir::Info),
// and calls (the callee may write). The single definition every pass's kill
// logic shares: an entry missing here silently breaks the O0/O1
// differential contract under attack.
bool WritesMemory(const ir::Instruction* inst);

}  // namespace cpi::opt

#endif  // CPI_SRC_OPT_ANALYSIS_H_
