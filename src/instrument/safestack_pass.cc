// The safe stack pass (§3.2.4).
#include "src/analysis/safe_stack.h"
#include "src/instrument/passes.h"

namespace cpi::instrument {

void ApplySafeStack(ir::Module& module, const PassOptions&) {
  for (const auto& f : module.functions()) {
    const analysis::SafeStackResult result = analysis::AnalyzeSafeStack(*f);
    for (const auto& bb : f->blocks()) {
      for (ir::Instruction* inst : bb->instructions()) {
        if (inst->op() != ir::Opcode::kAlloca) {
          continue;
        }
        inst->set_stack_kind(result.unsafe_allocas.count(inst) > 0 ? ir::StackKind::kUnsafe
                                                                   : ir::StackKind::kSafe);
      }
    }
    f->set_needs_unsafe_frame(result.NeedsUnsafeFrame());
  }
  module.protection().safe_stack = true;
}

void FinalizeModule(ir::Module& module) {
  for (const auto& f : module.functions()) {
    f->RenumberValues();
  }
}

}  // namespace cpi::instrument
