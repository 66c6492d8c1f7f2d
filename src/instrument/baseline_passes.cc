// Baseline protection passes the paper compares against (§5.2, Fig. 5):
// SoftBound-style full memory safety, coarse-grained CFI, and stack cookies.
#include "src/instrument/passes.h"
#include "src/instrument/rewrite.h"

namespace cpi::instrument {
namespace {

using ir::Instruction;
using ir::IntrinsicId;
using ir::Opcode;
using ir::Value;

// A dereference directly through an alloca result (a scalar local accessed at
// a constant location) is statically safe; even SoftBound's own optimisations
// drop those checks. Everything else is checked.
bool IsDirectAllocaAccess(const Value* addr) {
  return addr->value_kind() == ir::ValueKind::kInstruction &&
         static_cast<const Instruction*>(addr)->op() == Opcode::kAlloca;
}

SiteRewrite SoftBoundSite(const Instruction& inst) {
  SiteRewrite site;
  const bool is_store = inst.op() == Opcode::kStore;
  if (inst.op() == Opcode::kLoad || is_store) {
    // Full memory safety: check every non-trivial dereference.
    if (!IsDirectAllocaAccess(inst.operand(is_store ? 1 : 0))) {
      site.check = IntrinsicId::kSbCheck;
    }
    // Pointer-typed values additionally maintain shadow metadata.
    const ir::Type* value_type = is_store ? inst.operand(0)->type() : inst.type();
    if (value_type->IsPointer()) {
      site.replace = is_store ? IntrinsicId::kSbStore : IntrinsicId::kSbLoad;
    }
  } else if (inst.op() == Opcode::kLibCall) {
    site.checked_libcall = ir::IsMemTransfer(inst.lib_func());
  }
  return site;
}

SiteRewrite CfiSite(const Instruction& inst) {
  SiteRewrite site;
  if (inst.op() == Opcode::kIndirectCall) {
    site.call_check = IntrinsicId::kCfiCheck;
  }
  return site;
}

}  // namespace

void ApplySoftBoundRewrites(ir::Module& module, const PassOptions&) {
  CPI_CHECK(!module.protection().cpi && !module.protection().cps &&
            !module.protection().softbound && !module.protection().ptrenc);
  for (const auto& f : module.functions()) {
    RewriteFunction(module, *f, SoftBoundSite);
  }
  module.protection().softbound = true;
}

void ApplyCfiRewrites(ir::Module& module, const PassOptions&) {
  module.ComputeAddressTaken();
  for (const auto& f : module.functions()) {
    RewriteFunction(module, *f, CfiSite);
  }
  module.protection().cfi = true;
}

void ApplyStackCookiesRewrites(ir::Module& module, const PassOptions&) {
  // The compiler heuristic of -fstack-protector: protect functions with
  // character-array locals of at least 8 bytes.
  for (const auto& f : module.functions()) {
    bool needs_cookie = false;
    for (const auto& bb : f->blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        if (inst->op() != Opcode::kAlloca || !inst->extra_type()->IsArray()) {
          continue;
        }
        const auto* arr = static_cast<const ir::ArrayType*>(inst->extra_type());
        if (arr->element()->IsInt() &&
            static_cast<const ir::IntType*>(arr->element())->bits() == 8 &&
            arr->SizeInBytes() >= 8) {
          needs_cookie = true;
        }
      }
    }
    f->set_has_stack_cookie(needs_cookie);
  }
  module.protection().stack_cookies = true;
}

}  // namespace cpi::instrument
