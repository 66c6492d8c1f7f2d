// Baseline protection passes the paper compares against (§5.2, Fig. 5):
// SoftBound-style full memory safety, coarse-grained CFI, and stack cookies.
#include <map>
#include <vector>

#include "src/analysis/classify.h"
#include "src/instrument/passes.h"
#include "src/instrument/rewrite.h"

namespace cpi::instrument {
namespace {

using analysis::Classifier;
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

bool IsMemTransfer(ir::LibFunc f) {
  switch (f) {
    case ir::LibFunc::kMemcpy:
    case ir::LibFunc::kMemset:
    case ir::LibFunc::kMemmove:
    case ir::LibFunc::kStrcpy:
    case ir::LibFunc::kStrncpy:
    case ir::LibFunc::kStrcat:
    case ir::LibFunc::kInputBytes:
      return true;
    default:
      return false;
  }
}

}  // namespace

void ApplySoftBoundRewrites(ir::Module& module) {
  CPI_CHECK(!module.protection().cpi && !module.protection().cps &&
            !module.protection().softbound && !module.protection().ptrenc);

  for (const auto& f : module.functions()) {
    std::map<Value*, Value*> replacements;
    for (const auto& bb : f->blocks()) {
      std::vector<Instruction*> out;
      out.reserve(bb->instructions().size());
      for (Instruction* inst : bb->instructions()) {
        const bool is_load = inst->op() == Opcode::kLoad;
        const bool is_store = inst->op() == Opcode::kStore;
        if (is_load || is_store) {
          Value* addr = inst->operand(is_store ? 1 : 0);
          // Full memory safety: check every non-trivial dereference.
          if (!IsDirectAllocaAccess(addr)) {
            const ir::Type* pointee =
                static_cast<const ir::PointerType*>(addr->type())->pointee();
            const uint64_t size = pointee->IsVoid() ? 8 : pointee->SizeInBytes();
            Instruction* check =
                f->CreateInstruction(Opcode::kIntrinsic, module.types().VoidTy());
            check->set_intrinsic(IntrinsicId::kSbCheck);
            check->AddOperand(addr);
            check->AddOperand(module.GetI64(size));
            out.push_back(check);
          }
          // Pointer-typed values additionally maintain shadow metadata.
          const ir::Type* value_type = is_store ? inst->operand(0)->type() : inst->type();
          if (value_type->IsPointer()) {
            if (is_load) {
              Instruction* repl = f->CreateInstruction(Opcode::kIntrinsic, inst->type());
              repl->set_intrinsic(IntrinsicId::kSbLoad);
              repl->AddOperand(addr);
              out.push_back(repl);
              replacements[inst] = repl;
            } else {
              Instruction* repl =
                  f->CreateInstruction(Opcode::kIntrinsic, module.types().VoidTy());
              repl->set_intrinsic(IntrinsicId::kSbStore);
              repl->AddOperand(addr);
              repl->AddOperand(inst->operand(0));
              out.push_back(repl);
            }
            continue;
          }
          out.push_back(inst);
          continue;
        }
        if (inst->op() == Opcode::kLibCall && IsMemTransfer(inst->lib_func())) {
          inst->set_checked(true);
        }
        out.push_back(inst);
      }
      bb->ReplaceInstructions(std::move(out));
    }
    RemapOperands(*f, replacements);
  }

  module.protection().softbound = true;
}

void ApplyCfiRewrites(ir::Module& module) {
  module.ComputeAddressTaken();
  for (const auto& f : module.functions()) {
    for (const auto& bb : f->blocks()) {
      std::vector<Instruction*> out;
      out.reserve(bb->instructions().size());
      for (Instruction* inst : bb->instructions()) {
        if (inst->op() == Opcode::kIndirectCall) {
          Instruction* check =
              f->CreateInstruction(Opcode::kIntrinsic, inst->operand(0)->type());
          check->set_intrinsic(IntrinsicId::kCfiCheck);
          check->AddOperand(inst->operand(0));
          out.push_back(check);
          inst->SetOperand(0, check);
        }
        out.push_back(inst);
      }
      bb->ReplaceInstructions(std::move(out));
    }
  }
  module.protection().cfi = true;
}

void ApplyStackCookiesRewrites(ir::Module& module) {
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
