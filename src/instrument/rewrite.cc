#include "src/instrument/rewrite.h"

namespace cpi::instrument {

using ir::Instruction;
using ir::Opcode;
using ir::Value;

Instruction* FunctionRewriter::Emit(ir::IntrinsicId id, const ir::Type* type,
                                    std::initializer_list<Value*> operands) {
  Instruction* inst = function_.CreateInstruction(Opcode::kIntrinsic, type);
  inst->set_intrinsic(id);
  for (Value* v : operands) {
    inst->AddOperand(v);
  }
  out_.push_back(inst);
  return inst;
}

void FunctionRewriter::Add(Instruction* inst, const SiteRewrite& site) {
  const bool is_load = inst->op() == Opcode::kLoad;
  const bool is_store = inst->op() == Opcode::kStore;
  CPI_CHECK((!site.check && !site.replace) || is_load || is_store);
  CPI_CHECK(!site.call_check || inst->op() == Opcode::kIndirectCall);
  CPI_CHECK(!site.checked_libcall || inst->op() == Opcode::kLibCall);
  const ir::Type* void_ty = module_.types().VoidTy();

  if (site.check) {
    Value* addr = inst->operand(is_store ? 1 : 0);
    const ir::Type* pointee = static_cast<const ir::PointerType*>(addr->type())->pointee();
    const uint64_t size = pointee->IsVoid() ? 8 : pointee->SizeInBytes();
    Emit(*site.check, void_ty, {addr, module_.GetI64(size)});
  }
  if (site.replace && is_load) {
    Instruction* repl = Emit(*site.replace, inst->type(), {inst->operand(0)});
    repl->set_name(inst->name());
    replacements_[inst] = repl;
    return;
  }
  if (site.replace) {
    Emit(*site.replace, void_ty, {inst->operand(1), inst->operand(0)});
    return;
  }
  if (site.call_check) {
    Value* target = inst->operand(0);
    inst->SetOperand(0, Emit(*site.call_check, target->type(), {target}));
  }
  if (site.checked_libcall) {
    inst->set_checked(true);
  }
  out_.push_back(inst);
}

void FunctionRewriter::EndBlock(ir::BasicBlock& block) {
  block.ReplaceInstructions(std::move(out_));
  out_.clear();
}

void FunctionRewriter::RemapReplacedLoads() {
  if (replacements_.empty()) {
    return;
  }
  for (const auto& bb : function_.blocks()) {
    for (Instruction* inst : bb->instructions()) {
      for (size_t i = 0; i < inst->operands().size(); ++i) {
        auto it = replacements_.find(inst->operand(i));
        if (it != replacements_.end()) {
          inst->SetOperand(i, it->second);
        }
      }
    }
  }
}

}  // namespace cpi::instrument
