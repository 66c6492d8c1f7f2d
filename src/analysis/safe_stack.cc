#include "src/analysis/safe_stack.h"

#include <map>
#include <vector>

namespace cpi::analysis {

using ir::ArrayType;
using ir::Instruction;
using ir::Opcode;
using ir::PointerType;
using ir::Value;

namespace {

// An object is safe iff every value derived from its address (via constant,
// in-bounds field/index steps) is used only as the address operand of a load
// or store. Any other use — being stored as data, passed to a call, cast,
// returned, indexed dynamically — makes the object unsafe.
class EscapeWalker {
 public:
  explicit EscapeWalker(const ir::Function& function) {
    for (const auto& bb : function.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        for (Value* op : inst->operands()) {
          if (IsAllocaDerivable(op)) {
            users_[op].push_back(inst);
          }
        }
      }
    }
  }

  bool IsSafe(const Instruction* alloca_inst) {
    return DerivedUsesAreSafe(alloca_inst);
  }

 private:
  bool DerivedUsesAreSafe(const Value* derived) {
    auto it = users_.find(const_cast<Value*>(derived));
    if (it == users_.end()) {
      return true;  // no uses
    }
    for (const Instruction* user : it->second) {
      switch (user->op()) {
        case Opcode::kLoad:
          // Always the address operand: safe access.
          break;
        case Opcode::kStore:
          // Safe only when used as the address, not as the stored value.
          if (user->operand(0) == derived) {
            return false;  // address escapes into memory
          }
          break;
        case Opcode::kFieldAddr:
          // Constant offset into the object; recurse into the derived value.
          if (!DerivedUsesAreSafe(user)) {
            return false;
          }
          break;
        case Opcode::kIndexAddr: {
          // Safe only for a constant, in-bounds index into an array object.
          const Value* index = user->operand(1);
          if (index->value_kind() != ir::ValueKind::kConstInt) {
            return false;
          }
          const uint64_t c = static_cast<const ir::ConstantInt*>(index)->value();
          const auto* ptr_type = static_cast<const PointerType*>(user->operand(0)->type());
          if (!ptr_type->pointee()->IsArray()) {
            return false;  // raw pointer arithmetic
          }
          const auto* arr = static_cast<const ArrayType*>(ptr_type->pointee());
          if (c >= arr->count()) {
            return false;
          }
          if (!DerivedUsesAreSafe(user)) {
            return false;
          }
          break;
        }
        default:
          // Call/libcall argument, cast, select, return, output, intrinsic,
          // comparison... — address escapes or is used non-trivially.
          return false;
      }
    }
    return true;
  }

  // The only values DerivedUsesAreSafe looks up: an alloca and the
  // field/index steps that may derive an address from one.
  static bool IsAllocaDerivable(const Value* v) {
    if (v->value_kind() != ir::ValueKind::kInstruction) {
      return false;
    }
    const Opcode op = static_cast<const Instruction*>(v)->op();
    return op == Opcode::kAlloca || op == Opcode::kFieldAddr || op == Opcode::kIndexAddr;
  }

  // Users of each alloca-derivable operand, in block order.
  std::map<Value*, std::vector<Instruction*>> users_;
};

}  // namespace

SafeStackResult AnalyzeSafeStack(const ir::Function& function) {
  SafeStackResult result;
  EscapeWalker walker(function);
  for (const auto& bb : function.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      if (inst->op() != Opcode::kAlloca) {
        continue;
      }
      ++result.total_allocas;
      if (!walker.IsSafe(inst)) {
        result.unsafe_allocas.insert(inst);
      }
    }
  }
  return result;
}

}  // namespace cpi::analysis
