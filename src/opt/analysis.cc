#include "src/opt/analysis.h"

#include "src/ir/type.h"

namespace cpi::opt {

AllocaUses AnalyzeAllocaUses(const ir::Instruction* alloca) {
  CPI_CHECK(alloca->op() == ir::Opcode::kAlloca);
  AllocaUses out;
  for (ir::Instruction* user : alloca->users()) {
    switch (user->op()) {
      case ir::Opcode::kLoad:
        if (user->operand(0) == alloca) {
          out.loads.push_back(user);
          continue;
        }
        break;
      case ir::Opcode::kStore:
        // Address operand only; storing the alloca's address as a value is
        // an escape.
        if (user->operand(1) == alloca && user->operand(0) != alloca) {
          out.stores.push_back(user);
          continue;
        }
        break;
      default:
        break;
    }
    out.escapes = true;
  }
  return out;
}

bool MetaNoneAnalysis::DefinitelyNoMeta(const ir::Value* v) {
  using ir::BinOp;
  using ir::CastKind;
  using ir::Opcode;
  using ir::ValueKind;

  switch (v->value_kind()) {
    case ValueKind::kConstInt:
    case ValueKind::kConstFloat:
    case ValueKind::kConstNull:
      return true;  // constants evaluate with RegMeta::None
    case ValueKind::kArgument:
      return false;  // callers may pass pointers with provenance
    case ValueKind::kInstruction:
      break;
  }

  auto it = cache_.find(v);
  if (it != cache_.end()) {
    return it->second == 1;  // an in-progress cycle resolves pessimistically
  }
  cache_[v] = 0;

  const auto* inst = static_cast<const ir::Instruction*>(v);
  bool none = false;
  switch (inst->op()) {
    case Opcode::kLoad:
    case Opcode::kInput:
      none = true;  // the VM sets RegMeta::None on both
      break;
    case Opcode::kBinOp: {
      const BinOp op = inst->binop();
      if (op == BinOp::kAdd || op == BinOp::kSub) {
        // Add/sub propagate a safe operand's metadata.
        none = DefinitelyNoMeta(inst->operand(0)) && DefinitelyNoMeta(inst->operand(1));
      } else {
        none = true;  // every other binop produces RegMeta::None
      }
      break;
    }
    case Opcode::kCast:
      switch (inst->cast_kind()) {
        case CastKind::kIntToFloat:
        case CastKind::kFloatToInt:
          none = true;
          break;
        case CastKind::kTrunc:
          // A truncation below 64 bits strips metadata in the VM.
          none = (inst->type()->IsInt() &&
                  static_cast<const ir::IntType*>(inst->type())->bits() < 64) ||
                 DefinitelyNoMeta(inst->operand(0));
          break;
        default:
          none = DefinitelyNoMeta(inst->operand(0));  // casts forward metadata
          break;
      }
      break;
    case Opcode::kSelect:
      none = DefinitelyNoMeta(inst->operand(1)) && DefinitelyNoMeta(inst->operand(2));
      break;
    case Opcode::kLibCall:
      // i64 results carry RegMeta::None; the copy routines return the dst
      // pointer with its metadata.
      none = !ir::Info(inst->lib_func()).returns_dst;
      break;
    default:
      none = false;
      break;
  }
  cache_[v] = none ? 1 : -1;
  return none;
}

bool WritesMemory(const ir::Instruction* inst) {
  using ir::Opcode;
  switch (inst->op()) {
    case Opcode::kStore:
    case Opcode::kCall:
    case Opcode::kIndirectCall:
    // Thread ops are scheduling points: while the current thread is parked,
    // any other thread may write memory, so they clobber like calls do.
    case Opcode::kSpawn:
    case Opcode::kJoin:
    case Opcode::kYield:
      return true;
    case Opcode::kLibCall:
      return ir::IsMemTransfer(inst->lib_func());
    case Opcode::kIntrinsic:
      return ir::Info(inst->intrinsic()).shape == ir::IntrinsicShape::kStore;
    default:
      return false;
  }
}

void EraseInstructions(ir::Function& function,
                       const std::unordered_set<const ir::Instruction*>& dead) {
  if (dead.empty()) {
    return;
  }
  for (const auto& bb : function.blocks()) {
    bool hit = false;
    for (const ir::Instruction* inst : bb->instructions()) {
      hit = hit || dead.count(inst) > 0;
    }
    if (!hit) {
      continue;
    }
    std::vector<ir::Instruction*> kept;
    kept.reserve(bb->instructions().size());
    for (ir::Instruction* inst : bb->instructions()) {
      if (dead.count(inst) == 0) {
        kept.push_back(inst);
      }
    }
    bb->ReplaceInstructions(std::move(kept));
  }
}

}  // namespace cpi::opt
