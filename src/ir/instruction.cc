#include "src/ir/instruction.h"

namespace cpi::ir {

void Value::ReplaceAllUsesWith(Value* replacement) {
  CPI_CHECK(replacement != nullptr);
  CPI_CHECK(replacement != this);
  // Move the whole list out first: rewriting operand slots directly keeps
  // RemoveUse's strict bookkeeping out of the loop.
  std::vector<Instruction*> users = std::move(users_);
  users_.clear();
  for (Instruction* user : users) {
    bool rewired = false;
    for (size_t i = 0; i < user->operands_.size(); ++i) {
      if (user->operands_[i] == this) {
        user->operands_[i] = replacement;
        replacement->AddUse(user);
        rewired = true;
        break;  // one use-list entry covers exactly one operand slot
      }
    }
    CPI_CHECK(rewired);
  }
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kAlloca: return "alloca";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kFieldAddr: return "fieldaddr";
    case Opcode::kIndexAddr: return "indexaddr";
    case Opcode::kBinOp: return "binop";
    case Opcode::kCast: return "cast";
    case Opcode::kSelect: return "select";
    case Opcode::kCall: return "call";
    case Opcode::kIndirectCall: return "icall";
    case Opcode::kLibCall: return "libcall";
    case Opcode::kMalloc: return "malloc";
    case Opcode::kFree: return "free";
    case Opcode::kFuncAddr: return "funcaddr";
    case Opcode::kGlobalAddr: return "globaladdr";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kRet: return "ret";
    case Opcode::kInput: return "input";
    case Opcode::kOutput: return "output";
    case Opcode::kIntrinsic: return "intrinsic";
    case Opcode::kSpawn: return "spawn";
    case Opcode::kJoin: return "join";
    case Opcode::kYield: return "yield";
  }
  CPI_UNREACHABLE();
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kSDiv: return "sdiv";
    case BinOp::kUDiv: return "udiv";
    case BinOp::kSRem: return "srem";
    case BinOp::kURem: return "urem";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kXor: return "xor";
    case BinOp::kShl: return "shl";
    case BinOp::kLShr: return "lshr";
    case BinOp::kAShr: return "ashr";
    case BinOp::kEq: return "eq";
    case BinOp::kNe: return "ne";
    case BinOp::kSLt: return "slt";
    case BinOp::kSLe: return "sle";
    case BinOp::kSGt: return "sgt";
    case BinOp::kSGe: return "sge";
    case BinOp::kULt: return "ult";
    case BinOp::kULe: return "ule";
    case BinOp::kFAdd: return "fadd";
    case BinOp::kFSub: return "fsub";
    case BinOp::kFMul: return "fmul";
    case BinOp::kFDiv: return "fdiv";
    case BinOp::kFEq: return "feq";
    case BinOp::kFNe: return "fne";
    case BinOp::kFLt: return "flt";
    case BinOp::kFLe: return "fle";
    case BinOp::kFGt: return "fgt";
    case BinOp::kFGe: return "fge";
  }
  CPI_UNREACHABLE();
}

const char* CastKindName(CastKind kind) {
  switch (kind) {
    case CastKind::kBitcast: return "bitcast";
    case CastKind::kPtrToInt: return "ptrtoint";
    case CastKind::kIntToPtr: return "inttoptr";
    case CastKind::kTrunc: return "trunc";
    case CastKind::kZExt: return "zext";
    case CastKind::kSExt: return "sext";
    case CastKind::kIntToFloat: return "inttofloat";
    case CastKind::kFloatToInt: return "floattoint";
  }
  CPI_UNREACHABLE();
}

const char* StackKindName(StackKind k) {
  switch (k) {
    case StackKind::kDefault: return "default";
    case StackKind::kSafe: return "safe";
    case StackKind::kUnsafe: return "unsafe";
  }
  CPI_UNREACHABLE();
}

}  // namespace cpi::ir
