// IR -> micro-op translation, plus the superinstruction tier's fusion
// plan. One DecodedOp per IR instruction; every
// payload a handler needs at run time is resolved here, once per function.
#include "src/vm/decode.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "src/support/check.h"
#include "src/vm/bits.h"

namespace cpi::vm {

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::StackKind;
using ir::Type;
using ir::Value;
using ir::ValueKind;

OperandSlot SlotFor(const Value* v) {
  OperandSlot s;
  switch (v->value_kind()) {
    case ValueKind::kConstInt: {
      const auto* c = static_cast<const ir::ConstantInt*>(v);
      s.set_imm(MaskToWidth(c->value(), TypeBits(c->type())));
      return s;
    }
    case ValueKind::kConstFloat:
      s.set_imm(DoubleToBits(static_cast<const ir::ConstantFloat*>(v)->value()));
      return s;
    case ValueKind::kConstNull:
      s.set_imm(0);
      return s;
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      CPI_CHECK(v->value_id() != ir::kInvalidValueId);
      CPI_CHECK(v->value_id() != OperandSlot::kImmSlot);
      s.set_reg(v->value_id());
      return s;
  }
  CPI_UNREACHABLE();
}

std::unique_ptr<DecodedFunction> DecodeFunction(const Function& fn,
                                                const ir::Module& module,
                                                const ProgramLayout& layout) {
  auto out = std::make_unique<DecodedFunction>();
  out->func = &fn;

  // Pass 1: op index of every block once blocks are laid out back to back.
  std::unordered_map<const BasicBlock*, uint32_t> block_pc;
  uint32_t pc = 0;
  for (const auto& bb : fn.blocks()) {
    block_pc[bb.get()] = pc;
    out->block_starts.push_back(pc);
    pc += static_cast<uint32_t>(bb->instructions().size());
  }
  out->ops.reserve(pc);
  out->insts.reserve(pc);

  const bool safe_stack = module.protection().safe_stack;

  // Pass 2: emit.
  for (const auto& bb : fn.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      DecodedOp op;
      out->insts.push_back(inst);
      op.dest = inst->value_id();
      const auto& operands = inst->operands();
      switch (inst->op()) {
        case Opcode::kAlloca: {
          op.op = MicroOp::kAlloca;
          const Type* t = inst->extra_type();
          op.imm = std::max<uint64_t>(t->SizeInBytes(), 1);
          op.imm2 = std::max<uint64_t>(ir::AlignmentOf(t), 1) - 1;  // align mask
          op.flag = safe_stack && inst->stack_kind() != StackKind::kUnsafe;
          break;
        }
        case Opcode::kLoad:
          op.op = MicroOp::kLoad;
          op.a = SlotFor(operands[0]);
          op.imm = inst->type()->SizeInBytes();
          break;
        case Opcode::kStore: {
          op.op = MicroOp::kStore;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          const Type* pointee =
              static_cast<const ir::PointerType*>(operands[1]->type())->pointee();
          op.imm = pointee->IsVoid() ? 8 : pointee->SizeInBytes();
          break;
        }
        case Opcode::kFieldAddr: {
          op.op = MicroOp::kFieldAddr;
          op.a = SlotFor(operands[0]);
          const auto* st = static_cast<const ir::StructType*>(
              static_cast<const ir::PointerType*>(operands[0]->type())->pointee());
          const ir::StructField& field = st->fields()[inst->field_index()];
          op.imm = field.offset;
          op.imm2 = field.type->SizeInBytes();
          break;
        }
        case Opcode::kIndexAddr: {
          op.op = MicroOp::kIndexAddr;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[1]->type()));
          const Type* pointee =
              static_cast<const ir::PointerType*>(operands[0]->type())->pointee();
          op.imm = pointee->IsArray()
                       ? static_cast<const ir::ArrayType*>(pointee)->element()->SizeInBytes()
                       : pointee->SizeInBytes();
          break;
        }
        case Opcode::kBinOp:
          op.op = MicroOp::kBinOp;
          op.aux = static_cast<uint8_t>(inst->binop());
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[0]->type()));
          op.bits2 = static_cast<uint8_t>(TypeBits(inst->type()));
          break;
        case Opcode::kCast:
          op.op = MicroOp::kCast;
          op.aux = static_cast<uint8_t>(inst->cast_kind());
          op.a = SlotFor(operands[0]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[0]->type()));
          op.bits2 = static_cast<uint8_t>(TypeBits(inst->type()));
          break;
        case Opcode::kSelect:
          op.op = MicroOp::kSelect;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.c = SlotFor(operands[2]);
          break;
        case Opcode::kCall:
          op.op = MicroOp::kCall;
          op.imm = inst->callee()->ordinal();  // resolved via module at run time
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size());
          for (const Value* v : operands) {
            out->args.push_back(SlotFor(v));
          }
          break;
        case Opcode::kIndirectCall:
          op.op = MicroOp::kIndirectCall;
          op.a = SlotFor(operands[0]);
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() - 1 <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size() - 1);
          for (size_t i = 1; i < operands.size(); ++i) {
            out->args.push_back(SlotFor(operands[i]));
          }
          break;
        case Opcode::kLibCall:
          op.op = MicroOp::kLibCall;
          op.aux = static_cast<uint8_t>(inst->lib_func());
          op.flag = inst->checked();
          CPI_CHECK(operands.size() <= 3);
          if (operands.size() > 0) op.a = SlotFor(operands[0]);
          if (operands.size() > 1) op.b = SlotFor(operands[1]);
          if (operands.size() > 2) op.c = SlotFor(operands[2]);
          break;
        case Opcode::kMalloc:
          op.op = MicroOp::kMalloc;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kFree:
          op.op = MicroOp::kFree;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kFuncAddr:
          op.op = MicroOp::kFuncAddr;
          op.imm = layout.CodeAddress(inst->callee());
          break;
        case Opcode::kGlobalAddr:
          op.op = MicroOp::kGlobalAddr;
          op.imm = layout.GlobalAddress(inst->global());
          op.imm2 = inst->global()->type()->SizeInBytes();
          break;
        case Opcode::kBr:
          op.op = MicroOp::kBr;
          op.target = block_pc.at(inst->successor(0));
          break;
        case Opcode::kCondBr:
          op.op = MicroOp::kCondBr;
          op.a = SlotFor(operands[0]);
          op.target = block_pc.at(inst->successor(0));
          op.target2 = block_pc.at(inst->successor(1));
          break;
        case Opcode::kRet:
          op.op = MicroOp::kRet;
          op.flag = !operands.empty();
          if (op.flag) {
            op.a = SlotFor(operands[0]);
          }
          break;
        case Opcode::kInput:
          op.op = MicroOp::kInput;
          break;
        case Opcode::kOutput:
          op.op = MicroOp::kOutput;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kSpawn:
          op.op = MicroOp::kSpawn;
          op.imm = inst->callee()->ordinal();
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size());
          for (const Value* v : operands) {
            out->args.push_back(SlotFor(v));
          }
          break;
        case Opcode::kJoin:
          op.op = MicroOp::kJoin;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kYield:
          op.op = MicroOp::kYield;
          break;
        case Opcode::kIntrinsic:
          op.op = MicroOp::kIntrinsic;
          op.aux = static_cast<uint8_t>(inst->intrinsic());
          CPI_CHECK(operands.size() <= 3);
          if (operands.size() > 0) op.a = SlotFor(operands[0]);
          if (operands.size() > 1) op.b = SlotFor(operands[1]);
          if (operands.size() > 2) op.c = SlotFor(operands[2]);
          break;
      }
      CPI_CHECK(op.op != MicroOp::kCount);
      out->ops.push_back(op);
    }
  }
  CPI_CHECK(out->ops.size() == pc);
  return out;
}

// ---------------------------------------------------------------------------
// Superinstruction fusion. Only the head op's opcode is rewritten;
// constituents keep their original opcodes, so branch targets stay valid.

bool IsIntCompare(uint8_t aux) {
  const auto b = static_cast<BinOp>(aux);
  return b >= BinOp::kEq && b <= BinOp::kULe;
}

// Specialised triple opcode for three constituent micro-ops, or kCount when
// the shape is not in kTripleShapes.
MicroOp TripleMacro(MicroOp a, MicroOp b, MicroOp c) {
  for (size_t k = 0; k < kNumTripleShapes; ++k) {
    if (kTripleShapes[k].a == a && kTripleShapes[k].b == b &&
        kTripleShapes[k].c == c) {
      return static_cast<MicroOp>(static_cast<size_t>(MacroOp::kTripleBase) + k);
    }
  }
  return MicroOp::kCount;
}

// Macro opcode for a fusible pair. The fully-inlined compare+branch needs the
// branch to consume the compare's result register; anything else takes the
// head x tail matrix.
MicroOp PickPairMacro(const DecodedOp& head, const DecodedOp& tail) {
  if (head.op == MicroOp::kBinOp && tail.op == MicroOp::kCondBr &&
      IsIntCompare(head.aux) && !tail.a.is_imm() && tail.a.reg == head.dest) {
    return static_cast<MicroOp>(MacroOp::kCmpBr);
  }
  return PairMacro(FuseHeadIndex(head.op), FuseTailIndex(tail.op));
}

// Fuses `df` in place and returns the number of tail ops it folded into
// macro heads. Each block is planned on its own: triples first, in op-index
// order, since a triple saves two dispatches where a pair saves one; then
// pairs, in op-index order, over the ops no triple claimed.
uint64_t FuseFunction(DecodedFunction& df) {
  std::vector<DecodedOp>& ops = df.ops;
  std::vector<bool> claimed(ops.size(), false);
  uint64_t fused_tails = 0;
  auto claim = [&](uint32_t head, uint32_t len, MicroOp macro) {
    for (uint32_t i = head; i < head + len; ++i) {
      claimed[i] = true;
    }
    ops[head].op = macro;
    fused_tails += len - 1;
  };
  for (size_t b = 0; b < df.block_starts.size(); ++b) {
    const uint32_t begin = df.block_starts[b];
    const uint32_t end = b + 1 < df.block_starts.size()
                             ? df.block_starts[b + 1]
                             : static_cast<uint32_t>(ops.size());
    for (uint32_t i = begin; i + 2 < end; ++i) {
      if (claimed[i] || claimed[i + 1] || claimed[i + 2]) continue;
      const MicroOp macro = TripleMacro(ops[i].op, ops[i + 1].op, ops[i + 2].op);
      if (macro != MicroOp::kCount) claim(i, 3, macro);
    }
    for (uint32_t i = begin; i + 1 < end; ++i) {
      if (claimed[i] || claimed[i + 1]) continue;
      if (FuseHeadIndex(ops[i].op) >= 0 && FuseTailIndex(ops[i + 1].op) >= 0) {
        claim(i, 2, PickPairMacro(ops[i], ops[i + 1]));
      }
    }
  }
  return fused_tails;
}

// Process-wide fusion statistics.
std::mutex g_fusion_mu;
FusionStats g_fusion;

}  // namespace

DecodedModule::DecodedModule(const ir::Module& module, const ProgramLayout& layout,
                             bool fuse)
    : module_(module),
      layout_(layout),
      engine_(fuse ? EngineKind::kFused : EngineKind::kDecoded) {
  functions_.reserve(module.functions().size());
  for (size_t i = 0; i < module.functions().size(); ++i) {
    const Function* fn = module.functions()[i].get();
    CPI_CHECK(fn->ordinal() == i);
    functions_.push_back(DecodeFunction(*fn, module, layout_));
    ops_before_ += functions_.back()->ops.size();
  }
  ops_after_ = ops_before_;
  if (!fuse) return;

  for (auto& df : functions_) {
    ops_after_ -= FuseFunction(*df);
  }
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  ++g_fusion.modules;
  g_fusion.ops_before += ops_before_;
  g_fusion.ops_after += ops_after_;
}

FusionStats GetFusionStats() {
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  return g_fusion;
}

}  // namespace cpi::vm
