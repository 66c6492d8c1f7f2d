#include "src/ir/printer.h"

#include <sstream>

namespace cpi::ir {
namespace {

std::string ValueRef(const Value* v) {
  switch (v->value_kind()) {
    case ValueKind::kConstInt: {
      const auto* c = static_cast<const ConstantInt*>(v);
      return std::to_string(static_cast<int64_t>(c->value())) + ":" + c->type()->ToString();
    }
    case ValueKind::kConstFloat:
      return std::to_string(static_cast<const ConstantFloat*>(v)->value());
    case ValueKind::kConstNull:
      return "null:" + v->type()->ToString();
    case ValueKind::kArgument: {
      const auto* a = static_cast<const Argument*>(v);
      return "%" + a->name();
    }
    case ValueKind::kInstruction: {
      const auto* inst = static_cast<const Instruction*>(v);
      if (!inst->name().empty()) {
        return "%" + inst->name();
      }
      return "%v" + std::to_string(inst->value_id());
    }
  }
  CPI_UNREACHABLE();
}

void PrintInstructionTo(std::ostringstream& os, const Instruction& inst) {
  if (!inst.type()->IsVoid()) {
    os << ValueRef(&inst) << " = ";
  }
  switch (inst.op()) {
    case Opcode::kAlloca:
      os << "alloca " << inst.extra_type()->ToString() << " ["
         << StackKindName(inst.stack_kind()) << "]";
      return;
    case Opcode::kBinOp:
      os << BinOpName(inst.binop());
      break;
    case Opcode::kCast:
      os << CastKindName(inst.cast_kind());
      break;
    case Opcode::kLibCall:
      os << LibFuncName(inst.lib_func());
      break;
    case Opcode::kIntrinsic:
      os << IntrinsicName(inst.intrinsic());
      break;
    case Opcode::kCall:
      os << "call @" << inst.callee()->name();
      break;
    case Opcode::kSpawn:
      os << "spawn @" << inst.callee()->name();
      break;
    case Opcode::kFuncAddr:
      os << "funcaddr @" << inst.callee()->name();
      return;
    case Opcode::kGlobalAddr:
      os << "globaladdr @" << inst.global()->name();
      return;
    case Opcode::kFieldAddr: {
      const auto* st = static_cast<const StructType*>(
          static_cast<const PointerType*>(inst.operand(0)->type())->pointee());
      os << "fieldaddr " << ValueRef(inst.operand(0)) << ", ."
         << st->fields()[inst.field_index()].name;
      return;
    }
    case Opcode::kBr:
      os << "br ^" << inst.successor(0)->name();
      return;
    case Opcode::kCondBr:
      os << "condbr " << ValueRef(inst.operand(0)) << ", ^" << inst.successor(0)->name() << ", ^"
         << inst.successor(1)->name();
      return;
    default:
      os << OpcodeName(inst.op());
      break;
  }
  for (size_t i = 0; i < inst.operands().size(); ++i) {
    os << (i == 0 ? " " : ", ") << ValueRef(inst.operand(i));
  }
  if (inst.op() == Opcode::kCast || inst.op() == Opcode::kMalloc) {
    os << " to " << inst.type()->ToString();
  }
}

}  // namespace

std::string PrintFunction(const Function& function) {
  std::ostringstream os;
  os << "func @" << function.name() << "(";
  for (size_t i = 0; i < function.args().size(); ++i) {
    if (i != 0) {
      os << ", ";
    }
    os << "%" << function.args()[i]->name() << ": " << function.args()[i]->type()->ToString();
  }
  os << ") -> " << function.type()->return_type()->ToString();
  if (function.needs_unsafe_frame()) {
    os << " [unsafe-frame]";
  }
  if (function.has_stack_cookie()) {
    os << " [cookie]";
  }
  os << " {\n";
  for (const auto& bb : function.blocks()) {
    os << "^" << bb->name() << ":\n";
    for (const Instruction* inst : bb->instructions()) {
      os << "  ";
      std::ostringstream line;
      PrintInstructionTo(line, *inst);
      os << line.str() << "\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string PrintModule(const Module& module) {
  std::ostringstream os;
  os << "; module " << module.name() << "\n";
  for (const auto& g : module.globals()) {
    os << "global @" << g->name() << ": " << g->type()->ToString()
       << (g->is_const() ? " const" : "") << "\n";
  }
  for (const auto& f : module.functions()) {
    os << "\n" << PrintFunction(*f);
  }
  return os.str();
}

}  // namespace cpi::ir
