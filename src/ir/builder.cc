#include "src/ir/builder.h"

namespace cpi::ir {

Instruction* IRBuilder::Emit(Opcode op, const Type* result_type) {
  CPI_CHECK(bb_ != nullptr);
  Instruction* inst = bb_->parent()->CreateInstruction(op, result_type);
  bb_->Append(inst);
  return inst;
}

Instruction* IRBuilder::Alloca(const Type* type, const std::string& name) {
  Instruction* inst = Emit(Opcode::kAlloca, module_->types().PointerTo(type));
  inst->set_extra_type(type);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Load(Value* ptr, const std::string& name) {
  CPI_CHECK(ptr->type()->IsPointer());
  const Type* pointee = static_cast<const PointerType*>(ptr->type())->pointee();
  // Loads move scalar values only; aggregates are copied field-wise or via
  // memcpy, as clang does for our C subset.
  CPI_CHECK(pointee->IsInt() || pointee->IsFloat() || pointee->IsPointer());
  Instruction* inst = Emit(Opcode::kLoad, pointee);
  inst->AddOperand(ptr);
  inst->set_name(name);
  return inst;
}

void IRBuilder::Store(Value* value, Value* ptr) {
  CPI_CHECK(ptr->type()->IsPointer());
  Instruction* inst = Emit(Opcode::kStore, module_->types().VoidTy());
  inst->AddOperand(value);
  inst->AddOperand(ptr);
}

Value* IRBuilder::FieldAddr(Value* struct_ptr, unsigned field_index, const std::string& name) {
  CPI_CHECK(struct_ptr->type()->IsPointer());
  const Type* pointee = static_cast<const PointerType*>(struct_ptr->type())->pointee();
  CPI_CHECK(pointee->IsStruct());
  const auto* st = static_cast<const StructType*>(pointee);
  CPI_CHECK(field_index < st->fields().size());
  const Type* field_type = st->fields()[field_index].type;
  Instruction* inst = Emit(Opcode::kFieldAddr, module_->types().PointerTo(field_type));
  inst->AddOperand(struct_ptr);
  inst->set_field_index(field_index);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::FieldAddr(Value* struct_ptr, const std::string& field_name) {
  CPI_CHECK(struct_ptr->type()->IsPointer());
  const Type* pointee = static_cast<const PointerType*>(struct_ptr->type())->pointee();
  CPI_CHECK(pointee->IsStruct());
  const auto* st = static_cast<const StructType*>(pointee);
  for (unsigned i = 0; i < st->fields().size(); ++i) {
    if (st->fields()[i].name == field_name) {
      return FieldAddr(struct_ptr, i, field_name);
    }
  }
  CPI_UNREACHABLE();
}

Value* IRBuilder::IndexAddr(Value* ptr, Value* index, const std::string& name) {
  CPI_CHECK(ptr->type()->IsPointer());
  CPI_CHECK(index->type()->IsInt());
  const Type* pointee = static_cast<const PointerType*>(ptr->type())->pointee();
  const Type* result;
  if (pointee->IsArray()) {
    // &arr[i]: decays to a pointer to the element type.
    result = module_->types().PointerTo(static_cast<const ArrayType*>(pointee)->element());
  } else {
    // Pointer arithmetic on an element pointer: same type.
    result = ptr->type();
  }
  Instruction* inst = Emit(Opcode::kIndexAddr, result);
  inst->AddOperand(ptr);
  inst->AddOperand(index);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Malloc(Value* size, const PointerType* result_type, const std::string& name) {
  CPI_CHECK(size->type()->IsInt());
  Instruction* inst = Emit(Opcode::kMalloc, result_type);
  inst->AddOperand(size);
  inst->set_extra_type(result_type);
  inst->set_name(name);
  return inst;
}

void IRBuilder::Free(Value* ptr) {
  CPI_CHECK(ptr->type()->IsPointer());
  Instruction* inst = Emit(Opcode::kFree, module_->types().VoidTy());
  inst->AddOperand(ptr);
}

Value* IRBuilder::Binary(BinOp op, Value* a, Value* b, const std::string& name) {
  const bool is_float_op = op >= BinOp::kFAdd;
  const bool is_compare = (op >= BinOp::kEq && op <= BinOp::kULe) || op >= BinOp::kFEq;
  const Type* result;
  if (is_compare) {
    result = module_->types().I64();
  } else if (is_float_op) {
    result = module_->types().FloatTy();
  } else {
    result = a->type();
  }
  Instruction* inst = Emit(Opcode::kBinOp, result);
  inst->set_binop(op);
  inst->AddOperand(a);
  inst->AddOperand(b);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Select(Value* cond, Value* a, Value* b, const std::string& name) {
  Instruction* inst = Emit(Opcode::kSelect, a->type());
  inst->AddOperand(cond);
  inst->AddOperand(a);
  inst->AddOperand(b);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Cast(CastKind kind, Value* v, const Type* to, const std::string& name) {
  Instruction* inst = Emit(Opcode::kCast, to);
  inst->set_cast_kind(kind);
  inst->set_extra_type(to);
  inst->AddOperand(v);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Call(Function* callee, std::vector<Value*> args, const std::string& name) {
  CPI_CHECK(callee != nullptr);
  CPI_CHECK(args.size() == callee->type()->params().size());
  Instruction* inst = Emit(Opcode::kCall, callee->type()->return_type());
  inst->set_callee(callee);
  for (Value* a : args) {
    inst->AddOperand(a);
  }
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Spawn(Function* worker, std::vector<Value*> args, const std::string& name) {
  CPI_CHECK(worker != nullptr);
  CPI_CHECK(args.size() == worker->type()->params().size());
  // Join surfaces the worker's return value as an i64, so the root function
  // of a thread must produce one.
  CPI_CHECK(worker->type()->return_type()->IsInt());
  Instruction* inst = Emit(Opcode::kSpawn, module_->types().I64());
  inst->set_callee(worker);
  for (Value* a : args) {
    inst->AddOperand(a);
  }
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::Join(Value* tid, const std::string& name) {
  CPI_CHECK(tid->type()->IsInt());
  Instruction* inst = Emit(Opcode::kJoin, module_->types().I64());
  inst->AddOperand(tid);
  inst->set_name(name);
  return inst;
}

void IRBuilder::Yield() { Emit(Opcode::kYield, module_->types().VoidTy()); }

Value* IRBuilder::IndirectCall(Value* fnptr, std::vector<Value*> args, const std::string& name) {
  CPI_CHECK(IsCodePointer(fnptr->type()));
  const auto* fn_type =
      static_cast<const FunctionType*>(static_cast<const PointerType*>(fnptr->type())->pointee());
  CPI_CHECK(args.size() == fn_type->params().size());
  Instruction* inst = Emit(Opcode::kIndirectCall, fn_type->return_type());
  inst->AddOperand(fnptr);
  for (Value* a : args) {
    inst->AddOperand(a);
  }
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::LibCall(LibFunc f, std::vector<Value*> args, const std::string& name) {
  const Type* result = module_->types().I64();
  if (Info(f).returns_dst) {
    result = args.empty() ? module_->types().VoidPtrTy() : args[0]->type();
  }
  Instruction* inst = Emit(Opcode::kLibCall, result);
  inst->set_lib_func(f);
  for (Value* a : args) {
    inst->AddOperand(a);
  }
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::FuncAddr(Function* f, const std::string& name) {
  CPI_CHECK(f != nullptr);
  Instruction* inst = Emit(Opcode::kFuncAddr, module_->types().PointerTo(f->type()));
  inst->set_callee(f);
  inst->set_name(name);
  return inst;
}

Value* IRBuilder::GlobalAddr(GlobalVariable* g, const std::string& name) {
  CPI_CHECK(g != nullptr);
  Instruction* inst = Emit(Opcode::kGlobalAddr, module_->types().PointerTo(g->type()));
  inst->set_global(g);
  inst->set_name(name);
  return inst;
}

void IRBuilder::Br(BasicBlock* target) {
  Instruction* inst = Emit(Opcode::kBr, module_->types().VoidTy());
  inst->set_successor(0, target);
}

void IRBuilder::CondBr(Value* cond, BasicBlock* if_true, BasicBlock* if_false) {
  Instruction* inst = Emit(Opcode::kCondBr, module_->types().VoidTy());
  inst->AddOperand(cond);
  inst->set_successor(0, if_true);
  inst->set_successor(1, if_false);
}

void IRBuilder::Ret(Value* value) {
  Instruction* inst = Emit(Opcode::kRet, module_->types().VoidTy());
  if (value != nullptr) {
    inst->AddOperand(value);
  }
}

Value* IRBuilder::Input(const std::string& name) {
  Instruction* inst = Emit(Opcode::kInput, module_->types().I64());
  inst->set_name(name);
  return inst;
}

void IRBuilder::Output(Value* v) {
  Instruction* inst = Emit(Opcode::kOutput, module_->types().VoidTy());
  inst->AddOperand(v);
}

Instruction* IRBuilder::Intrinsic(IntrinsicId id, const Type* result_type,
                                  std::vector<Value*> operands) {
  Instruction* inst = Emit(Opcode::kIntrinsic, result_type);
  inst->set_intrinsic(id);
  for (Value* v : operands) {
    inst->AddOperand(v);
  }
  return inst;
}

}  // namespace cpi::ir
