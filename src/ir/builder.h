// IRBuilder: convenience API for constructing IR with inferred result types.
// All workload generators, the frontend lowering, and the tests build IR
// through this class.
#ifndef CPI_SRC_IR_BUILDER_H_
#define CPI_SRC_IR_BUILDER_H_

#include <string>
#include <vector>

#include "src/ir/module.h"

namespace cpi::ir {

class IRBuilder {
 public:
  explicit IRBuilder(Module* module) : module_(module) { CPI_CHECK(module != nullptr); }

  Module* module() const { return module_; }

  void SetInsertPoint(BasicBlock* bb) {
    CPI_CHECK(bb != nullptr);
    bb_ = bb;
  }
  BasicBlock* insert_block() const { return bb_; }

  // --- constants ----------------------------------------------------------
  Value* I8(uint64_t v) { return module_->GetConstInt(module_->types().I8(), v & 0xff); }
  Value* Char(uint64_t v) { return module_->GetConstInt(module_->types().CharTy(), v & 0xff); }
  Value* I32(uint64_t v) { return module_->GetConstInt(module_->types().I32(), v); }
  Value* I64(uint64_t v) { return module_->GetConstInt(module_->types().I64(), v); }
  Value* F64(double v) { return module_->GetConstFloat(v); }
  Value* Null(const Type* pointer_type) { return module_->GetNull(pointer_type); }

  // --- memory -------------------------------------------------------------
  Instruction* Alloca(const Type* type, const std::string& name = "");
  Value* Load(Value* ptr, const std::string& name = "");
  void Store(Value* value, Value* ptr);
  Value* FieldAddr(Value* struct_ptr, unsigned field_index, const std::string& name = "");
  Value* FieldAddr(Value* struct_ptr, const std::string& field_name);
  Value* IndexAddr(Value* ptr, Value* index, const std::string& name = "");
  Value* Malloc(Value* size, const PointerType* result_type, const std::string& name = "");
  void Free(Value* ptr);

  // --- arithmetic ---------------------------------------------------------
  Value* Binary(BinOp op, Value* a, Value* b, const std::string& name = "");
  Value* Add(Value* a, Value* b) { return Binary(BinOp::kAdd, a, b); }
  Value* Sub(Value* a, Value* b) { return Binary(BinOp::kSub, a, b); }
  Value* Mul(Value* a, Value* b) { return Binary(BinOp::kMul, a, b); }
  Value* And(Value* a, Value* b) { return Binary(BinOp::kAnd, a, b); }
  Value* Xor(Value* a, Value* b) { return Binary(BinOp::kXor, a, b); }
  Value* ICmpEq(Value* a, Value* b) { return Binary(BinOp::kEq, a, b); }
  Value* ICmpNe(Value* a, Value* b) { return Binary(BinOp::kNe, a, b); }
  Value* ICmpSLt(Value* a, Value* b) { return Binary(BinOp::kSLt, a, b); }
  Value* Select(Value* cond, Value* a, Value* b, const std::string& name = "");

  // --- casts --------------------------------------------------------------
  Value* Cast(CastKind kind, Value* v, const Type* to, const std::string& name = "");
  Value* Bitcast(Value* v, const Type* to) { return Cast(CastKind::kBitcast, v, to); }
  Value* PtrToInt(Value* v) { return Cast(CastKind::kPtrToInt, v, module_->types().I64()); }
  Value* IntToPtr(Value* v, const Type* to) { return Cast(CastKind::kIntToPtr, v, to); }

  // --- calls and control flow ---------------------------------------------
  Value* Call(Function* callee, std::vector<Value*> args, const std::string& name = "");
  Value* IndirectCall(Value* fnptr, std::vector<Value*> args, const std::string& name = "");
  // --- simulated threading (vm::Scheduler) ---------------------------------
  // Starts `worker` (which must return an integer) on a fresh simulated
  // thread; the result is the new thread's id.
  Value* Spawn(Function* worker, std::vector<Value*> args, const std::string& name = "");
  // Blocks until the thread `tid` finishes; yields its return value.
  Value* Join(Value* tid, const std::string& name = "");
  // Ends the current thread's scheduling quantum.
  void Yield();
  // The result type comes from the callee's row (ir::Info): operand 0's
  // type for the routines that return their destination, else i64.
  Value* LibCall(LibFunc f, std::vector<Value*> args, const std::string& name = "");
  Value* FuncAddr(Function* f, const std::string& name = "");
  Value* GlobalAddr(GlobalVariable* g, const std::string& name = "");
  void Br(BasicBlock* target);
  void CondBr(Value* cond, BasicBlock* if_true, BasicBlock* if_false);
  void Ret(Value* value = nullptr);

  // --- program I/O ---------------------------------------------------------
  Value* Input(const std::string& name = "");
  void Output(Value* v);

  // --- instrumentation ------------------------------------------------------
  Instruction* Intrinsic(IntrinsicId id, const Type* result_type, std::vector<Value*> operands);

 private:
  Instruction* Emit(Opcode op, const Type* result_type);

  Module* module_;
  BasicBlock* bb_ = nullptr;
};

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_BUILDER_H_
