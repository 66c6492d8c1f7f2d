// IR instructions.
//
// A single Instruction class carries an opcode plus opcode-specific payload;
// accessors CHECK the opcode so misuse fails fast. This keeps the instruction
// set compact while still modelling everything CPI's analyses care about:
// loads/stores, address computations (field/index), pointer casts, direct and
// indirect calls, allocation, and the libc-style calls whose arguments the
// static analysis special-cases (§3.2.1-§3.2.2).
#ifndef CPI_SRC_IR_INSTRUCTION_H_
#define CPI_SRC_IR_INSTRUCTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/intrinsics.h"
#include "src/ir/value.h"

namespace cpi::ir {

class BasicBlock;
class Function;
class GlobalVariable;

enum class Opcode {
  kAlloca,      // stack allocation of extra_type; result: extra_type*
  kLoad,        // (ptr) -> pointee
  kStore,       // (value, ptr) -> void
  kFieldAddr,   // (struct_ptr) -> field_type* ; narrows to a sub-object
  kIndexAddr,   // (ptr, index) -> element*    ; array indexing / ptr arithmetic
  kBinOp,       // (a, b) -> int/float
  kCast,        // (v) -> extra_type
  kSelect,      // (cond, a, b) -> type of a/b
  kCall,        // direct call: callee + args
  kIndirectCall,// (fnptr, args...) ; the control transfer CPI protects
  kLibCall,     // libc-style helper (strcpy & co.); see LibFunc
  kMalloc,      // (size) -> extra_type (a pointer type)
  kFree,        // (ptr) -> void
  kFuncAddr,    // &f -> fnptr ; explicit address-taking of a function
  kGlobalAddr,  // &g -> type-of-g*
  kBr,          // unconditional branch
  kCondBr,      // (cond) + two successor blocks
  kRet,         // optional value
  kInput,       // () -> i64 ; next word of program input
  kOutput,      // (v) -> void ; appends to observable program output
  kIntrinsic,   // runtime intrinsic inserted by instrumentation passes
  // Simulated threading (vm::Scheduler). Spawn starts the named callee on a
  // fresh simulated thread with its own safe/unsafe stacks and returns the
  // thread id; join blocks until that thread's root function returns and
  // yields its i64 return value; yield ends the current scheduling quantum.
  kSpawn,       // direct callee + args -> i64 thread id
  kJoin,        // (tid) -> i64 ; the joined thread's return value
  kYield,       // () -> void
};

enum class BinOp {
  kAdd, kSub, kMul, kSDiv, kUDiv, kSRem, kURem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,
  kEq, kNe, kSLt, kSLe, kSGt, kSGe, kULt, kULe,
  kFAdd, kFSub, kFMul, kFDiv,
  kFEq, kFNe, kFLt, kFLe, kFGt, kFGe,
};

enum class CastKind {
  kBitcast,    // pointer -> pointer
  kPtrToInt,
  kIntToPtr,
  kTrunc,
  kZExt,
  kSExt,
  kIntToFloat,
  kFloatToInt,
};

// Which stack an alloca lives on after the SafeStack pass (§3.2.4).
enum class StackKind {
  kDefault,  // single unprotected stack (no SafeStack pass run)
  kSafe,     // proven-safe object: safe stack in the safe region
  kUnsafe,   // needs runtime checks / escapes: unsafe stack in regular memory
};

class Instruction final : public Value {
 public:
  Instruction(Opcode op, const Type* result_type)
      : Value(ValueKind::kInstruction, result_type), op_(op) {}

  Opcode op() const { return op_; }

  const std::vector<Value*>& operands() const { return operands_; }
  Value* operand(size_t i) const {
    CPI_CHECK(i < operands_.size());
    return operands_[i];
  }
  void AddOperand(Value* v) {
    CPI_CHECK(v != nullptr);
    operands_.push_back(v);
    v->AddUse(this);
  }
  void SetOperand(size_t i, Value* v) {
    CPI_CHECK(i < operands_.size());
    CPI_CHECK(v != nullptr);
    operands_[i]->RemoveUse(this);
    operands_[i] = v;
    v->AddUse(this);
  }
  // Unregisters this instruction from its operands' use-lists; called by the
  // optimizer right before dropping the instruction from its block.
  void DropOperandUses() {
    for (Value* v : operands_) {
      v->RemoveUse(this);
    }
  }

  // --- opcode-specific payload -------------------------------------------

  const Type* extra_type() const { return extra_type_; }
  void set_extra_type(const Type* t) { extra_type_ = t; }

  BinOp binop() const {
    CPI_CHECK(op_ == Opcode::kBinOp);
    return binop_;
  }
  void set_binop(BinOp b) { binop_ = b; }

  CastKind cast_kind() const {
    CPI_CHECK(op_ == Opcode::kCast);
    return cast_;
  }
  void set_cast_kind(CastKind c) { cast_ = c; }

  LibFunc lib_func() const {
    CPI_CHECK(op_ == Opcode::kLibCall);
    return lib_func_;
  }
  void set_lib_func(LibFunc f) { lib_func_ = f; }

  IntrinsicId intrinsic() const {
    CPI_CHECK(op_ == Opcode::kIntrinsic);
    return intrinsic_;
  }
  void set_intrinsic(IntrinsicId id) { intrinsic_ = id; }

  unsigned field_index() const {
    CPI_CHECK(op_ == Opcode::kFieldAddr);
    return field_index_;
  }
  void set_field_index(unsigned i) { field_index_ = i; }

  Function* callee() const {
    CPI_CHECK(op_ == Opcode::kCall || op_ == Opcode::kFuncAddr || op_ == Opcode::kSpawn);
    return callee_;
  }
  void set_callee(Function* f) { callee_ = f; }

  GlobalVariable* global() const {
    CPI_CHECK(op_ == Opcode::kGlobalAddr);
    return global_;
  }
  void set_global(GlobalVariable* g) { global_ = g; }

  StackKind stack_kind() const {
    CPI_CHECK(op_ == Opcode::kAlloca);
    return stack_kind_;
  }
  void set_stack_kind(StackKind k) { stack_kind_ = k; }

  // Branch successors (kBr: one, kCondBr: two).
  BasicBlock* successor(size_t i) const {
    CPI_CHECK(i < 2 && successors_[i] != nullptr);
    return successors_[i];
  }
  void set_successor(size_t i, BasicBlock* bb) {
    CPI_CHECK(i < 2);
    successors_[i] = bb;
  }
  size_t successor_count() const {
    if (op_ == Opcode::kBr) {
      return 1;
    }
    if (op_ == Opcode::kCondBr) {
      return 2;
    }
    return 0;
  }

  bool IsTerminator() const {
    return op_ == Opcode::kBr || op_ == Opcode::kCondBr || op_ == Opcode::kRet;
  }

  // For kLibCall memory-transfer functions: true once an instrumentation pass
  // marked this call as needing the checked, metadata-aware variant (§3.2.2's
  // type-specific memcpy/memset handling; SoftBound's checked libc).
  bool checked() const { return checked_; }
  void set_checked(bool v) { checked_ = v; }

  // Debug/printer name, optional.
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  friend class Value;  // ReplaceAllUsesWith rewrites operand slots in place

  Opcode op_;
  std::vector<Value*> operands_;
  const Type* extra_type_ = nullptr;
  BinOp binop_ = BinOp::kAdd;
  CastKind cast_ = CastKind::kBitcast;
  LibFunc lib_func_ = LibFunc::kStrlen;
  IntrinsicId intrinsic_ = IntrinsicId::kCpiStore;
  unsigned field_index_ = 0;
  Function* callee_ = nullptr;
  GlobalVariable* global_ = nullptr;
  StackKind stack_kind_ = StackKind::kDefault;
  BasicBlock* successors_[2] = {nullptr, nullptr};
  bool checked_ = false;
  std::string name_;
};

const char* OpcodeName(Opcode op);
const char* BinOpName(BinOp op);
const char* CastKindName(CastKind kind);
const char* StackKindName(StackKind k);

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_INSTRUCTION_H_
