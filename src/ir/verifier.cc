#include "src/ir/verifier.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/support/check.h"

namespace cpi::ir {
namespace {

// The values and blocks of one function, as a flat open-addressing set of
// addresses with linear probing. Storage is sized once for the largest
// function of a module; each function then uses only a power-of-two prefix
// sized to its own key count, so clearing and filling it stay linear in the
// function.
class PointerSet {
 public:
  // Sizes the storage for functions of up to `max_keys` keys.
  void Reserve(size_t max_keys) {
    const size_t capacity = size_t{1} << BitsFor(max_keys);
    if (slots_.size() < capacity) {
      slots_.assign(capacity, nullptr);
    }
  }

  // Empties the set and sets it up for at most `keys` inserts.
  void Clear(size_t keys) {
    const unsigned bits = BitsFor(keys);
    const size_t capacity = size_t{1} << bits;
    CPI_CHECK(capacity <= slots_.size());
    std::fill(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(capacity), nullptr);
    mask_ = capacity - 1;
    shift_ = 64 - bits;
  }

  void Insert(const void* p) {
    for (size_t i = Slot(p);; i = (i + 1) & mask_) {
      if (slots_[i] == nullptr) {
        slots_[i] = p;
        return;
      }
      if (slots_[i] == p) {
        return;
      }
    }
  }

  // nullptr marks an empty slot, so it is never a member.
  bool Contains(const void* p) const {
    for (size_t i = Slot(p);; i = (i + 1) & mask_) {
      if (slots_[i] == p) {
        return p != nullptr;
      }
      if (slots_[i] == nullptr) {
        return false;
      }
    }
  }

 private:
  // log2 of the capacity for `keys` keys: at most half full, so every probe
  // ends at an empty slot within a few steps.
  static unsigned BitsFor(size_t keys) {
    unsigned bits = 4;
    while ((size_t{1} << bits) < 2 * keys) {
      ++bits;
    }
    return bits;
  }

  // Fibonacci hashing: the multiply spreads the aligned low bits of an
  // address into the high bits, which select the slot.
  size_t Slot(const void* p) const {
    const uint64_t key = reinterpret_cast<uintptr_t>(p);
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<const void*> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

// Arguments, block-resident instructions and blocks of `f`: the keys the
// verifier puts in its PointerSet for `f`.
size_t OwnedCount(const Function& f) {
  size_t n = f.args().size() + f.blocks().size();
  for (const auto& bb : f.blocks()) {
    n += bb->instructions().size();
  }
  return n;
}

class Verifier {
 public:
  explicit Verifier(const Module& module) : module_(module) {}

  std::vector<std::string> Run() {
    size_t max_owned = 0;
    for (const auto& f : module_.functions()) {
      max_owned = std::max(max_owned, OwnedCount(*f));
    }
    owned_.Reserve(max_owned);

    for (const auto& g : module_.globals()) {
      if (!IsSized(g->type())) {
        Error("global @" + g->name(), "unsized type " + g->type()->ToString());
      }
    }
    bool has_main = false;
    for (const auto& f : module_.functions()) {
      if (f->name() == "main") {
        has_main = true;
      }
      VerifyFunction(*f);
    }
    if (!has_main) {
      Error("module", "no main function");
    }
    return std::move(errors_);
  }

 private:
  // The block an error is reported in; its "function/block" text is built
  // only when an error is reported.
  struct Where {
    const Function& f;
    const BasicBlock& bb;
  };

  void Error(const std::string& where, const std::string& what) {
    errors_.push_back(where + ": " + what);
  }

  void Error(const Where& where, const std::string& what) {
    Error(where.f.name() + "/" + where.bb.name(), what);
  }

  void VerifyFunction(const Function& f) {
    if (f.blocks().empty()) {
      Error(f.name(), "function has no blocks");
      return;
    }

    // Collect all values and blocks defined in this function so operand and
    // successor ownership can be validated. An instruction created but never
    // placed in a block is not collected, so using it is an error too.
    owned_.Clear(OwnedCount(f));
    for (const auto& arg : f.args()) {
      owned_.Insert(arg.get());
    }
    for (const auto& bb : f.blocks()) {
      owned_.Insert(bb.get());
      for (const Instruction* inst : bb->instructions()) {
        owned_.Insert(inst);
      }
    }

    for (const auto& bb : f.blocks()) {
      const Where where{f, *bb};
      if (bb->instructions().empty()) {
        Error(where, "empty block");
        continue;
      }
      if (!bb->HasTerminator()) {
        Error(where, "block does not end in a terminator");
      }
      for (size_t i = 0; i < bb->instructions().size(); ++i) {
        const Instruction* inst = bb->instructions()[i];
        if (inst->IsTerminator() && i + 1 != bb->instructions().size()) {
          Error(where, "terminator in the middle of a block");
        }
        for (const Value* op : inst->operands()) {
          if (!op->IsConstant() && !owned_.Contains(op)) {
            Error(where, std::string(OpcodeName(inst->op())) +
                             " uses a value from another function");
          } else if (op->type()->IsVoid()) {
            Error(where, std::string(OpcodeName(inst->op())) + " uses a void value");
          }
        }
        for (size_t s = 0; s < inst->successor_count(); ++s) {
          if (!owned_.Contains(inst->successor(s))) {
            Error(where, "branch to a block of another function");
          }
        }
        VerifyInstruction(where, *inst);
      }
    }
  }

  static bool IsScalar(const Type* t) { return t->IsInt() || t->IsFloat() || t->IsPointer(); }

  // An instruction's name in diagnostics: the callee of a libcall or an
  // intrinsic, else the opcode.
  static const char* Label(const Instruction& inst) {
    switch (inst.op()) {
      case Opcode::kLibCall:
        return LibFuncName(inst.lib_func());
      case Opcode::kIntrinsic:
        return IntrinsicName(inst.intrinsic());
      default:
        return OpcodeName(inst.op());
    }
  }

  static const Type* Pointee(const Value* v) {
    return static_cast<const PointerType*>(v->type())->pointee();
  }

  void VerifyInstruction(const Where& where, const Instruction& inst) {
    auto expect_operands = [&](size_t n) {
      if (inst.operands().size() != n) {
        std::ostringstream os;
        os << Label(inst) << ": expected " << n << " operands, got "
           << inst.operands().size();
        Error(where, os.str());
        return false;
      }
      return true;
    };
    auto expect_ptr = [&](size_t i) {
      if (!inst.operand(i)->type()->IsPointer()) {
        Error(where, std::string(Label(inst)) + ": operand " + std::to_string(i) +
                         " must be a pointer");
        return false;
      }
      return true;
    };
    auto expect_int = [&](size_t i) {
      if (!inst.operand(i)->type()->IsInt()) {
        Error(where, std::string(Label(inst)) + ": operand " + std::to_string(i) +
                         " must be an integer");
        return false;
      }
      return true;
    };

    switch (inst.op()) {
      case Opcode::kAlloca:
        expect_operands(0);
        if (inst.extra_type() == nullptr) {
          Error(where, "alloca without allocated type");
        } else if (!IsSized(inst.extra_type())) {
          Error(where, "alloca of unsized type " + inst.extra_type()->ToString());
        }
        break;
      case Opcode::kLoad:
        if (expect_operands(1) && expect_ptr(0)) {
          const Type* pointee = Pointee(inst.operand(0));
          if (!IsScalar(pointee)) {
            Error(where, "load of non-scalar type");
          } else if (pointee != inst.type()) {
            Error(where, "load result type does not match pointee");
          }
        }
        break;
      case Opcode::kStore:
        if (expect_operands(2) && expect_ptr(1)) {
          const Type* pointee = Pointee(inst.operand(1));
          if (pointee->IsStruct() || pointee->IsArray()) {
            Error(where, "store of non-scalar type");
          } else if (!pointee->IsVoid() && pointee != inst.operand(0)->type()) {
            // Stores through void* are untyped; all others must match.
            Error(where, "store value type does not match pointee");
          }
        }
        break;
      case Opcode::kFieldAddr:
        if (expect_operands(1) && expect_ptr(0)) {
          const Type* pointee = Pointee(inst.operand(0));
          if (!pointee->IsStruct() || static_cast<const StructType*>(pointee)->is_opaque()) {
            Error(where, "fieldaddr base is not a sized struct pointer");
          } else if (inst.field_index() >=
                     static_cast<const StructType*>(pointee)->fields().size()) {
            Error(where, "fieldaddr index out of range");
          } else if (!inst.type()->IsPointer() ||
                     Pointee(&inst) != static_cast<const StructType*>(pointee)
                                           ->fields()[inst.field_index()]
                                           .type) {
            Error(where, "fieldaddr result is not a pointer to the field type");
          }
        }
        break;
      case Opcode::kIndexAddr:
        if (expect_operands(2) && expect_ptr(0)) {
          expect_int(1);
          const Type* pointee = Pointee(inst.operand(0));
          if (!IsSized(pointee->IsArray()
                           ? static_cast<const ArrayType*>(pointee)->element()
                           : pointee)) {
            Error(where, "index into unsized type " + pointee->ToString());
          }
        }
        break;
      case Opcode::kBinOp: {
        if (!expect_operands(2)) {
          break;
        }
        const bool is_float_op = inst.binop() >= BinOp::kFAdd;
        for (size_t i = 0; i < 2; ++i) {
          const Type* t = inst.operand(i)->type();
          if (is_float_op && !t->IsFloat()) {
            Error(where, "float binop with non-float operand");
          }
          if (!is_float_op && !t->IsInt() && !t->IsPointer()) {
            Error(where, "integer binop with non-integer operand");
          }
        }
        break;
      }
      case Opcode::kCast: {
        if (!expect_operands(1)) {
          break;
        }
        const Type* from = inst.operand(0)->type();
        const Type* to = inst.type();
        switch (inst.cast_kind()) {
          case CastKind::kBitcast:
            if (!from->IsPointer() || !to->IsPointer()) {
              Error(where, "bitcast requires pointer types");
            }
            break;
          case CastKind::kPtrToInt:
            if (!from->IsPointer() || !to->IsInt()) {
              Error(where, "ptrtoint requires pointer -> int");
            }
            break;
          case CastKind::kIntToPtr:
            if (!from->IsInt() || !to->IsPointer()) {
              Error(where, "inttoptr requires int -> pointer");
            }
            break;
          case CastKind::kTrunc:
          case CastKind::kZExt:
          case CastKind::kSExt:
            if (!from->IsInt() || !to->IsInt()) {
              Error(where, "integer cast requires int -> int");
            }
            break;
          case CastKind::kIntToFloat:
            if (!from->IsInt() || !to->IsFloat()) {
              Error(where, "inttofloat requires int -> float");
            }
            break;
          case CastKind::kFloatToInt:
            if (!from->IsFloat() || !to->IsInt()) {
              Error(where, "floattoint requires float -> int");
            }
            break;
        }
        break;
      }
      case Opcode::kSelect:
        if (expect_operands(3)) {
          expect_int(0);
          if (inst.operand(1)->type() != inst.operand(2)->type()) {
            Error(where, "select arms have different types");
          } else if (inst.type() != inst.operand(1)->type()) {
            Error(where, "select result type does not match its arms");
          }
        }
        break;
      case Opcode::kCall: {
        const Function* callee = inst.callee();
        if (callee == nullptr) {
          Error(where, "call without callee");
          break;
        }
        if (inst.type() != callee->type()->return_type()) {
          Error(where, "call result type does not match callee return type");
        }
        const auto& params = callee->type()->params();
        if (inst.operands().size() != params.size()) {
          Error(where, "call argument count mismatch");
          break;
        }
        for (size_t i = 0; i < params.size(); ++i) {
          if (inst.operand(i)->type() != params[i]) {
            Error(where, "call argument " + std::to_string(i) + " type mismatch");
          }
        }
        break;
      }
      case Opcode::kSpawn: {
        const Function* worker = inst.callee();
        if (worker == nullptr) {
          Error(where, "spawn without callee");
          break;
        }
        if (!worker->type()->return_type()->IsInt()) {
          Error(where, "spawn callee must return an integer (join's result)");
        }
        if (!inst.type()->IsInt()) {
          Error(where, "spawn must produce an integer thread id");
        }
        const auto& params = worker->type()->params();
        if (inst.operands().size() != params.size()) {
          Error(where, "spawn argument count mismatch");
          break;
        }
        for (size_t i = 0; i < params.size(); ++i) {
          if (inst.operand(i)->type() != params[i]) {
            Error(where, "spawn argument " + std::to_string(i) + " type mismatch");
          }
        }
        break;
      }
      case Opcode::kJoin:
        if (expect_operands(1)) {
          expect_int(0);
        }
        if (!inst.type()->IsInt()) {
          Error(where, "join must produce an integer");
        }
        break;
      case Opcode::kYield:
        expect_operands(0);
        break;
      case Opcode::kIndirectCall: {
        if (inst.operands().empty() || !inst.operand(0)->type()->IsPointer() ||
            !IsCodePointer(inst.operand(0)->type())) {
          Error(where, "indirect call target is not a function pointer");
          break;
        }
        const auto* fn_type = static_cast<const FunctionType*>(Pointee(inst.operand(0)));
        if (inst.type() != fn_type->return_type()) {
          Error(where, "indirect call result type does not match callee return type");
        }
        const auto& params = fn_type->params();
        if (inst.operands().size() - 1 != params.size()) {
          Error(where, "indirect call argument count mismatch");
          break;
        }
        for (size_t i = 0; i < params.size(); ++i) {
          if (inst.operand(i + 1)->type() != params[i]) {
            Error(where, "indirect call argument " + std::to_string(i) + " type mismatch");
          }
        }
        break;
      }
      case Opcode::kLibCall: {
        const LibFuncInfo& info = Info(inst.lib_func());
        const std::string_view kinds = info.operands;
        if (expect_operands(kinds.size())) {
          for (size_t i = 0; i < kinds.size(); ++i) {
            if (kinds[i] == 'p') {
              expect_ptr(i);
            } else {
              expect_int(i);
            }
          }
          if (info.returns_dst ? inst.type() != inst.operand(0)->type() : !inst.type()->IsInt()) {
            Error(where, std::string(Label(inst)) + ": result type does not match its signature");
          }
        }
        break;
      }
      case Opcode::kMalloc:
        if (expect_operands(1)) {
          expect_int(0);
          if (!inst.type()->IsPointer()) {
            Error(where, "malloc must produce a pointer");
          }
        }
        break;
      case Opcode::kFree:
        if (expect_operands(1)) {
          expect_ptr(0);
        }
        break;
      case Opcode::kFuncAddr:
        expect_operands(0);
        if (inst.callee() == nullptr) {
          Error(where, "funcaddr without callee");
        }
        break;
      case Opcode::kGlobalAddr:
        expect_operands(0);
        if (inst.global() == nullptr) {
          Error(where, "globaladdr without global");
        }
        break;
      case Opcode::kBr:
        expect_operands(0);
        break;
      case Opcode::kCondBr:
        if (expect_operands(1)) {
          expect_int(0);
        }
        break;
      case Opcode::kRet: {
        const Type* ret = where.f.type()->return_type();
        if (ret->IsVoid()) {
          expect_operands(0);
        } else if (expect_operands(1)) {
          if (inst.operand(0)->type() != ret) {
            Error(where, "return value type mismatch");
          }
        }
        break;
      }
      case Opcode::kInput:
        expect_operands(0);
        break;
      case Opcode::kOutput:
        expect_operands(1);
        break;
      case Opcode::kIntrinsic: {
        const char* label = Label(inst);
        const IntrinsicShape shape = Info(inst.intrinsic()).shape;
        switch (shape) {
          case IntrinsicShape::kStore:
            if (expect_operands(2)) {
              expect_ptr(0);
              if (!IsScalar(inst.operand(1)->type())) {
                Error(where, std::string(label) + ": stored value must be scalar");
              }
            }
            break;
          case IntrinsicShape::kLoad:
            if (expect_operands(1)) {
              expect_ptr(0);
            }
            if (!IsScalar(inst.type())) {
              Error(where, std::string(label) + ": load intrinsic must produce a scalar");
            }
            break;
          case IntrinsicShape::kCheck:
            if (expect_operands(2)) {
              expect_ptr(0);
              expect_int(1);
            }
            break;
          case IntrinsicShape::kAssert:
            if (expect_operands(1)) {
              expect_ptr(0);
              if (inst.type() != inst.operand(0)->type()) {
                Error(where,
                      std::string(label) + ": assert result type must match its operand");
              }
            }
            break;
        }
        if ((shape == IntrinsicShape::kStore || shape == IntrinsicShape::kCheck) &&
            !inst.type()->IsVoid()) {
          Error(where, std::string(label) +
                           (shape == IntrinsicShape::kStore ? ": store" : ": check") +
                           " intrinsic must produce void");
        }
        break;
      }
    }
  }

  const Module& module_;
  std::vector<std::string> errors_;
  // What the function being verified owns; sized once per module.
  PointerSet owned_;
};

}  // namespace

std::vector<std::string> VerifyModule(const Module& module) { return Verifier(module).Run(); }

void VerifyOrDie(const Module& module, const std::string& context) {
  const std::vector<std::string> errors = VerifyModule(module);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: %s\n", context.c_str(), e.c_str());
  }
  CPI_CHECK(errors.empty());
}

bool IsValid(const Module& module) { return VerifyModule(module).empty(); }

}  // namespace cpi::ir
