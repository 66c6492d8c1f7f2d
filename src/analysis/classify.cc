#include "src/analysis/classify.h"

#include <vector>

namespace cpi::analysis {

using ir::CastKind;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::PointerType;
using ir::Type;
using ir::Value;
using ir::ValueKind;

double ModuleStats::FnuStackPercent() const {
  return total_functions == 0
             ? 0.0
             : 100.0 * static_cast<double>(unsafe_frame_functions) /
                   static_cast<double>(total_functions);
}
double ModuleStats::MoCpiPercent() const {
  return total_mem_ops == 0 ? 0.0
                            : 100.0 * static_cast<double>(instrumented_cpi) /
                                  static_cast<double>(total_mem_ops);
}
double ModuleStats::MoCpsPercent() const {
  return total_mem_ops == 0 ? 0.0
                            : 100.0 * static_cast<double>(instrumented_cps) /
                                  static_cast<double>(total_mem_ops);
}

namespace {

const Type* Pointee(const Value* v) {
  return static_cast<const PointerType*>(v->type())->pointee();
}

// Looks through pointer bitcasts to recover the "real" type of a pointer
// argument before it was cast to void*/char* for a libc call (§3.2.2: the
// analysis inspects the real types of memset/memcpy arguments prior to the
// cast).
const Type* RealPointeeType(const Value* ptr) {
  const Value* v = ptr;
  while (v->value_kind() == ValueKind::kInstruction) {
    const auto* inst = static_cast<const Instruction*>(v);
    if (inst->op() == Opcode::kCast && inst->cast_kind() == CastKind::kBitcast) {
      v = inst->operand(0);
      continue;
    }
    break;
  }
  if (!v->type()->IsPointer()) {
    return nullptr;
  }
  return Pointee(v);
}

}  // namespace

const Value* Classifier::AddressRoot(const Value* ptr) {
  const Value* v = ptr;
  for (;;) {
    if (v->value_kind() != ValueKind::kInstruction) {
      return v;
    }
    const auto* inst = static_cast<const Instruction*>(v);
    switch (inst->op()) {
      case Opcode::kFieldAddr:
      case Opcode::kIndexAddr:
        v = inst->operand(0);
        break;
      case Opcode::kCast:
        if (inst->cast_kind() == CastKind::kBitcast) {
          v = inst->operand(0);
          break;
        }
        return v;
      default:
        return v;
    }
  }
}

Classifier::Classifier(const ir::Module& module, ClassifyOptions options)
    : module_(module), options_(options), sensitivity_(module) {
  for (const auto& f : module.functions()) {
    ClassifyFunction(*f);
  }
}

const FunctionClassification& Classifier::ForFunction(const Function* f) const {
  auto it = per_function_.find(f);
  CPI_CHECK(it != per_function_.end());
  return it->second;
}

void Classifier::ClassifyFunction(const Function& f) {
  FunctionClassification& fc = per_function_[&f];
  const bool cpi = options_.protection == Protection::kCpi;

  // ---- char*-string heuristic: values that demonstrably behave as strings.
  std::set<const Value*> string_values;
  if (options_.char_star_heuristic) {
    for (const auto& bb : f.blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        if (inst->op() == Opcode::kLibCall && ir::Info(inst->lib_func()).c_string) {
          for (const Value* op : inst->operands()) {
            if (op->type()->IsPointer()) {
              string_values.insert(op);
            }
          }
        }
        // Pointers into constant character data (string literals).
        if (inst->op() == Opcode::kGlobalAddr && inst->global()->is_const()) {
          const Type* t = inst->global()->type();
          if (t->IsArray() &&
              static_cast<const ir::ArrayType*>(t)->element()->IsInt() &&
              static_cast<const ir::IntType*>(static_cast<const ir::ArrayType*>(t)->element())
                  ->is_char()) {
            string_values.insert(inst);
          }
        }
      }
    }
    // One backward step through address computations: an IndexAddr/bitcast of
    // a string value is a string value too.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& bb : f.blocks()) {
        for (const Instruction* inst : bb->instructions()) {
          if (string_values.count(inst) > 0) {
            continue;
          }
          const bool derives = (inst->op() == Opcode::kIndexAddr ||
                                (inst->op() == Opcode::kCast &&
                                 inst->cast_kind() == CastKind::kBitcast)) &&
                               string_values.count(inst->operand(0)) > 0;
          if (derives) {
            string_values.insert(inst);
            changed = true;
          }
        }
      }
    }
  }

  // ---- unsafe-cast dataflow (§3.2.1): any value cast to a sensitive pointer
  // type is itself sensitive; propagate backwards through pure value
  // computations and through stack slots.
  std::set<const Value*> cast_sensitive;
  if (options_.cast_dataflow && cpi) {
    std::vector<const Value*> worklist;
    for (const auto& bb : f.blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        if (inst->op() != Opcode::kCast) {
          continue;
        }
        const bool to_sensitive = sensitivity_.IsSensitive(inst->type());
        const bool from_sensitive = sensitivity_.IsSensitive(inst->operand(0)->type());
        if (to_sensitive && !from_sensitive) {
          worklist.push_back(inst->operand(0));
        }
      }
    }
    // Backward closure over operand edges; loads pull in their address roots
    // so that stores into the same slot get instrumented as well.
    std::set<const Value*> slot_roots;
    while (!worklist.empty()) {
      const Value* v = worklist.back();
      worklist.pop_back();
      if (!cast_sensitive.insert(v).second) {
        continue;
      }
      if (v->value_kind() != ValueKind::kInstruction) {
        continue;
      }
      const auto* inst = static_cast<const Instruction*>(v);
      switch (inst->op()) {
        case Opcode::kCast:
        case Opcode::kSelect:
        case Opcode::kBinOp:
        case Opcode::kIndexAddr:
          for (const Value* op : inst->operands()) {
            worklist.push_back(op);
          }
          break;
        case Opcode::kLoad:
          slot_roots.insert(AddressRoot(inst->operand(0)));
          break;
        default:
          break;
      }
    }
    // Mark every load/store rooted at a tainted slot as sensitive.
    for (const auto& bb : f.blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        if (inst->op() == Opcode::kLoad &&
            slot_roots.count(AddressRoot(inst->operand(0))) > 0) {
          cast_sensitive.insert(inst);
        }
        if (inst->op() == Opcode::kStore &&
            slot_roots.count(AddressRoot(inst->operand(1))) > 0) {
          cast_sensitive.insert(inst->operand(0));
        }
      }
    }
  }

  // ---- main per-instruction classification.
  for (const auto& bb : f.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      switch (inst->op()) {
        case Opcode::kLoad:
        case Opcode::kStore: {
          const bool is_store = inst->op() == Opcode::kStore;
          const Value* addr = inst->operand(is_store ? 1 : 0);
          const Type* value_type = is_store ? inst->operand(0)->type() : inst->type();
          const Value* moved = is_store ? inst->operand(0) : static_cast<const Value*>(inst);

          MemOpClass cls = MemOpClass::kNone;
          const bool sensitive = cpi ? sensitivity_.IsSensitive(value_type)
                                     : sensitivity_.IsSensitiveForCps(value_type);
          if (sensitive) {
            const bool universal = Sensitivity::IsUniversal(value_type);
            const bool is_string = universal && string_values.count(moved) > 0;
            if (is_string) {
              cls = MemOpClass::kNone;  // char* heuristic: plain C string
            } else if (universal) {
              cls = MemOpClass::kProtectedUni;
            } else {
              cls = MemOpClass::kProtected;
            }
          }
          // Unsafe-cast dataflow can only add instrumentation.
          if (cls == MemOpClass::kNone && cpi &&
              (cast_sensitive.count(moved) > 0 || cast_sensitive.count(inst) > 0)) {
            cls = MemOpClass::kProtectedUni;
          }
          fc.mem_ops[inst] = cls;

          // CPI bounds checks: dereferences whose address derives from a
          // sensitive pointer *value* (loaded, passed in, or computed), as
          // opposed to a locally-proven object address.
          if (cpi) {
            // Accesses rooted directly at an alloca or global are provably
            // safe at compile time (the "powerful static analysis passes"
            // §3.2.2 lets optimise checks away). Malloc-rooted accesses keep
            // their check: the object may be freed (temporal safety).
            const Value* root = AddressRoot(addr);
            const bool statically_safe =
                root->value_kind() == ValueKind::kInstruction &&
                (static_cast<const Instruction*>(root)->op() == Opcode::kAlloca ||
                 static_cast<const Instruction*>(root)->op() == Opcode::kGlobalAddr);
            if (!statically_safe && root->type()->IsPointer() &&
                sensitivity_.IsSensitive(root->type())) {
              fc.needs_bounds_check.insert(inst);
            }
          }
          break;
        }
        case Opcode::kLibCall: {
          if (!ir::IsMemTransfer(inst->lib_func())) {
            break;
          }
          // §3.2.2: memory-transfer calls whose arguments really point to
          // sensitive data must use the checked, metadata-moving variant.
          bool touches_sensitive = false;
          for (const Value* op : inst->operands()) {
            if (!op->type()->IsPointer()) {
              continue;
            }
            const Type* real = RealPointeeType(op);
            if (real == nullptr) {
              continue;
            }
            const bool hit = cpi ? sensitivity_.IsSensitive(real) : ContainsCodePointer(real);
            // char* heuristic: transfers between plain strings stay cheap.
            const bool is_string_arg =
                options_.char_star_heuristic && string_values.count(op) > 0;
            if (hit && !is_string_arg) {
              touches_sensitive = true;
            }
          }
          if (touches_sensitive) {
            fc.checked_libcalls.insert(inst);
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

ModuleStats ComputeModuleStats(const ir::Module& module, const ClassifyOptions& base_options) {
  ModuleStats stats;

  ClassifyOptions cpi_options = base_options;
  cpi_options.protection = Protection::kCpi;
  Classifier cpi(module, cpi_options);

  ClassifyOptions cps_options = base_options;
  cps_options.protection = Protection::kCps;
  Classifier cps(module, cps_options);

  for (const auto& f : module.functions()) {
    ++stats.total_functions;
    if (AnalyzeSafeStack(*f).NeedsUnsafeFrame()) {
      ++stats.unsafe_frame_functions;
    }
    const FunctionClassification& fc_cpi = cpi.ForFunction(f.get());
    const FunctionClassification& fc_cps = cps.ForFunction(f.get());
    for (const auto& bb : f->blocks()) {
      for (const Instruction* inst : bb->instructions()) {
        const bool is_mem_op =
            inst->op() == Opcode::kLoad || inst->op() == Opcode::kStore ||
            (inst->op() == Opcode::kLibCall && ir::IsMemTransfer(inst->lib_func()));
        if (!is_mem_op) {
          continue;
        }
        ++stats.total_mem_ops;
        auto counts = [&](const FunctionClassification& fc) {
          auto it = fc.mem_ops.find(inst);
          const bool instrumented_memop = it != fc.mem_ops.end() && it->second != MemOpClass::kNone;
          return instrumented_memop || fc.needs_bounds_check.count(inst) > 0 ||
                 fc.checked_libcalls.count(inst) > 0;
        };
        if (counts(fc_cpi)) {
          ++stats.instrumented_cpi;
        }
        if (counts(fc_cps)) {
          ++stats.instrumented_cps;
        }
      }
    }
  }
  return stats;
}

}  // namespace cpi::analysis
