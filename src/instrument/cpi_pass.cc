// The CPI and CPS instrumentation passes (§3.2.2, §3.3).
//
// Both passes share their skeleton and differ only in the classification
// criterion (via analysis::Classifier) and in which intrinsics they emit:
// CPI maintains full based-on metadata and checks sensitive dereferences,
// CPS only moves code pointers through the safe store.
#include <map>
#include <vector>

#include "src/analysis/classify.h"
#include "src/instrument/passes.h"
#include "src/instrument/rewrite.h"

namespace cpi::instrument {
namespace {

using analysis::Classifier;
using analysis::FunctionClassification;
using analysis::MemOpClass;
using ir::Instruction;
using ir::IntrinsicId;
using ir::Opcode;
using ir::Value;

struct IntrinsicSet {
  IntrinsicId store;
  IntrinsicId store_uni;
  IntrinsicId load;
  IntrinsicId load_uni;
  IntrinsicId assert_code;
};

constexpr IntrinsicSet kCpiIntrinsics = {
    IntrinsicId::kCpiStore, IntrinsicId::kCpiStoreUni, IntrinsicId::kCpiLoad,
    IntrinsicId::kCpiLoadUni, IntrinsicId::kCpiAssertCode};
constexpr IntrinsicSet kCpsIntrinsics = {
    IntrinsicId::kCpsStore, IntrinsicId::kCpsStoreUni, IntrinsicId::kCpsLoad,
    IntrinsicId::kCpsLoadUni, IntrinsicId::kCpsAssertCode};

void InstrumentModule(ir::Module& module, analysis::Protection protection,
                      const PassOptions& options, const IntrinsicSet& ids) {
  CPI_CHECK(!module.protection().cpi && !module.protection().cps &&
            !module.protection().softbound && !module.protection().ptrenc);

  analysis::ClassifyOptions copts;
  copts.protection = protection;
  copts.char_star_heuristic = options.char_star_heuristic;
  copts.cast_dataflow = options.cast_dataflow;
  Classifier classifier(module, copts);

  for (const auto& f : module.functions()) {
    const FunctionClassification& fc = classifier.ForFunction(f.get());
    std::map<Value*, Value*> replacements;

    for (const auto& bb : f->blocks()) {
      std::vector<Instruction*> out;
      out.reserve(bb->instructions().size());

      for (Instruction* inst : bb->instructions()) {
        // Bounds check on dereferences through sensitive pointers (CPI only;
        // the classifier leaves this set empty for CPS).
        if (fc.needs_bounds_check.count(inst) > 0) {
          const bool is_store = inst->op() == Opcode::kStore;
          Value* addr = inst->operand(is_store ? 1 : 0);
          const ir::Type* pointee =
              static_cast<const ir::PointerType*>(addr->type())->pointee();
          const uint64_t size = pointee->IsVoid() ? 8 : pointee->SizeInBytes();
          Instruction* check =
              f->CreateInstruction(Opcode::kIntrinsic, module.types().VoidTy());
          check->set_intrinsic(IntrinsicId::kCpiBoundsCheck);
          check->AddOperand(addr);
          check->AddOperand(module.GetI64(size));
          out.push_back(check);
        }

        auto cls_it = fc.mem_ops.find(inst);
        const MemOpClass cls =
            cls_it == fc.mem_ops.end() ? MemOpClass::kNone : cls_it->second;

        switch (inst->op()) {
          case Opcode::kLoad: {
            if (cls == MemOpClass::kNone) {
              out.push_back(inst);
              break;
            }
            Instruction* repl = f->CreateInstruction(Opcode::kIntrinsic, inst->type());
            repl->set_intrinsic(cls == MemOpClass::kProtectedUni ? ids.load_uni : ids.load);
            repl->AddOperand(inst->operand(0));
            repl->set_name(inst->name());
            out.push_back(repl);
            replacements[inst] = repl;
            break;
          }
          case Opcode::kStore: {
            if (cls == MemOpClass::kNone) {
              out.push_back(inst);
              break;
            }
            Instruction* repl =
                f->CreateInstruction(Opcode::kIntrinsic, module.types().VoidTy());
            repl->set_intrinsic(cls == MemOpClass::kProtectedUni ? ids.store_uni : ids.store);
            repl->AddOperand(inst->operand(1));  // address
            repl->AddOperand(inst->operand(0));  // value
            out.push_back(repl);
            break;
          }
          case Opcode::kLibCall:
            if (fc.checked_libcalls.count(inst) > 0) {
              inst->set_checked(true);
            }
            out.push_back(inst);
            break;
          case Opcode::kIndirectCall: {
            // Assert the target is a safe code pointer, then call through the
            // asserted value.
            Instruction* assert_inst =
                f->CreateInstruction(Opcode::kIntrinsic, inst->operand(0)->type());
            assert_inst->set_intrinsic(ids.assert_code);
            assert_inst->AddOperand(inst->operand(0));
            out.push_back(assert_inst);
            inst->SetOperand(0, assert_inst);
            out.push_back(inst);
            break;
          }
          default:
            out.push_back(inst);
            break;
        }
      }
      bb->ReplaceInstructions(std::move(out));
    }
    RemapOperands(*f, replacements);
  }

  if (protection == analysis::Protection::kCpi) {
    module.protection().cpi = true;
  } else {
    module.protection().cps = true;
  }
  module.protection().debug_mode = options.debug_mode;
  module.protection().temporal = options.temporal;
}

}  // namespace

void ApplyCpiRewrites(ir::Module& module, const PassOptions& options) {
  InstrumentModule(module, analysis::Protection::kCpi, options, kCpiIntrinsics);
}

void ApplyCpsRewrites(ir::Module& module, const PassOptions& options) {
  InstrumentModule(module, analysis::Protection::kCps, options, kCpsIntrinsics);
}

}  // namespace cpi::instrument
