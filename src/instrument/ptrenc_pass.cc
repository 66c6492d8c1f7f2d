// The PtrEnc instrumentation pass: PACTight/LIPPEN-style in-place pointer
// sealing.
//
// Uses the CPS sensitivity criterion (code pointers and the universal slots
// they may flow through) but a fundamentally different runtime shape: instead
// of diverting protected pointers into a safe region, every protected store
// seals the pointer in place (keyed MAC in the unused high bits, bound to the
// storage location) and every protected load authenticates it. Indirect
// calls assert that the target value authenticated. The VM additionally
// seals saved return tokens in place (see ProtectionFlags::ptrenc), so the
// scheme needs neither a safe pointer store nor a safe stack.
#include <map>
#include <vector>

#include "src/analysis/classify.h"
#include "src/instrument/passes.h"
#include "src/instrument/rewrite.h"

namespace cpi::instrument {

void ApplyPtrEncRewrites(ir::Module& module, const PassOptions& options) {
  CPI_CHECK(!module.protection().cpi && !module.protection().cps &&
            !module.protection().softbound && !module.protection().ptrenc);
  // PtrEnc owns the plain sealed-return-slot format; the chained variant
  // must not stack on top of it (the scheme layer rejects the combination
  // as a ret-mac write conflict before instrumentation ever runs).
  CPI_CHECK(!module.protection().ret_chain);

  using analysis::MemOpClass;
  using ir::Instruction;
  using ir::IntrinsicId;
  using ir::Opcode;
  using ir::Value;

  analysis::ClassifyOptions copts;
  copts.protection = analysis::Protection::kCps;
  copts.char_star_heuristic = options.char_star_heuristic;
  copts.cast_dataflow = options.cast_dataflow;
  analysis::Classifier classifier(module, copts);

  for (const auto& f : module.functions()) {
    const analysis::FunctionClassification& fc = classifier.ForFunction(f.get());
    std::map<Value*, Value*> replacements;

    for (const auto& bb : f->blocks()) {
      std::vector<Instruction*> out;
      out.reserve(bb->instructions().size());

      for (Instruction* inst : bb->instructions()) {
        auto cls_it = fc.mem_ops.find(inst);
        const MemOpClass cls =
            cls_it == fc.mem_ops.end() ? MemOpClass::kNone : cls_it->second;

        switch (inst->op()) {
          case Opcode::kLoad: {
            if (cls == MemOpClass::kNone) {
              out.push_back(inst);
              break;
            }
            // In-place sealing dispatches on the stored word itself, so the
            // definite and universal variants collapse into one intrinsic.
            Instruction* repl = f->CreateInstruction(Opcode::kIntrinsic, inst->type());
            repl->set_intrinsic(IntrinsicId::kSealLoad);
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
            repl->set_intrinsic(IntrinsicId::kSealStore);
            repl->AddOperand(inst->operand(1));  // address
            repl->AddOperand(inst->operand(0));  // value
            out.push_back(repl);
            break;
          }
          case Opcode::kLibCall:
            // Checked memory transfers re-seal moved pointers for their new
            // location (the location is part of the MAC domain).
            if (fc.checked_libcalls.count(inst) > 0) {
              inst->set_checked(true);
            }
            out.push_back(inst);
            break;
          case Opcode::kIndirectCall: {
            Instruction* assert_inst =
                f->CreateInstruction(Opcode::kIntrinsic, inst->operand(0)->type());
            assert_inst->set_intrinsic(IntrinsicId::kSealAssertCode);
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

  module.protection().ptrenc = true;
}

}  // namespace cpi::instrument
