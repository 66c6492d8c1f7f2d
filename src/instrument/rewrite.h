// The one rewrite walker every instrumentation pass runs on.
//
// A pass says, per instruction, which intrinsics apply to it (a SiteRewrite);
// RewriteFunction walks every block, splices those intrinsics in, and points
// the uses of each replaced load at its replacement. CPI, CPS and PtrEnc
// (cpi_pass.cc), SoftBound and CFI (baseline_passes.cc) are rules over it.
#ifndef CPI_SRC_INSTRUMENT_REWRITE_H_
#define CPI_SRC_INSTRUMENT_REWRITE_H_

#include <map>
#include <optional>
#include <vector>

#include "src/ir/module.h"

namespace cpi::instrument {

// What happens at one instruction. An empty SiteRewrite keeps it as it is.
struct SiteRewrite {
  // Load/store: an access check (addr, access size) -> void spliced before
  // it (kCpiBoundsCheck, kSbCheck).
  std::optional<ir::IntrinsicId> check;
  // Load/store: the intrinsic replacing it, (addr) -> value for a load and
  // (addr, value) -> void for a store. A replaced load keeps its name.
  std::optional<ir::IntrinsicId> replace;
  // Indirect call: a target check (fnptr) -> fnptr spliced before it; the
  // call then goes through the checked value.
  std::optional<ir::IntrinsicId> call_check;
  // Libcall: marks it checked, so the VM moves protected pointers (and their
  // metadata or seals) along with the bytes.
  bool checked_libcall = false;
};

// RewriteFunction's state for one function.
class FunctionRewriter {
 public:
  FunctionRewriter(ir::Module& module, ir::Function& function)
      : module_(module), function_(function) {}
  void Add(ir::Instruction* inst, const SiteRewrite& site);
  void EndBlock(ir::BasicBlock& block);
  void RemapReplacedLoads();

 private:
  ir::Instruction* Emit(ir::IntrinsicId id, const ir::Type* type,
                        std::initializer_list<ir::Value*> operands);

  ir::Module& module_;
  ir::Function& function_;
  std::vector<ir::Instruction*> out_;
  std::map<ir::Value*, ir::Value*> replacements_;
};

// Applies `rule` (const ir::Instruction& -> SiteRewrite) to every
// instruction of `function`.
template <typename Rule>
void RewriteFunction(ir::Module& module, ir::Function& function, Rule rule) {
  FunctionRewriter rewriter(module, function);
  for (const auto& block : function.blocks()) {
    for (ir::Instruction* inst : block->instructions()) {
      rewriter.Add(inst, rule(*inst));
    }
    rewriter.EndBlock(*block);
  }
  rewriter.RemapReplacedLoads();
}

}  // namespace cpi::instrument

#endif  // CPI_SRC_INSTRUMENT_REWRITE_H_
