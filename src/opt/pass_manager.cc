#include "src/opt/pass_manager.h"

#include "src/ir/verifier.h"

namespace cpi::opt {

void PassManager::Add(std::unique_ptr<Pass> pass) {
  CPI_CHECK(pass != nullptr);
  passes_.push_back(std::move(pass));
}

OptReport PassManager::Run(ir::Module& module) {
  module.RecomputeUses();

  OptReport report;
  PipelineContext ctx;
  for (const auto& pass : passes_) {
    PassStats stats;
    stats.pass = pass->name();
    const bool changed = pass->Run(module, ctx, stats);
    if (changed) {
      // Deleted instructions leave register-id gaps; keep the VM's register
      // file dense.
      for (const auto& f : module.functions()) {
        f->RenumberValues();
      }
    }
    ir::VerifyOrDie(module, std::string("after pass ") + pass->name());
    report.passes.push_back(std::move(stats));
  }
  return report;
}

}  // namespace cpi::opt
