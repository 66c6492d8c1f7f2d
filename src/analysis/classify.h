// Memory-operation classification (§3.2.1-§3.2.2).
//
// Given the type-based sensitivity criterion, this pass walks every function
// and decides, per load/store/libcall, what instrumentation CPI and CPS
// require:
//   - sensitive loads/stores -> safe-pointer-store intrinsics
//     (universal types get the runtime-dispatched *Uni variants),
//   - dereferences through sensitive pointers -> bounds checks,
//   - memory-transfer libcalls touching sensitive data -> checked,
//     metadata-aware variants (the paper's type-specific memset/memcpy),
//   - the char*-string heuristic and the unsafe-cast dataflow analysis
//     refine the type-based result in both directions.
//
// The aggregate counts are exactly what Table 2 reports (MOCPS / MOCPI /
// FNUStack).
#ifndef CPI_SRC_ANALYSIS_CLASSIFY_H_
#define CPI_SRC_ANALYSIS_CLASSIFY_H_

#include <map>
#include <set>

#include "src/analysis/safe_stack.h"
#include "src/analysis/sensitivity.h"
#include "src/ir/module.h"

namespace cpi::analysis {

enum class Protection { kCpi, kCps };

struct ClassifyOptions {
  Protection protection = Protection::kCpi;
  // §3.2.1: char* values that demonstrably behave as C strings (flow into
  // libc string functions or come from string constants) are not treated as
  // universal pointers.
  bool char_star_heuristic = true;
  // §3.2.1: the dataflow analysis that marks values cast to sensitive
  // pointer types (and the memory slots they flow through) as sensitive.
  bool cast_dataflow = true;
};

// How a single load/store must be instrumented.
enum class MemOpClass {
  kNone,         // regular memory operation, zero overhead
  kProtected,    // sensitive: value+metadata via the safe pointer store
  kProtectedUni, // universal type: runtime-dispatched safe/regular variant
};

struct FunctionClassification {
  // Classification for every kLoad/kStore instruction.
  std::map<const ir::Instruction*, MemOpClass> mem_ops;
  // Loads/stores that additionally need a bounds check on their address
  // operand because the address derives from a sensitive pointer value
  // (CPI only; CPS has no bounds metadata).
  std::set<const ir::Instruction*> needs_bounds_check;
  // Memory-transfer libcalls (memcpy & co.) that must use the checked,
  // metadata-moving variant because they touch sensitive data.
  std::set<const ir::Instruction*> checked_libcalls;
};

// Table 2 equivalents.
struct ModuleStats {
  uint64_t total_functions = 0;
  uint64_t unsafe_frame_functions = 0;  // FNUStack numerator
  uint64_t total_mem_ops = 0;
  uint64_t instrumented_cpi = 0;  // MOCPI numerator
  uint64_t instrumented_cps = 0;  // MOCPS numerator

  double FnuStackPercent() const;
  double MoCpiPercent() const;
  double MoCpsPercent() const;
};

class Classifier {
 public:
  Classifier(const ir::Module& module, ClassifyOptions options);

  const FunctionClassification& ForFunction(const ir::Function* f) const;
  const ClassifyOptions& options() const { return options_; }
  const Sensitivity& sensitivity() const { return sensitivity_; }

  // Walks the address-computation chain (field/index/bitcast) of a pointer
  // value back to its root. Exposed for tests.
  static const ir::Value* AddressRoot(const ir::Value* ptr);

 private:
  void ClassifyFunction(const ir::Function& f);

  const ir::Module& module_;
  ClassifyOptions options_;
  Sensitivity sensitivity_;
  std::map<const ir::Function*, FunctionClassification> per_function_;
};

// Computes Table 2 statistics for a module under both protections: one
// classification with `base_options`' flags and kCpi, one with kCps
// (`base_options.protection` is ignored). Compiles do not call this; the
// suite's Table 2 calls it once per workload on the unprotected module.
ModuleStats ComputeModuleStats(const ir::Module& module, const ClassifyOptions& base_options);

}  // namespace cpi::analysis

#endif  // CPI_SRC_ANALYSIS_CLASSIFY_H_
