// The instrumentation passes of the Levee prototype (§4), plus the baselines
// the paper compares against.
//
// Every pass rewrites the module in place and records itself in
// Module::protection(); the scheme layer composes them into pipelines
// (core::ProtectionScheme::Spec::stages) and re-numbers values once at the
// end (FinalizeModule). Composition rules follow the paper: the
// SafeStack pass is part of both CPI and CPS deployments and also works
// stand-alone (-fstack-protector-safe); the baselines are mutually exclusive
// with CPI/CPS.
#ifndef CPI_SRC_INSTRUMENT_PASSES_H_
#define CPI_SRC_INSTRUMENT_PASSES_H_

#include "src/ir/module.h"

namespace cpi::instrument {

struct PassOptions {
  bool char_star_heuristic = true;  // §3.2.1 char*-as-string refinement
  bool cast_dataflow = true;        // §3.2.1 unsafe-cast dataflow analysis
  bool debug_mode = false;          // §3.2.2 mirror-and-compare mode
  bool temporal = false;            // CETS-style temporal extension (§4)
};

// The schemes' rewrite stages, as the scheme layer's staged pipeline
// (core::PipelineStage) consumes them. Each applies one scheme's IR rewrites
// and records its protection flags, but leaves the final module
// re-numbering to the pipeline runner (core::ProtectionScheme::Instrument).
// All share one signature, so a stage is a plain function pointer; stages
// that read no option ignore `options`.
//
// §3.2.4: classifies every alloca as safe/unsafe, marks functions that need
// an unsafe frame, and enables the dual-stack runtime.
void ApplySafeStack(ir::Module& module, const PassOptions& options = {});

// PACStack-style chained return MACs (ProtectionFlags::ret_chain): the VM
// seals every saved return token over its predecessor and keeps a per-thread
// chain head, so a return authenticates the whole chain suffix. Pure flag
// pass — all the work happens in the VM. Mutually exclusive with PtrEnc,
// which owns the plain sealed-return-slot format.
void ApplyRetChain(ir::Module& module, const PassOptions& options = {});

// §3.2.2 CPI: rewrites sensitive loads/stores into safe-pointer-store
// intrinsics, adds bounds checks on sensitive dereferences and code-pointer
// assertions on indirect calls. §3.3 CPS: code-pointer-only protection, no
// bounds metadata. Both deploy with the safe stack (a separate stage).
void ApplyCpiRewrites(ir::Module& module, const PassOptions& options = {});
void ApplyCpsRewrites(ir::Module& module, const PassOptions& options = {});
// PACTight/LIPPEN-style in-place pointer sealing over CPS's sites: code
// pointers are stored sealed (keyed MAC over value+location in their high
// bits) in regular memory, loads authenticate, indirect calls assert
// authentication. Needs no safe region at all; the VM also seals saved
// return tokens in place.
void ApplyPtrEncRewrites(ir::Module& module, const PassOptions& options = {});
// Baseline: SoftBound-style full spatial memory safety — every pointer-typed
// load/store maintains shadow metadata and every non-trivial dereference is
// checked.
void ApplySoftBoundRewrites(ir::Module& module, const PassOptions& options = {});
// Baseline: coarse-grained CFI — indirect calls may only target
// address-taken functions.
void ApplyCfiRewrites(ir::Module& module, const PassOptions& options = {});
// Baseline: stack cookies for functions with character-array locals.
void ApplyStackCookiesRewrites(ir::Module& module, const PassOptions& options = {});

// Re-numbers all functions; needed before execution even when no pass ran.
void FinalizeModule(ir::Module& module);

}  // namespace cpi::instrument

#endif  // CPI_SRC_INSTRUMENT_PASSES_H_
