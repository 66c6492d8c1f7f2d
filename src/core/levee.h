// The public facade of the library — the equivalent of the paper's Levee
// tool (§4): pick a protection configuration, instrument a module, run it.
//
//   ir::Module m = ...;                         // or frontend::CompileC(...)
//   core::Config cfg;
//   cfg.protection = core::Protection::kCpi;    // -fcpi
//   core::Compiler compiler(cfg);
//   compiler.Instrument(m);
//   vm::RunResult r = core::Run(m, cfg, input);
//
// Protection levels map to the paper's flags:
//   kSafeStack   -fstack-protector-safe   (§3.2.4)
//   kCps         -fcps                    (§3.3)
//   kCpi         -fcpi                    (§3.2.2)
// and the baselines used in the evaluation: SoftBound, coarse CFI, stack
// cookies.
#ifndef CPI_SRC_CORE_LEVEE_H_
#define CPI_SRC_CORE_LEVEE_H_

#include <string>
#include <vector>

#include "src/instrument/passes.h"
#include "src/ir/module.h"
#include "src/opt/pass_manager.h"
#include "src/vm/machine.h"

namespace cpi::core {

enum class Protection {
  kNone,          // vanilla build
  kSafeStack,     // safe stack only
  kCps,           // code-pointer separation (includes safe stack)
  kCpi,           // code-pointer integrity (includes safe stack)
  kSoftBound,     // full-memory-safety baseline
  kCfi,           // coarse-grained CFI baseline
  kStackCookies,  // canary baseline
  kPtrEnc,        // PACTight/LIPPEN-style in-place pointer sealing
  // PACStack-style chained return MACs: each sealed return token
  // authenticates over its predecessor, so swapping two live tokens (or
  // replaying a stale one) breaks the chain even though each token alone
  // would authenticate. Return protection only — composes with data-pointer
  // schemes (see core::CompositeScheme).
  kPtrEncRetChain,
};

const char* ProtectionName(Protection p);

class ProtectionScheme;  // src/core/scheme.h

struct Config {
  Protection protection = Protection::kNone;
  // When set, overrides `protection`: compilation and execution are driven
  // by this (possibly out-of-tree) scheme instead of a registry built-in.
  // Read both through SchemeOf.
  const ProtectionScheme* scheme = nullptr;
  runtime::StoreKind store = runtime::StoreKind::kArray;
  runtime::IsolationKind isolation = runtime::IsolationKind::kSegment;
  // Safe-pointer-store shard count (vm::RunOptions::shards). 1 — the default
  // every historical table is recorded at — is one shard shared by every
  // thread, so each concurrent store access pays the sync premium; higher
  // counts partition the store into per-thread write-local shards and charge
  // only shard crossings. Behaviour is identical at any count
  // (tests/shard_test.cc).
  uint32_t shards = 1;
  // Epoch-based shard-ownership migration (vm::RunOptions::migrate). Off —
  // the default every historical table is recorded at — is static ownership:
  // one epoch in which every thread owns its own home; on (with shards > 1)
  // the VM republishes ownership at every spawn/join boundary and gives
  // readers the RCU-style epoch-local path (tests/epoch_test.cc; a no-op at
  // shards == 1 or single-threaded).
  bool migrate = false;
  bool debug_mode = false;          // §3.2.2 mirror-and-compare
  bool temporal = false;            // CETS-style temporal extension
  bool char_star_heuristic = true;  // §3.2.1
  bool cast_dataflow = true;        // §3.2.1
  bool mpx_assist = false;          // §4 MPX projection: free bounds checks
  // Which VM execution tier runs the program (all tiers produce
  // bit-identical results; tier 3, the fused superinstruction engine, is the
  // default, see vm::EngineKind). Bench drivers expose this as `--engine`.
  vm::EngineKind engine = vm::EngineKind::kFused;
  // Legacy switch for the tree-walking oracle: when set it overrides
  // `engine` with vm::EngineKind::kReference (kept because the differential
  // tests toggle the oracle through this knob).
  bool reference_interpreter = false;
  // Post-instrumentation optimization level (src/opt). 0 — the default —
  // runs no passes, so every O0 run is byte-identical to the historical
  // pipeline. 1 runs the standard pipeline (mem2reg, redundant-check
  // elimination, scheme-contributed cleanup, DCE); optimized runs keep the
  // program's output, exit code and protection verdicts bit-identical to O0
  // while cycle/access counters drop (tests/opt_test.cc enforces this).
  int opt_level = 0;
  // Scheduling quantum for the VM's deterministic round-robin thread
  // scheduler (vm::RunOptions::quantum). Irrelevant to single-threaded
  // programs; race-free threaded workloads produce identical counters at
  // any value.
  uint64_t thread_quantum = 64;
  uint64_t max_steps = 200'000'000;
  uint64_t seed = 1;
  // Optional adversarial fault plan forwarded to vm::RunOptions::faults (see
  // src/vm/fault.h). Null for every normal run; the fuzz harness uses it to
  // prove schemes contain injected runtime failures instead of crashing the
  // host.
  const vm::FaultPlan* faults = nullptr;
};

// The scheme a configuration selects: `config.scheme`, else the registry
// built-in for `config.protection`. Below this facade a scheme's identity is
// this pointer; a composite never shares it with its first component.
const ProtectionScheme& SchemeOf(const Config& config);

// Instruction counts around instrumentation and optimization, plus the
// optimizer's per-pass report when opt_level > 0. Table 2's static
// statistics are not part of a compile: analysis::ComputeModuleStats
// computes them on the unprotected module.
struct CompileOutput {
  size_t instructions_before = 0;
  size_t instructions_after = 0;        // after instrumentation
  size_t instructions_after_opt = 0;    // after optimization (== after at O0)
  opt::OptReport opt;                   // empty at O0
};

class Compiler {
 public:
  explicit Compiler(const Config& config) : config_(config) {}

  // Instruments (and, at opt_level >= 1, optimizes) `module` in place
  // according to the configuration; the module must verify cleanly before
  // and after. Returns the instruction counts and the optimizer's report.
  CompileOutput Instrument(ir::Module& module) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

struct Input {
  std::vector<uint64_t> words;
  std::vector<uint8_t> bytes;
};

// Executes an (already instrumented) module under `config`'s runtime
// settings.
vm::RunResult Run(const ir::Module& module, const Config& config, const Input& input = {});

// The same run on a module decoded once for the config's engine
// (vm::DecodedModule; the decode's tier must be the run's, CPI_CHECKed).
// Callers that run one module under many runtime settings decode it once
// per tier and pass it here.
vm::RunResult Run(const vm::DecodedModule& decoded, const Config& config,
                  const Input& input = {});

// Convenience used throughout benches/tests: instrument a freshly built
// module and run it.
vm::RunResult InstrumentAndRun(ir::Module& module, const Config& config,
                               const Input& input = {});

}  // namespace cpi::core

#endif  // CPI_SRC_CORE_LEVEE_H_
