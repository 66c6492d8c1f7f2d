// The execution engine.
//
// Interprets an (optionally instrumented) module against the dual-region
// memory model of Appendix A: a regular region Mu that memory bugs can
// corrupt freely, and a safe region Ms (safe pointer store + safe stacks)
// reachable only through intrinsics and compiler-generated frame accesses.
//
// The machine charges every operation through a deterministic cycle + cache
// cost model, so protection overheads are measured as simulated-cycle ratios
// — stable, explainable numbers whose *shape* tracks the paper's wall-clock
// results.
//
// Control-flow hijacking is modelled faithfully: saved return addresses are
// ordinary (corruptible) memory words when no safe stack is active; a
// corrupted return slot or function pointer transfers control to whatever it
// decodes to, exactly like a ret/call on real hardware.
#ifndef CPI_SRC_VM_MACHINE_H_
#define CPI_SRC_VM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/runtime/safe_store.h"
#include "src/runtime/temporal.h"
#include "src/runtime/violation.h"
#include "src/vm/fault.h"
#include "src/vm/memory.h"

namespace cpi::vm {

enum class RunStatus {
  kOk,         // main returned normally
  kViolation,  // a protection mechanism aborted the program (attack prevented)
  kCrash,      // memory fault, bad jump, division by zero, ...
  kOutOfFuel,  // step budget exhausted
};

const char* RunStatusName(RunStatus s);

// Execution tiers. All three produce bit-identical RunResults — simulated
// counters, output, memory footprint, violations — and differ only in
// wall-clock (tests/decode_test.cc and tests/fuse_test.cc enforce the
// equivalence). kFused is the default everywhere; its wall-clock edge over
// kDecoded is small (docs/ARCHITECTURE.md, "What fusion buys"). The other
// tiers exist as oracles and escape hatches (`--engine` in the bench
// drivers).
enum class EngineKind : uint8_t {
  kReference,  // tier 1: tree-walking evaluator over the IR object graph
  kDecoded,    // tier 2: predecoded micro-op dispatch
  kFused,      // tier 3: predecoded + superinstructions
};

const char* EngineKindName(EngineKind e);

struct RunOptions {
  uint64_t max_steps = 200'000'000;
  runtime::StoreKind store = runtime::StoreKind::kArray;
  runtime::IsolationKind isolation = runtime::IsolationKind::kSegment;
  // Which execution tier runs the program. Every tier produces bit-identical
  // RunResults (the differential tests enforce this); the reference
  // interpreter exists as the oracle, not as a supported fast path.
  EngineKind engine = EngineKind::kFused;
  // §4 "Future MPX-based implementation": hardware-assisted bounds checks
  // cost no extra cycles (metadata traffic remains).
  bool mpx_assist = false;
  // Whether a safe pointer store backs the run (schemes that protect
  // pointers in place — or not at all — set this false via
  // core::ProtectionScheme::ConfigureRun and no store is ever allocated).
  bool use_safe_store = true;
  // Shard count of the safe pointer store (vm::ShardOfAddress routing).
  // Once the run has spawned a second thread, a safe-store access pays the
  // shard-crossing premium kSyncCycles (machine.cc; §3.2.3: the safe region
  // is shared process state) exactly when its key's shard is not owned by
  // the accessing thread in that thread's ownership epoch. A shard is owned
  // by a thread when every claimed home hashing into it is that thread's;
  // with 1 shard — the default, at which every recorded table is — all homes
  // share it, so every concurrent access pays (the flat model).
  // Single-threaded runs never pay. Behaviour (status, output, per-op entry
  // state) is identical at any count; cycles/cache/memory legitimately vary
  // with it (the suite's ablation_shards table sweeps it).
  uint32_t shards = 1;
  // Epoch-based shard-ownership migration. When false (the default) every
  // home is claimed by its own thread in epoch 0, which is never
  // republished: static ownership, a pure function of the layout. When true
  // (and shards > 1), epoch 0 claims only the main thread's home and the
  // machine re-derives shard ownership at every spawn/join boundary,
  // publishes it as a new epoch (charging kSyncCycles once per *migrated*
  // shard to the publishing thread, counted in Counters::shard_migrations),
  // and gives readers an RCU-style path: a thread consults the owner
  // snapshot it adopted at its own birth/spawn/join, pays nothing on shards
  // it owns in that epoch, and pays nothing on *reads* of shards the
  // publisher froze at the boundary (publish-then-spawn makes the data
  // visible without sync). Single-threaded runs never publish, so they are
  // byte-identical to migrate=false at every shard count.
  bool migrate = false;
  // Scheduling quantum of the deterministic round-robin thread scheduler:
  // how many instructions a runnable thread executes before the next one
  // runs. Purely a simulated-interleaving knob — context switches are free
  // in the cost model, and race-free programs produce identical counters at
  // any quantum (tests/sched_test.cc sweeps it).
  uint64_t quantum = 64;
  // Derives the per-run secrets: the stack cookie value and PtrEnc's
  // sealing key (runtime::DeriveSealKey).
  uint64_t seed = 1;
  std::vector<uint64_t> input_words;
  std::vector<uint8_t> input_bytes;
  // Optional adversarial fault plan (see src/vm/fault.h). Null — the normal
  // case — takes zero dispatch-loop cost; the historical tables depend on
  // that. The plan outlives the run; the machine does not copy it.
  const FaultPlan* faults = nullptr;
};

struct Counters {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t mem_accesses = 0;
  uint64_t safe_store_ops = 0;
  // Safe-store ops that paid the shard-crossing sync premium (0 while
  // single-threaded; == safe_store_ops-after-first-spawn at shard count 1).
  uint64_t store_contended_ops = 0;
  // Shards whose owner changed at an epoch publish (RunOptions::migrate;
  // each one charged kSyncCycles once to the publishing thread). Always 0
  // with migration off or single-threaded.
  uint64_t shard_migrations = 0;
  uint64_t seal_ops = 0;  // PtrEnc sign/authenticate operations
  uint64_t checks = 0;
  uint64_t calls = 0;
  uint64_t hijack_transfers = 0;  // control transfers via corrupted state
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t thread_spawns = 0;  // simulated threads created (0 when single-threaded)
};

struct MemoryFootprint {
  uint64_t regular_bytes = 0;     // mapped Mu pages
  uint64_t safe_store_bytes = 0;  // resident safe pointer store
  uint64_t safe_stack_bytes = 0;  // mapped safe-stack pages
  uint64_t safe_store_entries = 0;

  uint64_t TotalBytes() const { return regular_bytes + safe_store_bytes + safe_stack_bytes; }
};

struct RunResult {
  RunStatus status = RunStatus::kOk;
  runtime::Violation violation = runtime::Violation::kNone;
  std::string message;
  uint64_t exit_code = 0;
  std::vector<uint64_t> output;
  Counters counters;
  MemoryFootprint memory;
  // How many FaultPlan events actually fired during the run (0 without a
  // plan). The fuzz harness uses this for fault-coverage accounting.
  uint64_t faults_injected = 0;

  bool OutputContains(uint64_t marker) const {
    for (uint64_t v : output) {
      if (v == marker) {
        return true;
      }
    }
    return false;
  }
};

class DecodedModule;  // src/vm/decode.h

// Executes module's main() under the given options. The module must verify
// (ir::VerifyModule) and have had RenumberValues() run by the caller (every
// engine CPI_CHECKs that each function has registers) — the
// core::Compiler facade takes care of both. On the decoded and fused tiers
// this decodes the module for the one run; callers that run a module many
// times decode it once and use the overload below.
RunResult Execute(const ir::Module& module, const RunOptions& options);

// Executes a module already decoded for `options.engine` (CPI_CHECKed: the
// decode's tier must be the run's). The result is bit-identical to
// Execute(decoded.module(), options).
RunResult Execute(const DecodedModule& decoded, const RunOptions& options);

// The (deterministic) addresses the loader will assign. Attack drivers use
// this the way real exploits use known binary layouts: to embed target
// addresses in their payloads. Addresses are flat vectors indexed by the
// function/global ordinal, so the VM's per-instruction lookups are plain
// array reads rather than map searches.
struct ProgramLayout {
  std::vector<uint64_t> code;     // by ir::Function::ordinal()
  std::vector<uint64_t> globals;  // by ir::GlobalVariable::ordinal()

  uint64_t CodeAddress(const ir::Function* f) const {
    CPI_CHECK(f->ordinal() < code.size());
    return code[f->ordinal()];
  }
  uint64_t GlobalAddress(const ir::GlobalVariable* g) const {
    CPI_CHECK(g->ordinal() < globals.size());
    return globals[g->ordinal()];
  }
};

ProgramLayout ComputeProgramLayout(const ir::Module& module);

// Address of the first heap allocation (predictable, like a heap groom).
uint64_t FirstHeapAddress();

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_MACHINE_H_
