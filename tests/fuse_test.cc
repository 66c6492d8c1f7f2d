// Differential and structural tests for the fused superinstruction tier.
//
// The fused engine (tier 3) rewrites hot straight-line micro-op sequences
// into macro-ops but charges each macro the exact sum of its constituents:
// simulated behaviour — counters, cache state, memory footprint, output,
// violations — must be bit-identical to the predecoded engine (tier 2) and
// the tree-walking reference interpreter (tier 1). These tests run all
// three tiers over every workload x every registered scheme, at O0 and O1,
// across scheduler quanta, and over the attack matrix, asserting full
// RunResult equality. Structural tests compare fused and unfused
// DecodedModules to prove fusion rewrites only macro heads, never crosses a
// basic-block boundary or consumes a control-transfer op, and leaves no
// fusible pair unclaimed.
#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"
#include "tests/run_identity.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using vm::EngineKind;
using vm::RunResult;
using test::ExpectIdentical;

RunResult RunEngine(const ir::Module& built, Config config, const core::Input& input,
                    EngineKind engine) {
  config.engine = engine;
  auto clone = ir::CloneModule(built);
  return core::InstrumentAndRun(*clone, config, input);
}

// --- three-way differential -------------------------------------------------

// The acceptance bar: every workload x every registered scheme agrees across
// all three execution tiers on the whole RunResult, down to individual
// counter values.
TEST(FuseDifferentialTest, AllWorkloadsAllSchemesThreeTiers) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      Config config;
      config.protection = s->id();
      config.scheme = s;  // composites run as composites, not their first part
      const std::string label = w.name + " / " + s->name();
      const RunResult fused = RunEngine(*built, config, w.input, EngineKind::kFused);
      const RunResult decoded = RunEngine(*built, config, w.input, EngineKind::kDecoded);
      const RunResult reference =
          RunEngine(*built, config, w.input, EngineKind::kReference);
      ExpectIdentical(fused, decoded, label + " fused-vs-decoded");
      ExpectIdentical(decoded, reference, label + " decoded-vs-reference");
    }
  }
}

// Fusion composes with the post-instrumentation optimizer: O1 bodies fuse
// into different shapes than O0 bodies, and both must stay bit-identical to
// the unfused engine.
TEST(FuseDifferentialTest, OptLevelsAllSchemes) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      for (int opt : {0, 1}) {
        Config config;
        config.protection = s->id();
        config.scheme = s;
        config.opt_level = opt;
        const std::string label =
            w.name + " / " + s->name() + " / O" + std::to_string(opt);
        ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                        RunEngine(*built, config, w.input, EngineKind::kDecoded),
                        label);
      }
    }
  }
}

// Threaded workloads under fusion: a macro-op defers the scheduler check to
// its last constituent, which must not be observable — counters identical to
// the unfused engine at every quantum, including quantum 1 (reschedule
// pressure on every op).
TEST(FuseDifferentialTest, ConcurrentQuantumSweep) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto built = w.build(1);
    for (Protection p : {Protection::kNone, Protection::kSafeStack, Protection::kCps,
                         Protection::kCpi, Protection::kPtrEnc}) {
      for (uint64_t quantum : {1ull, 7ull, 173ull, 4096ull}) {
        Config config;
        config.protection = p;
        config.thread_quantum = quantum;
        const std::string label = w.name + " / " + core::ProtectionName(p) +
                                  " quantum=" + std::to_string(quantum);
        ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                        RunEngine(*built, config, w.input, EngineKind::kDecoded),
                        label);
      }
    }
  }
}

// Attack programs drive traps, violations and hijack transfers — the paths
// where a macro-op must stop charging mid-sequence. The fused engine must
// tell exactly the same story as the unfused one for every attack x scheme.
TEST(FuseDifferentialTest, AttackMatrixAllSchemes) {
  const std::vector<attacks::AttackSpec> matrix = attacks::GenerateAttackMatrix();
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    for (const attacks::AttackSpec& spec : matrix) {
      Config config;
      config.protection = s->id();
      config.scheme = s;

      config.engine = EngineKind::kFused;
      const attacks::AttackResult fused = attacks::RunAttack(spec, config);

      config.engine = EngineKind::kDecoded;
      const attacks::AttackResult decoded = attacks::RunAttack(spec, config);

      const std::string label = spec.Name() + " / " + s->name();
      EXPECT_EQ(fused.outcome, decoded.outcome) << label;
      EXPECT_EQ(fused.status, decoded.status) << label;
      EXPECT_EQ(fused.violation, decoded.violation) << label;
      EXPECT_EQ(fused.message, decoded.message) << label;
    }
  }
}

// Out-of-fuel termination must land on the same instruction regardless of
// tier: sweep max_steps across a range that cuts runs off mid-macro.
TEST(FuseDifferentialTest, StepLimitCutsOffIdentically) {
  const workloads::Workload& w = workloads::SpecCpu2006().front();
  auto built = w.build(1);
  for (uint64_t max_steps : {100ull, 1001ull, 10007ull, 100003ull}) {
    Config config;
    config.protection = Protection::kCpi;
    config.max_steps = max_steps;
    ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                    RunEngine(*built, config, w.input, EngineKind::kDecoded),
                    w.name + " max_steps=" + std::to_string(max_steps));
  }
}

// --- structural invariants of the fuser -------------------------------------

// Ops that transfer control or touch the frame stack: never a constituent of
// any fused sequence (head or tail). A branch is permitted, but only as the
// final constituent.
bool IsFusionBarrier(vm::MicroOp op) {
  switch (op) {
    case vm::MicroOp::kCall:
    case vm::MicroOp::kIndirectCall:
    case vm::MicroOp::kLibCall:
    case vm::MicroOp::kRet:
    case vm::MicroOp::kSpawn:
    case vm::MicroOp::kJoin:
    case vm::MicroOp::kYield:
    case vm::MicroOp::kMalloc:
    case vm::MicroOp::kFree:
    case vm::MicroOp::kInput:
    case vm::MicroOp::kOutput:
      return true;
    default:
      return false;
  }
}

// The constituent opcodes a macro names: its triple shape, its pair-matrix
// row and column, or compare + conditional branch.
std::vector<vm::MicroOp> Constituents(vm::MicroOp macro) {
  const auto v = static_cast<size_t>(macro);
  if (v == static_cast<size_t>(vm::MacroOp::kCmpBr)) {
    return {vm::MicroOp::kBinOp, vm::MicroOp::kCondBr};
  }
  if (v >= static_cast<size_t>(vm::MacroOp::kTripleBase)) {
    const vm::TripleShape& t =
        vm::kTripleShapes[v - static_cast<size_t>(vm::MacroOp::kTripleBase)];
    return {t.a, t.b, t.c};
  }
  const size_t pair = v - static_cast<size_t>(vm::MacroOp::kPairBase);
  const size_t tail = pair % vm::kNumFuseTails;
  return {vm::kFuseHeadOps[pair / vm::kNumFuseTails],
          tail < vm::kNumFuseHeads ? vm::kFuseHeadOps[tail]
                                   : tail == vm::kNumFuseHeads ? vm::MicroOp::kBr
                                                               : vm::MicroOp::kCondBr};
}

// Compares the fused decode of a function with its unfused decode. The two
// differ only at macro heads; each macro names the ops it covers, stays
// inside one block, and covers only fusible ops with a branch at most last.
// The plan is maximal: no block keeps an unclaimed adjacent (inner, tail)
// pair.
void CheckFusedFunction(const vm::DecodedFunction& fused, const vm::DecodedFunction& plain,
                        const std::string& label) {
  ASSERT_EQ(fused.ops.size(), plain.ops.size()) << label;
  ASSERT_EQ(fused.block_starts, plain.block_starts) << label;
  std::vector<bool> claimed(plain.ops.size(), false);
  for (size_t i = 0; i < fused.ops.size(); ++i) {
    const vm::MicroOp op = fused.ops[i].op;
    if (!vm::IsMacroOp(op)) {
      EXPECT_EQ(op, plain.ops[i].op) << label << " op " << i << " changed without fusing";
      continue;
    }
    const uint32_t len = vm::FusedLength(op);
    ASSERT_LE(i + len, fused.ops.size()) << label << " op " << i;
    for (uint32_t b : plain.block_starts) {
      EXPECT_FALSE(b > i && b < i + len)
          << label << ": macro at op " << i << " (len " << len << ") crosses block start " << b;
    }
    const std::vector<vm::MicroOp> named = Constituents(op);
    ASSERT_EQ(named.size(), len) << label << " op " << i;
    for (uint32_t k = 0; k < len; ++k) {
      const vm::MicroOp c = plain.ops[i + k].op;
      EXPECT_EQ(c, named[k]) << label << " macro at op " << i << " constituent " << k;
      EXPECT_FALSE(claimed[i + k]) << label << " op " << i + k << " in two macros";
      claimed[i + k] = true;
      EXPECT_FALSE(IsFusionBarrier(c)) << label << " op " << i + k;
      if (k + 1 < len) {
        EXPECT_GE(vm::FuseHeadIndex(c), 0) << label << " op " << i + k << " not fusible inside";
      } else {
        EXPECT_GE(vm::FuseTailIndex(c), 0) << label << " op " << i + k << " not fusible last";
      }
    }
  }
  for (size_t b = 0; b < plain.block_starts.size(); ++b) {
    const size_t end =
        b + 1 < plain.block_starts.size() ? plain.block_starts[b + 1] : plain.ops.size();
    for (size_t i = plain.block_starts[b]; i + 1 < end; ++i) {
      EXPECT_FALSE(!claimed[i] && !claimed[i + 1] && vm::FuseHeadIndex(plain.ops[i].op) >= 0 &&
                   vm::FuseTailIndex(plain.ops[i + 1].op) >= 0)
          << label << ": fusible pair left at op " << i;
    }
  }
}

// Decodes `module` with and without fusion and checks every function.
void CheckFusedModule(const ir::Module& module, const std::string& label) {
  const vm::ProgramLayout layout = vm::ComputeProgramLayout(module);
  const vm::DecodedModule plain(module, layout);
  const vm::DecodedModule fused(module, layout, /*fuse=*/true);
  for (const auto& f : module.functions()) {
    CheckFusedFunction(fused.ForFunction(f.get()), plain.ForFunction(f.get()),
                       label + " / " + f->name());
  }
}

// Every workload, instrumented under a store-backed scheme and fused: no
// macro crosses a block boundary, consumes a call/ret/spawn/join/yield, or
// places a branch anywhere but last, and no fusible pair is left unclaimed.
TEST(FuseStructureTest, NoMacroCrossesBlockOrBarrier) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    for (Protection p : {Protection::kNone, Protection::kCpi}) {
      auto module = w.build(1);
      Config config;
      config.protection = p;
      core::Compiler(config).Instrument(*module);
      CheckFusedModule(*module, w.name + " / " + core::ProtectionName(p));
    }
  }
}

// Threaded bodies: spawn/join/yield sit inline in straight-line code, so the
// fuser sees them as ordinary ops and must refuse to fuse them.
TEST(FuseStructureTest, ThreadOpsNeverFused) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto module = w.build(1);
    Config config;
    core::Compiler(config).Instrument(*module);
    CheckFusedModule(*module, w.name);
  }
}

// The fuser finds work on real instrumented bodies: fused modules shrink
// their dispatched-op count.
TEST(FuseStructureTest, FusionShrinksDispatchCount) {
  const workloads::Workload& w = workloads::SpecCpu2006().front();
  auto module = w.build(1);
  Config config;
  config.protection = Protection::kCpi;
  core::Compiler(config).Instrument(*module);
  const vm::ProgramLayout layout = vm::ComputeProgramLayout(*module);
  const vm::DecodedModule dm(*module, layout, /*fuse=*/true);
  EXPECT_GT(dm.ops_before_fusion(), dm.ops_after_fusion());
}

}  // namespace
}  // namespace cpi
