// End-to-end tests: build programs, instrument them with each protection,
// execute them on the VM, and check both functional behaviour (identical
// outputs across protections for benign programs) and security behaviour
// (attacks hijack vanilla runs and never hijack CPI/CPS runs).
#include <gtest/gtest.h>

#include "src/analysis/classify.h"
#include "src/attacks/ripe.h"
#include "src/core/levee.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;

// A benign program exercising the full sensitive-pointer surface: function
// pointers in globals/structs/heap, universal pointers, string ops, virtual
// dispatch patterns, recursion.
std::unique_ptr<ir::Module> BuildBenignKitchenSink() {
  auto m = std::make_unique<ir::Module>("kitchen_sink");
  auto& t = m->types();
  ir::IRBuilder b(m.get());

  const ir::FunctionType* fn_ty = t.FunctionTy(t.I64(), {t.I64()});
  ir::GlobalVariable* table = m->CreateGlobal("table", t.ArrayOf(t.PointerTo(fn_ty), 4));

  ir::Function* doubler = m->CreateFunction("doubler", fn_ty);
  b.SetInsertPoint(doubler->CreateBlock("entry"));
  b.Ret(b.Mul(doubler->arg(0), b.I64(2)));

  ir::Function* inc = m->CreateFunction("inc", fn_ty);
  b.SetInsertPoint(inc->CreateBlock("entry"));
  b.Ret(b.Add(inc->arg(0), b.I64(1)));

  ir::StructType* holder = t.GetOrCreateStruct("holder");
  holder->SetBody({{"fn", t.PointerTo(fn_ty), 0},
                   {"data", t.I64(), 0},
                   {"anyptr", t.VoidPtrTy(), 0}});

  ir::Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));

  // Function pointers through a global table.
  b.Store(b.FuncAddr(doubler), b.IndexAddr(b.GlobalAddr(table), b.I64(0)));
  b.Store(b.FuncAddr(inc), b.IndexAddr(b.GlobalAddr(table), b.I64(1)));
  ir::Value* f0 = b.Load(b.IndexAddr(b.GlobalAddr(table), b.I64(0)));
  ir::Value* f1 = b.Load(b.IndexAddr(b.GlobalAddr(table), b.I64(1)));
  ir::Value* a = b.IndirectCall(f0, {b.I64(21)});
  ir::Value* c = b.IndirectCall(f1, {a});
  b.Output(c);  // 43

  // Function pointer inside a heap struct, plus a universal pointer slot.
  ir::Value* h = b.Malloc(b.I64(holder->SizeInBytes()), t.PointerTo(holder));
  b.Store(b.FuncAddr(inc), b.FieldAddr(h, "fn"));
  b.Store(b.I64(100), b.FieldAddr(h, "data"));
  ir::Value* cell = b.Malloc(b.I64(8), t.PointerTo(t.I64()));
  b.Store(b.I64(7), cell);
  b.Store(b.Bitcast(cell, t.VoidPtrTy()), b.FieldAddr(h, "anyptr"));
  ir::Value* fn2 = b.Load(b.FieldAddr(h, "fn"));
  ir::Value* data = b.Load(b.FieldAddr(h, "data"));
  b.Output(b.IndirectCall(fn2, {data}));  // 101
  ir::Value* any = b.Load(b.FieldAddr(h, "anyptr"));
  ir::Value* cell2 = b.Bitcast(any, t.PointerTo(t.I64()));
  b.Output(b.Load(cell2));  // 7

  // The void* slot is later reused for a plain data pointer (universal
  // pointer dynamism, Fig. 1's pointer 2).
  ir::Value* dcell = b.Malloc(b.I64(8), t.PointerTo(t.I64()));
  b.Store(b.I64(55), dcell);
  b.Store(b.Bitcast(dcell, t.VoidPtrTy()), b.FieldAddr(h, "anyptr"));
  ir::Value* any2 = b.Load(b.FieldAddr(h, "anyptr"));
  b.Output(b.Load(b.Bitcast(any2, t.PointerTo(t.I64()))));  // 55

  // String handling (char* heuristic path).
  ir::GlobalVariable* msg = m->CreateGlobal("msg", t.ArrayOf(t.CharTy(), 16), true);
  msg->set_initializer({'h', 'i', ' ', 'c', 'p', 'i', 0});
  ir::Value* buf = b.Alloca(t.ArrayOf(t.CharTy(), 32), "buf");
  ir::Value* buf0 = b.IndexAddr(buf, b.I64(0));
  ir::Value* msg0 = b.IndexAddr(b.GlobalAddr(msg), b.I64(0));
  b.LibCall(ir::LibFunc::kStrcpy, {buf0, msg0});
  b.Output(b.LibCall(ir::LibFunc::kStrlen, {buf0}));  // 6

  // memcpy of a struct containing a code pointer (checked-variant path).
  ir::Value* h2 = b.Malloc(b.I64(holder->SizeInBytes()), t.PointerTo(holder));
  ir::Value* h2c = b.Bitcast(h2, t.CharPtrTy());
  ir::Value* h1c = b.Bitcast(h, t.CharPtrTy());
  b.LibCall(ir::LibFunc::kMemcpy, {h2c, h1c, b.I64(holder->SizeInBytes())});
  ir::Value* fn3 = b.Load(b.FieldAddr(h2, "fn"));
  b.Output(b.IndirectCall(fn3, {b.I64(8)}));  // 9

  b.Ret(b.I64(0));
  return m;
}

const Protection kAllProtections[] = {
    Protection::kNone,      Protection::kSafeStack, Protection::kCps,
    Protection::kCpi,       Protection::kCfi,       Protection::kStackCookies,
    Protection::kPtrEnc,
};

TEST(IntegrationTest, KitchenSinkRunsIdenticallyUnderEveryProtection) {
  Config vanilla;
  auto base_module = BuildBenignKitchenSink();
  ASSERT_TRUE(ir::IsValid(*base_module));
  vm::RunResult base = core::InstrumentAndRun(*base_module, vanilla);
  ASSERT_EQ(base.status, vm::RunStatus::kOk) << base.message;
  EXPECT_EQ(base.output, (std::vector<uint64_t>{43, 101, 7, 55, 6, 9}));

  for (Protection p : kAllProtections) {
    Config config;
    config.protection = p;
    auto module = BuildBenignKitchenSink();
    vm::RunResult r = core::InstrumentAndRun(*module, config);
    ASSERT_EQ(r.status, vm::RunStatus::kOk)
        << core::ProtectionName(p) << ": " << r.message;
    EXPECT_EQ(r.output, base.output) << core::ProtectionName(p);
  }
}

TEST(IntegrationTest, KitchenSinkRunsUnderEveryStoreKind) {
  for (runtime::StoreKind store :
       {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
        runtime::StoreKind::kHash}) {
    Config config;
    config.protection = Protection::kCpi;
    config.store = store;
    auto module = BuildBenignKitchenSink();
    vm::RunResult r = core::InstrumentAndRun(*module, config);
    ASSERT_EQ(r.status, vm::RunStatus::kOk)
        << runtime::StoreKindName(store) << ": " << r.message;
    EXPECT_EQ(r.output, (std::vector<uint64_t>{43, 101, 7, 55, 6, 9}));
  }
}

TEST(IntegrationTest, KitchenSinkRunsUnderEveryIsolationKind) {
  for (runtime::IsolationKind iso :
       {runtime::IsolationKind::kSegment, runtime::IsolationKind::kInfoHiding,
        runtime::IsolationKind::kSfi}) {
    Config config;
    config.protection = Protection::kCpi;
    config.isolation = iso;
    auto module = BuildBenignKitchenSink();
    vm::RunResult r = core::InstrumentAndRun(*module, config);
    ASSERT_EQ(r.status, vm::RunStatus::kOk)
        << runtime::IsolationKindName(iso) << ": " << r.message;
  }
}

TEST(IntegrationTest, DebugModeWorksOnBenignProgram) {
  Config config;
  config.protection = Protection::kCpi;
  config.debug_mode = true;
  auto module = BuildBenignKitchenSink();
  vm::RunResult r = core::InstrumentAndRun(*module, config);
  ASSERT_EQ(r.status, vm::RunStatus::kOk) << r.message;
  EXPECT_EQ(r.output, (std::vector<uint64_t>{43, 101, 7, 55, 6, 9}));
}

TEST(IntegrationTest, CpiInstrumentsFewerOpsThanItsTotal) {
  auto module = BuildBenignKitchenSink();
  const analysis::ModuleStats stats =
      analysis::ComputeModuleStats(*module, analysis::ClassifyOptions{});
  EXPECT_GT(stats.total_mem_ops, 0u);
  EXPECT_GT(stats.instrumented_cpi, 0u);
  EXPECT_LE(stats.instrumented_cps, stats.instrumented_cpi);
  EXPECT_LT(stats.instrumented_cpi, stats.total_mem_ops);
}

// The facade verifies its input and names the module and the stage when it
// is not valid.
TEST(IntegrationTest, InstrumentRejectsAnInvalidModuleWithContext) {
  ir::Module m("nomain");
  auto& types = m.types();
  ir::Function* f = m.CreateFunction("helper", types.FunctionTy(types.VoidTy(), {}));
  ir::IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Ret();
  EXPECT_DEATH(core::Compiler(Config{}).Instrument(m),
               "module nomain \\(before instrumentation\\): module: no main function");
}

// --- attack behaviour ---------------------------------------------------------

TEST(AttackTest, VanillaIsHijackableByMostAttacks) {
  Config vanilla;
  auto results = attacks::RunAttackMatrix(vanilla);
  int hijacked = 0;
  for (const auto& r : results) {
    if (r.Hijacked()) {
      ++hijacked;
    }
  }
  // The matrix is built so that (essentially) every attack works on an
  // unprotected build, like RIPE on the paper's vanilla Ubuntu 6.06.
  EXPECT_GT(hijacked, static_cast<int>(results.size() * 8 / 10))
      << hijacked << "/" << results.size();
}

TEST(AttackTest, CpiPreventsAllAttacks) {
  Config config;
  config.protection = Protection::kCpi;
  for (const auto& r : attacks::RunAttackMatrix(config)) {
    EXPECT_FALSE(r.Hijacked()) << r.spec.Name() << " hijacked under CPI";
  }
}

TEST(AttackTest, CpsPreventsAllAttacks) {
  Config config;
  config.protection = Protection::kCps;
  for (const auto& r : attacks::RunAttackMatrix(config)) {
    EXPECT_FALSE(r.Hijacked()) << r.spec.Name() << " hijacked under CPS";
  }
}

TEST(AttackTest, SafeStackProtectsReturnAddressesAndSafeLocals) {
  // The safe stack's guarantee (§3.2.4): return addresses and provably-safe
  // locals (like a plain function-pointer variable) are unreachable. Objects
  // that must live on the unsafe stack (structs whose fields escape) remain
  // corruptible — that residual surface is what CPS/CPI close.
  Config config;
  config.protection = Protection::kSafeStack;
  for (const auto& r : attacks::RunAttackMatrix(config)) {
    if (r.spec.location != attacks::Location::kStack) {
      continue;
    }
    if (r.spec.target == attacks::Target::kReturnAddress ||
        r.spec.target == attacks::Target::kFunctionPointer) {
      EXPECT_FALSE(r.Hijacked()) << r.spec.Name() << " hijacked under SafeStack";
    }
  }
}

TEST(AttackTest, CfiIsBypassedByAddressTakenGadgets) {
  Config config;
  config.protection = Protection::kCfi;
  auto results = attacks::RunAttackMatrix(config);
  int bypassed = 0;
  int blocked_non_taken = 0;
  for (const auto& r : results) {
    if (r.spec.target == attacks::Target::kReturnAddress) {
      continue;  // plain CFI here checks forward edges only
    }
    if (r.spec.gadget_address_taken && r.Hijacked()) {
      ++bypassed;
    }
    if (!r.spec.gadget_address_taken && r.Hijacked()) {
      ADD_FAILURE() << r.spec.Name() << ": CFI let a non-valid target through";
    }
    if (!r.spec.gadget_address_taken && r.outcome == attacks::AttackOutcome::kPrevented) {
      ++blocked_non_taken;
    }
  }
  // The Göktaş/Davi/Carlini result: coarse CFI is bypassable via targets
  // inside the valid set, while CPI/CPS (previous tests) are not.
  EXPECT_GT(bypassed, 0);
  EXPECT_GT(blocked_non_taken, 0);
}

TEST(AttackTest, StackCookiesStopContiguousReturnAddressSmash) {
  Config config;
  config.protection = Protection::kStackCookies;
  attacks::AttackSpec spec{attacks::Technique::kDirectOverflow, attacks::Location::kStack,
                           attacks::Target::kReturnAddress, false};
  auto r = attacks::RunAttack(spec, config);
  EXPECT_EQ(r.outcome, attacks::AttackOutcome::kPrevented) << r.message;
  EXPECT_EQ(r.violation, runtime::Violation::kStackCookieSmashed);
}

TEST(AttackTest, StackCookiesDoNotStopFunctionPointerAttacks) {
  Config config;
  config.protection = Protection::kStackCookies;
  attacks::AttackSpec spec{attacks::Technique::kDirectOverflow, attacks::Location::kGlobal,
                           attacks::Target::kFunctionPointer, false};
  auto r = attacks::RunAttack(spec, config);
  EXPECT_TRUE(r.Hijacked());
}

TEST(AttackTest, ReturnAddressSmashHijacksVanilla) {
  Config vanilla;
  attacks::AttackSpec spec{attacks::Technique::kDirectOverflow, attacks::Location::kStack,
                           attacks::Target::kReturnAddress, false};
  auto r = attacks::RunAttack(spec, vanilla);
  EXPECT_TRUE(r.Hijacked()) << r.message;
}

TEST(AttackTest, SafeStackAloneStopsReturnAddressSmash) {
  Config config;
  config.protection = Protection::kSafeStack;
  attacks::AttackSpec spec{attacks::Technique::kDirectOverflow, attacks::Location::kStack,
                           attacks::Target::kReturnAddress, false};
  auto r = attacks::RunAttack(spec, config);
  EXPECT_FALSE(r.Hijacked());
}

TEST(AttackTest, DebugModeDetectsInsteadOfSilentlyPreventing) {
  Config config;
  config.protection = Protection::kCpi;
  config.debug_mode = true;
  attacks::AttackSpec spec{attacks::Technique::kDirectOverflow, attacks::Location::kGlobal,
                           attacks::Target::kFunctionPointer, false};
  auto r = attacks::RunAttack(spec, config);
  EXPECT_EQ(r.outcome, attacks::AttackOutcome::kPrevented) << r.message;
  EXPECT_EQ(r.violation, runtime::Violation::kDebugModeMismatch);
}

// --- workload smoke behaviour ---------------------------------------------------

TEST(WorkloadTest, AllSpecWorkloadsRunCleanlyUnderCpsAndCpi) {
  for (const auto& w : workloads::SpecCpu2006()) {
    auto vanilla_module = w.build(1);
    Config vanilla;
    vm::RunResult base = core::InstrumentAndRun(*vanilla_module, vanilla, w.input);
    ASSERT_EQ(base.status, vm::RunStatus::kOk) << w.name << ": " << base.message;

    for (Protection p : {Protection::kSafeStack, Protection::kCps, Protection::kCpi}) {
      Config config;
      config.protection = p;
      auto module = w.build(1);
      vm::RunResult r = core::InstrumentAndRun(*module, config, w.input);
      ASSERT_EQ(r.status, vm::RunStatus::kOk)
          << w.name << " under " << core::ProtectionName(p) << ": " << r.message;
      EXPECT_EQ(r.output, base.output)
          << w.name << " output diverged under " << core::ProtectionName(p);
    }
  }
}

TEST(WorkloadTest, ServerWorkloadsRunCleanly) {
  for (const auto& w : workloads::WebServer()) {
    for (Protection p : {Protection::kNone, Protection::kCps, Protection::kCpi}) {
      Config config;
      config.protection = p;
      auto module = w.build(1);
      vm::RunResult r = core::InstrumentAndRun(*module, config, w.input);
      ASSERT_EQ(r.status, vm::RunStatus::kOk)
          << w.name << " under " << core::ProtectionName(p) << ": " << r.message;
    }
  }
}

}  // namespace
}  // namespace cpi
