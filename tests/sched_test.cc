// Scheduler determinism tests.
//
// The hard requirement of the threaded VM: determinism. A threaded program's
// simulated behaviour — counters, output, exit code, violations, memory
// footprint — must be identical across scheduler quanta (race-free programs
// only depend on their own instruction streams), across both execution
// engines, across O0/O1, and for clones vs fresh builds. Single-threaded
// programs must not change by a cycle at any quantum, which is what keeps
// every recorded table byte-identical.
#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/builder.h"
#include "src/ir/clone.h"
#include "src/vm/layout.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"
#include "tests/run_identity.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using vm::RunResult;
using test::ExpectIdentical;

RunResult RunFresh(const workloads::Workload& w, Config config) {
  auto module = w.build(1);
  return core::InstrumentAndRun(*module, config, w.input);
}

// --- thread-op semantics ----------------------------------------------------

// spawn hands arguments across, join returns the worker's value. Also checks
// the deterministic tid sequence (1, 2, ...).
TEST(SchedulerTest, SpawnJoinYieldBasics) {
  auto m = std::make_unique<ir::Module>("t.basics");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
  b.SetInsertPoint(w->CreateBlock("entry"));
  b.Yield();
  b.Ret(b.Mul(w->arg(0), b.I64(3)));
  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  ir::Value* t1 = b.Spawn(w, {b.I64(5)});
  ir::Value* t2 = b.Spawn(w, {b.I64(7)});
  b.Output(t1);
  b.Output(t2);
  b.Output(b.Join(t2));
  b.Output(b.Join(t1));
  b.Ret(b.I64(0));

  for (bool ref : {false, true}) {
    auto clone = ir::CloneModule(*m);
    Config config;
    if (ref) {
      config.engine = vm::EngineKind::kReference;
    }
    const RunResult r = core::InstrumentAndRun(*clone, config, {});
    ASSERT_EQ(r.status, vm::RunStatus::kOk) << r.message;
    ASSERT_EQ(r.output.size(), 4u);
    EXPECT_EQ(r.output[0], 1u);   // first spawned tid
    EXPECT_EQ(r.output[1], 2u);   // second spawned tid
    EXPECT_EQ(r.output[2], 21u);  // 7 * 3
    EXPECT_EQ(r.output[3], 15u);  // 5 * 3
    EXPECT_EQ(r.counters.thread_spawns, 2u);
  }
}

// Joining an unknown tid, tid 0, or an already-joined thread crashes like a
// bad pthread_join; a join cycle is reported as a deadlock.
TEST(SchedulerTest, JoinErrors) {
  auto build = [](uint64_t bad_tid) {
    auto m = std::make_unique<ir::Module>("t.joinerr");
    auto& t = m->types();
    ir::IRBuilder b(m.get());
    ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(main_fn->CreateBlock("entry"));
    b.Join(b.I64(bad_tid));
    b.Ret(b.I64(0));
    return m;
  };
  for (uint64_t bad : {0ull, 1ull, 99ull}) {
    auto m = build(bad);
    const RunResult r = core::InstrumentAndRun(*m, Config{}, {});
    EXPECT_EQ(r.status, vm::RunStatus::kCrash) << bad;
    EXPECT_EQ(r.message, "join: invalid thread id") << bad;
  }

  {  // double join
    auto m = std::make_unique<ir::Module>("t.doublejoin");
    auto& t = m->types();
    ir::IRBuilder b(m.get());
    ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(w->CreateBlock("entry"));
    b.Ret(b.I64(1));
    ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(main_fn->CreateBlock("entry"));
    ir::Value* tid = b.Spawn(w, {});
    b.Join(tid);
    b.Join(tid);
    b.Ret(b.I64(0));
    const RunResult r = core::InstrumentAndRun(*m, Config{}, {});
    EXPECT_EQ(r.status, vm::RunStatus::kCrash);
    EXPECT_EQ(r.message, "join: thread already joined");
  }

  {  // w1 joins w2, w2 joins w1, main joins w1: nobody can run
    auto m = std::make_unique<ir::Module>("t.deadlock");
    auto& t = m->types();
    ir::IRBuilder b(m.get());
    ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
    b.SetInsertPoint(w->CreateBlock("entry"));
    b.Ret(b.Join(w->arg(0)));
    ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(main_fn->CreateBlock("entry"));
    b.Spawn(w, {b.I64(2)});  // tid 1 joins tid 2
    b.Spawn(w, {b.I64(1)});  // tid 2 joins tid 1
    b.Join(b.I64(1));
    b.Ret(b.I64(0));
    const RunResult r = core::InstrumentAndRun(*m, Config{}, {});
    EXPECT_EQ(r.status, vm::RunStatus::kCrash);
    EXPECT_EQ(r.message, "deadlock: all threads blocked");
  }
}

TEST(SchedulerTest, ThreadLimit) {
  auto m = std::make_unique<ir::Module>("t.limit");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(w->CreateBlock("entry"));
  b.Ret(b.I64(0));
  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  for (uint64_t i = 0; i < vm::kMaxThreads; ++i) {  // one past the limit
    b.Spawn(w, {});
  }
  b.Ret(b.I64(0));
  const RunResult r = core::InstrumentAndRun(*m, Config{}, {});
  EXPECT_EQ(r.status, vm::RunStatus::kCrash);
  EXPECT_EQ(r.message, "spawn: thread limit reached");
}

// --- determinism ------------------------------------------------------------

// Single-threaded programs must be cycle-identical at any quantum: the
// scheduler never fires, so the quantum knob cannot be observable.
TEST(SchedulerDeterminismTest, SingleThreadQuantumInvariance) {
  const workloads::Workload* w = workloads::FindWorkload("429.mcf");
  ASSERT_NE(w, nullptr);
  for (Protection p : {Protection::kNone, Protection::kCpi}) {
    Config base;
    base.protection = p;
    const RunResult want = RunFresh(*w, base);
    for (uint64_t quantum : {1ull, 7ull, 1024ull}) {
      Config config = base;
      config.thread_quantum = quantum;
      ExpectIdentical(RunFresh(*w, config), want,
                      w->name + " quantum=" + std::to_string(quantum));
    }
  }
}

// Race-free threaded workloads: identical counters at every quantum. This is
// the strongest determinism claim — the interleaving changes completely
// between quantum 1 and quantum 1024, but each thread's stream (and each
// thread's private cache/arena/token state) does not.
TEST(SchedulerDeterminismTest, ConcurrentQuantumInvariance) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    for (Protection p : {Protection::kNone, Protection::kSafeStack, Protection::kCps,
                         Protection::kCpi, Protection::kPtrEnc}) {
      Config base;
      base.protection = p;
      const RunResult want = RunFresh(w, base);
      ASSERT_EQ(want.status, vm::RunStatus::kOk)
          << w.name << " / " << core::ProtectionName(p) << ": " << want.message;
      for (uint64_t quantum : {1ull, 7ull, 173ull, 4096ull}) {
        Config config = base;
        config.thread_quantum = quantum;
        ExpectIdentical(RunFresh(w, config), want,
                        w.name + " / " + core::ProtectionName(p) +
                            " quantum=" + std::to_string(quantum));
      }
    }
  }
}

// Both engines agree on threaded programs, at O0 and O1, under every
// registered scheme; and O1 preserves behaviour (status/output/exit) while
// never increasing cycles.
TEST(SchedulerDeterminismTest, EnginesAndOptLevels) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      RunResult by_opt[2];
      for (int opt : {0, 1}) {
        Config config;
        config.protection = s->id();
        config.scheme = s;  // composites run as composites, not their first part
        config.opt_level = opt;

        auto decoded_module = ir::CloneModule(*built);
        const RunResult decoded = core::InstrumentAndRun(*decoded_module, config, w.input);

        config.engine = vm::EngineKind::kReference;
        auto reference_module = ir::CloneModule(*built);
        const RunResult reference =
            core::InstrumentAndRun(*reference_module, config, w.input);

        const std::string label =
            w.name + " / " + s->name() + " / O" + std::to_string(opt);
        ExpectIdentical(decoded, reference, label);
        by_opt[opt] = decoded;
      }
      const std::string label = w.name + std::string(" / ") + s->name();
      EXPECT_EQ(by_opt[0].status, by_opt[1].status) << label;
      EXPECT_EQ(by_opt[0].output, by_opt[1].output) << label;
      EXPECT_EQ(by_opt[0].exit_code, by_opt[1].exit_code) << label;
      EXPECT_GE(by_opt[0].counters.cycles, by_opt[1].counters.cycles) << label;
    }
  }
}

// A clone of a threaded module instruments and runs exactly like the fresh
// build it was cloned from.
TEST(SchedulerDeterminismTest, CloneVsFresh) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto fresh = w.build(1);
    auto clone = ir::CloneModule(*fresh);
    for (Protection p : {Protection::kNone, Protection::kCpi, Protection::kPtrEnc}) {
      Config config;
      config.protection = p;
      auto fresh_run = ir::CloneModule(*fresh);
      auto clone_run = ir::CloneModule(*clone);
      ExpectIdentical(core::InstrumentAndRun(*fresh_run, config, w.input),
                      core::InstrumentAndRun(*clone_run, config, w.input),
                      w.name + " clone / " + core::ProtectionName(p));
    }
  }
}

// Regression: freed blocks must go to the *freeing* thread's cache, not the
// allocating thread's. With owner-routing, whether the worker's free lands
// before or after main's next malloc decided whether main reused the freed
// address — making malloc addresses (and cache counters) quantum-dependent.
TEST(SchedulerDeterminismTest, CrossThreadFreeKeepsMallocAddressesQuantumInvariant) {
  auto m = std::make_unique<ir::Module>("t.xfree");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Function* w =
      m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.PointerTo(t.I64())}));
  b.SetInsertPoint(w->CreateBlock("entry"));
  b.Free(w->arg(0));
  b.Ret(b.I64(0));
  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  ir::Value* a = b.Malloc(b.I64(16), t.PointerTo(t.I64()), "a");
  ir::Value* tid = b.Spawn(w, {a});
  // Same-size mallocs racing the worker's free: each must bump-allocate a
  // fresh address no matter when the free was scheduled.
  ir::Value* p0 = b.Malloc(b.I64(16), t.PointerTo(t.I64()), "p0");
  ir::Value* p1 = b.Malloc(b.I64(16), t.PointerTo(t.I64()), "p1");
  b.Join(tid);
  b.Output(b.PtrToInt(p0));
  b.Output(b.PtrToInt(p1));
  b.Ret(b.I64(0));

  Config base;
  auto first = ir::CloneModule(*m);
  base.thread_quantum = 1;
  const RunResult want = core::InstrumentAndRun(*first, base, {});
  ASSERT_EQ(want.status, vm::RunStatus::kOk) << want.message;
  for (uint64_t quantum : {2ull, 64ull, 4096ull}) {
    auto clone = ir::CloneModule(*m);
    Config config;
    config.thread_quantum = quantum;
    ExpectIdentical(core::InstrumentAndRun(*clone, config, {}), want,
                    "xfree quantum=" + std::to_string(quantum));
  }
}

// Regression: a spawn whose heap arena would start below thread 0's grown
// bump pointer must fail loudly instead of aliasing live allocations.
TEST(SchedulerTest, SpawnFailsWhenHeapArenasExhausted) {
  auto m = std::make_unique<ir::Module>("t.arenas");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(w->CreateBlock("entry"));
  b.Ret(b.I64(0));
  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  // Grow thread 0's heap past kHeapLimit - kThreadHeapBytes (the first
  // spawned thread's arena base): 47 x 16 MiB = 752 MiB of the 768 MiB
  // heap range.
  for (int i = 0; i < 47; ++i) {
    b.Malloc(b.I64(16ull << 20), t.PointerTo(t.I64()));
  }
  b.Spawn(w, {});
  b.Ret(b.I64(0));
  const RunResult r = core::InstrumentAndRun(*m, Config{}, {});
  EXPECT_EQ(r.status, vm::RunStatus::kCrash);
  EXPECT_EQ(r.message, "spawn: heap arenas exhausted");
}

// --- cross-thread attacks ---------------------------------------------------

// The acceptance matrix: thread A corrupting thread B's saved return address
// hijacks vanilla (and cookies/CFI, which do not move return addresses off
// the thread stacks) but is neutralised by per-thread safe stacks and by
// sealed return tokens; the direct probe of B's safe-stack slot faults on
// the isolation mechanism under every configuration.
TEST(CrossThreadAttackTest, MatrixVerdicts) {
  const auto specs = attacks::GenerateCrossThreadMatrix();
  ASSERT_EQ(specs.size(), 2u);
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    Config config;
    config.protection = s->id();
    config.scheme = s;
    const auto results = attacks::RunCrossThreadMatrix(config);
    ASSERT_EQ(results.size(), 2u);
    const attacks::AttackResult& ret_addr = results[0];
    const attacks::AttackResult& probe = results[1];

    const bool expect_hijack = s->id() == Protection::kNone ||
                               s->id() == Protection::kStackCookies ||
                               s->id() == Protection::kCfi;
    EXPECT_EQ(ret_addr.Hijacked(), expect_hijack) << s->name();
    EXPECT_FALSE(probe.Hijacked()) << s->name();
    // Sealed return tokens abort the corruption as an authentication
    // failure: plain PtrEnc and the standalone chained return MAC. (The
    // ptrenc+safestack composite's safe stack moves the slot out of reach
    // first, and cpi+ptrenc-ret-chain likewise never authenticates a
    // corrupted token — their ret_addr rows are no-effect, not aborts.)
    const std::string name = s->name();
    if (name == "ptrenc" || name == "ptrenc-ret-chain") {
      EXPECT_EQ(ret_addr.violation, runtime::Violation::kPointerAuthFailure)
          << name;
    }
  }
}

// Cross-thread attack programs behave identically on both engines.
TEST(CrossThreadAttackTest, EngineDifferential) {
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    for (const attacks::AttackSpec& spec : attacks::GenerateCrossThreadMatrix()) {
      Config config;
      config.protection = s->id();
      config.scheme = s;

      const attacks::AttackResult decoded = attacks::RunAttack(spec, config);

      config.engine = vm::EngineKind::kReference;
      const attacks::AttackResult reference = attacks::RunAttack(spec, config);

      const std::string label = spec.Name() + " / " + s->name();
      EXPECT_EQ(decoded.outcome, reference.outcome) << label;
      EXPECT_EQ(decoded.status, reference.status) << label;
      EXPECT_EQ(decoded.violation, reference.violation) << label;
      EXPECT_EQ(decoded.message, reference.message) << label;
    }
  }
}

// Cross-thread pointer flow: a pointer to one thread's safe-stack object,
// passed through spawn args, stays usable from the other thread — the safe
// region is one shared address space, with provenance-checked routing.
TEST(SchedulerTest, CrossThreadSafeStackPointerFlow) {
  auto m = std::make_unique<ir::Module>("t.safeptr");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Function* w = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.PointerTo(t.I64())}));
  b.SetInsertPoint(w->CreateBlock("entry"));
  b.Store(b.I64(77), w->arg(0));
  b.Ret(b.I64(0));
  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  ir::Value* slot = b.Alloca(t.I64(), "shared");
  b.Store(b.I64(1), slot);
  ir::Value* tid = b.Spawn(w, {slot});
  b.Join(tid);
  b.Output(b.Load(slot));
  b.Ret(b.I64(0));

  // The alloca escapes into the spawn, so SafeStack places it on the unsafe
  // stack; under vanilla it lives on the plain stack. Either way the write
  // must land and the program must finish.
  for (Protection p : {Protection::kNone, Protection::kSafeStack, Protection::kCpi}) {
    auto clone = ir::CloneModule(*m);
    Config config;
    config.protection = p;
    const RunResult r = core::InstrumentAndRun(*clone, config, {});
    ASSERT_EQ(r.status, vm::RunStatus::kOk) << core::ProtectionName(p) << ": " << r.message;
    ASSERT_EQ(r.output.size(), 1u);
    EXPECT_EQ(r.output[0], 77u) << core::ProtectionName(p);
  }
}

}  // namespace
}  // namespace cpi
