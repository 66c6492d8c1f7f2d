// Differential battery for the sharded safe region.
//
// Sharding is a *pricing* mechanism: it decides which safe-store accesses
// pay the concurrent sync premium (src/vm/machine.h), never what the program
// computes. The battery locks that down from four angles: behaviour is
// bit-identical across the shard sweep under every registered scheme;
// cross-shard pointer flow agrees across engines, opt levels, and scheduler
// quanta; clones instrument and run exactly like fresh builds at any shard
// count; and single-threaded programs do not change by a cycle when the
// shard count does. It also pins the ablation's headline: contention falls
// as shards grow.
#include <gtest/gtest.h>

#include <string>

#include "src/core/scheme.h"
#include "src/ir/builder.h"
#include "src/ir/clone.h"
#include "src/vm/layout.h"
#include "src/workloads/workloads.h"
#include "tests/run_identity.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using vm::RunResult;
using test::ExpectSameBehaviour;
using test::ExpectIdentical;

RunResult RunFresh(const workloads::Workload& w, const Config& config) {
  auto module = w.build(1);
  return core::InstrumentAndRun(*module, config, w.input);
}

std::vector<workloads::Workload> SweepWorkloads() {
  std::vector<workloads::Workload> out = workloads::EventLoop();
  for (const auto& w : workloads::ConcurrentServer()) {
    out.push_back(w);
  }
  return out;
}

// --- the shard sweep --------------------------------------------------------

// Every registered scheme, every concurrent workload: the shard count must
// be behaviourally invisible, and the contended-op count must never rise as
// shards are added.
TEST(ShardSweepTest, BehaviourIdenticalPerScheme) {
  for (const workloads::Workload& w : SweepWorkloads()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      Config base;
      base.protection = s->id();
      auto first = ir::CloneModule(*built);
      const RunResult want = core::InstrumentAndRun(*first, base, w.input);
      uint64_t prev_contended = want.counters.store_contended_ops;
      for (uint32_t shards : {2u, 8u, 64u}) {
        Config config = base;
        config.shards = shards;
        auto clone = ir::CloneModule(*built);
        const RunResult got = core::InstrumentAndRun(*clone, config, w.input);
        const std::string label =
            w.name + " / " + s->name() + " shards=" + std::to_string(shards);
        ExpectSameBehaviour(got, want, label);
        EXPECT_LE(got.counters.store_contended_ops, prev_contended) << label;
        prev_contended = got.counters.store_contended_ops;
      }
    }
  }
}

// The ablation's headline, pinned: under CPI the event-loop server's
// contended share and total cycles strictly improve once every worker's
// home region hashes into a shard of its own.
TEST(ShardSweepTest, ContentionFallsWithShards) {
  const workloads::Workload* w = workloads::FindWorkload("mt-event-loop");
  ASSERT_NE(w, nullptr);
  Config base;
  base.protection = Protection::kCpi;
  const RunResult flat = RunFresh(*w, base);
  ASSERT_EQ(flat.status, vm::RunStatus::kOk) << flat.message;
  EXPECT_GT(flat.counters.store_contended_ops, 0u);

  Config wide = base;
  wide.shards = 64;
  const RunResult sharded = RunFresh(*w, wide);
  ASSERT_EQ(sharded.status, vm::RunStatus::kOk) << sharded.message;
  EXPECT_LT(sharded.counters.store_contended_ops, flat.counters.store_contended_ops);
  EXPECT_LT(sharded.counters.cycles, flat.counters.cycles);
}

// Single-threaded programs never pay the premium (it is concurrent-only), so
// the shard count must be invisible down to the cycle and the byte.
TEST(ShardSweepTest, SingleThreadedRunsAreShardInvariant) {
  const workloads::Workload* w = workloads::FindWorkload("429.mcf");
  ASSERT_NE(w, nullptr);
  for (Protection p : {Protection::kCpi, Protection::kPtrEnc}) {
    Config base;
    base.protection = p;
    const RunResult want = RunFresh(*w, base);
    ASSERT_EQ(want.status, vm::RunStatus::kOk) << want.message;
    EXPECT_EQ(want.counters.store_contended_ops, 0u);
    for (uint32_t shards : {2u, 8u, 64u}) {
      Config config = base;
      config.shards = shards;
      ExpectIdentical(RunFresh(*w, config), want,
                      w->name + " / " + core::ProtectionName(p) +
                          " shards=" + std::to_string(shards));
    }
  }
}

// --- cross-shard pointer flow ----------------------------------------------

// Function pointers crossing thread homes in both directions: the worker
// publishes a heap cell (worker-homed arena) holding a handler the main
// thread indirect-calls, and consumes a main-homed cell the same way. Under
// CPI both cells live in the safe region in different shards once the count
// is high enough.
std::unique_ptr<ir::Module> BuildCrossShardFlow() {
  auto m = std::make_unique<ir::Module>("t.xshard");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  const auto* i64 = t.I64();
  const auto* handler_ty = t.FunctionTy(i64, {i64});
  const auto* cell_ty = t.PointerTo(t.PointerTo(handler_ty));

  ir::Function* h1 = m->CreateFunction("h1", handler_ty);
  b.SetInsertPoint(h1->CreateBlock("entry"));
  b.Ret(b.Add(h1->arg(0), b.I64(100)));
  ir::Function* h2 = m->CreateFunction("h2", handler_ty);
  b.SetInsertPoint(h2->CreateBlock("entry"));
  b.Ret(b.Mul(h2->arg(0), b.I64(3)));

  // Publishes a worker-arena cell holding h1 into the main-homed slot.
  ir::Function* maker = m->CreateFunction("maker", t.FunctionTy(i64, {t.PointerTo(cell_ty)}));
  b.SetInsertPoint(maker->CreateBlock("entry"));
  ir::Value* cell = b.Malloc(b.I64(8), cell_ty, "cell");
  b.Store(b.FuncAddr(h1), cell);
  b.Store(cell, maker->arg(0));
  b.Ret(b.I64(0));

  // Indirect-calls through a main-homed cell from the worker.
  ir::Function* user = m->CreateFunction("user", t.FunctionTy(i64, {cell_ty}));
  b.SetInsertPoint(user->CreateBlock("entry"));
  ir::Value* fp = b.Load(user->arg(0), "fp");
  b.Ret(b.IndirectCall(fp, {b.I64(7)}));

  ir::Function* main_fn = m->CreateFunction("main", t.FunctionTy(i64, {}));
  b.SetInsertPoint(main_fn->CreateBlock("entry"));
  ir::Value* slot = b.Alloca(cell_ty, "slot");
  ir::Value* t1 = b.Spawn(maker, {slot});
  ir::Value* mine = b.Malloc(b.I64(8), cell_ty, "mine");
  b.Store(b.FuncAddr(h2), mine);
  ir::Value* t2 = b.Spawn(user, {mine});
  b.Join(t1);
  ir::Value* made = b.Load(slot, "made");
  ir::Value* made_fp = b.Load(made, "made_fp");
  b.Output(b.IndirectCall(made_fp, {b.I64(5)}));  // h1(5) = 105
  b.Output(b.Join(t2));                           // h2(7) = 21
  b.Ret(b.I64(0));
  return m;
}

// The flow matrix: engines × opt levels × quanta × shard counts. Within one
// (opt, shard) configuration every engine and quantum must agree to the
// cycle; across configurations the behaviour must not move.
TEST(CrossShardFlowTest, EngineOptQuantumMatrix) {
  auto built = BuildCrossShardFlow();
  for (Protection p : {Protection::kNone, Protection::kSafeStack, Protection::kCps,
                       Protection::kCpi, Protection::kPtrEnc}) {
    for (uint32_t shards : {1u, 8u, 64u}) {
      for (int opt : {0, 1}) {
        Config base;
        base.protection = p;
        base.shards = shards;
        base.opt_level = opt;
        auto first = ir::CloneModule(*built);
        const RunResult want = core::InstrumentAndRun(*first, base, {});
        ASSERT_EQ(want.status, vm::RunStatus::kOk)
            << core::ProtectionName(p) << ": " << want.message;
        ASSERT_EQ(want.output.size(), 2u);
        EXPECT_EQ(want.output[0], 105u);
        EXPECT_EQ(want.output[1], 21u);
        for (vm::EngineKind engine :
             {vm::EngineKind::kReference, vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
          for (uint64_t quantum : {1ull, 37ull, 1024ull}) {
            Config config = base;
            config.engine = engine;
            config.thread_quantum = quantum;
            auto clone = ir::CloneModule(*built);
            ExpectIdentical(core::InstrumentAndRun(*clone, config, {}), want,
                            std::string(core::ProtectionName(p)) + " / " +
                                vm::EngineKindName(engine) + " / O" +
                                std::to_string(opt) + " / q=" + std::to_string(quantum) +
                                " / shards=" + std::to_string(shards));
          }
        }
      }
    }
  }
}

// Both directions of the flow actually cross shards: at a wide shard count
// the run still pays some premium (the cross-home traffic), but less than
// the flat model charges.
TEST(CrossShardFlowTest, CrossHomeTrafficKeepsContentionFloor) {
  auto built = BuildCrossShardFlow();
  Config flat;
  flat.protection = Protection::kCpi;
  auto m1 = ir::CloneModule(*built);
  const RunResult all_shared = core::InstrumentAndRun(*m1, flat, {});
  ASSERT_EQ(all_shared.status, vm::RunStatus::kOk) << all_shared.message;

  Config wide = flat;
  wide.shards = 64;
  auto m2 = ir::CloneModule(*built);
  const RunResult sharded = core::InstrumentAndRun(*m2, wide, {});
  ASSERT_EQ(sharded.status, vm::RunStatus::kOk) << sharded.message;

  EXPECT_GT(all_shared.counters.store_contended_ops, 0u);
  EXPECT_LT(sharded.counters.store_contended_ops,
            all_shared.counters.store_contended_ops);
  EXPECT_GT(sharded.counters.store_contended_ops, 0u);
}

// --- clone-vs-fresh ---------------------------------------------------------

// A clone instruments and runs exactly like the fresh build it was cloned
// from, at every shard count.
TEST(ShardSweepTest, CloneVsFreshAtEveryShardCount) {
  for (const workloads::Workload& w : workloads::EventLoop()) {
    auto fresh = w.build(1);
    auto clone = ir::CloneModule(*fresh);
    for (uint32_t shards : {1u, 8u, 64u}) {
      Config config;
      config.protection = Protection::kCpi;
      config.shards = shards;
      auto fresh_run = ir::CloneModule(*fresh);
      auto clone_run = ir::CloneModule(*clone);
      ExpectIdentical(core::InstrumentAndRun(*fresh_run, config, w.input),
                      core::InstrumentAndRun(*clone_run, config, w.input),
                      w.name + " clone / shards=" + std::to_string(shards));
    }
  }
}

// --- the static home map ----------------------------------------------------

// HomeOf ties every address to the thread whose layout region contains it;
// ShardOfAddress at count 1 is always shard 0 (the flat model).
TEST(ShardMapTest, HomesFollowTheStaticLayout) {
  using vm::HomeOf;
  // Thread stacks (top-down strides from kStackTop).
  EXPECT_EQ(HomeOf(vm::kStackTop - 8), 0u);
  EXPECT_EQ(HomeOf(vm::UnsafeStackTopFor(1) - 8), 1u);
  EXPECT_EQ(HomeOf(vm::UnsafeStackTopFor(5) - 8), 5u);
  // Safe-stack homes.
  EXPECT_EQ(HomeOf(vm::SafeStackTopFor(0) - 8), 0u);
  EXPECT_EQ(HomeOf(vm::SafeStackTopFor(3) - 8), 3u);
  // Heap: thread 0 owns the base region, spawned threads their arenas.
  EXPECT_EQ(HomeOf(vm::kHeapBase), 0u);
  EXPECT_EQ(HomeOf(vm::kHeapLimit - 1), 1u);
  EXPECT_EQ(HomeOf(vm::kHeapLimit - vm::kThreadHeapBytes - 1), 2u);
  // Globals and other low memory default to the main thread.
  EXPECT_EQ(HomeOf(0x1000), 0u);

  for (uint64_t addr : std::initializer_list<uint64_t>{0x1000, vm::kHeapBase,
                                                       vm::kStackTop - 8}) {
    EXPECT_EQ(vm::ShardOfAddress(addr, 1), 0u);
    EXPECT_LT(vm::ShardOfAddress(addr, 64), 64u);
  }
  // The hashed map keeps a same-home address pair together at any count.
  for (uint32_t count : {2u, 8u, 64u}) {
    EXPECT_EQ(vm::ShardOfAddress(vm::kHeapBase, count),
              vm::ShardOfAddress(vm::kHeapBase + 8, count));
  }
}

}  // namespace
}  // namespace cpi
