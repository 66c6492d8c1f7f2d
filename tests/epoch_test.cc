// Differential battery for epoch-versioned shard ownership.
//
// Epoch migration (Config::migrate) is, like the static shard map it
// replaces, a *pricing* mechanism: it re-derives shard owners at every
// spawn/join boundary and lets the current owner skip the sync premium, but
// it never changes what the program computes. The battery pins that down:
// single-threaded runs are bit-identical with migration on or off at every
// shard count; engines and scheduler quanta agree to the cycle with
// migration enabled on the churn server; on every concurrent workload the
// epoch model charges no more contended ops than the static model (and
// strictly fewer where workers inherit cells); clones run exactly like
// fresh builds; and the full cross-thread attack matrix is outcome-for-
// outcome identical with migration on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/builder.h"
#include "src/ir/clone.h"
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

// Every concurrent workload the repo ships: event loop, Table 4 servers,
// and the churn server that motivates migration.
std::vector<workloads::Workload> SweepWorkloads() {
  std::vector<workloads::Workload> out = workloads::EventLoop();
  for (const auto& w : workloads::ConcurrentServer()) {
    out.push_back(w);
  }
  for (const auto& w : workloads::ChurnServer()) {
    out.push_back(w);
  }
  return out;
}

// --- single-threaded invisibility -------------------------------------------

// Migration publishes epochs only at spawn/join boundaries and prices only
// concurrent runs, so a single-threaded program must not observe the flag —
// or the shard count — down to the cycle and the byte.
TEST(EpochSweepTest, SingleThreadedRunsIgnoreMigration) {
  const workloads::Workload* w = workloads::FindWorkload("429.mcf");
  ASSERT_NE(w, nullptr);
  for (Protection p : {Protection::kCpi, Protection::kPtrEnc}) {
    Config base;
    base.protection = p;
    const RunResult want = RunFresh(*w, base);
    ASSERT_EQ(want.status, vm::RunStatus::kOk) << want.message;
    EXPECT_EQ(want.counters.store_contended_ops, 0u);
    for (uint32_t shards : {1u, 2u, 8u, 64u}) {
      for (bool migrate : {false, true}) {
        Config config = base;
        config.shards = shards;
        config.migrate = migrate;
        ExpectIdentical(RunFresh(*w, config), want,
                        w->name + " / " + core::ProtectionName(p) +
                            " shards=" + std::to_string(shards) +
                            " migrate=" + (migrate ? "on" : "off"));
      }
    }
  }
}

// --- determinism with migration enabled -------------------------------------

// The critical determinism matrix: with migration on, every engine and
// every scheduler quantum must agree to the cycle on the churn server.
// Epoch publishes happen in the joining/spawning thread's program order
// (always main here), so the quantum cannot reorder them.
TEST(EpochDeterminismTest, EnginesAndQuantaAgreeOnChurn) {
  const workloads::Workload* w = workloads::FindWorkload("mt-epoll-churn");
  ASSERT_NE(w, nullptr);
  auto built = w->build(1);
  Config base;
  base.protection = Protection::kCpi;
  base.shards = 8;
  base.migrate = true;
  auto first = ir::CloneModule(*built);
  const RunResult want = core::InstrumentAndRun(*first, base, w->input);
  ASSERT_EQ(want.status, vm::RunStatus::kOk) << want.message;
  EXPECT_GT(want.counters.shard_migrations, 0u);
  for (vm::EngineKind engine :
       {vm::EngineKind::kReference, vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
    for (uint64_t quantum : {1ull, 37ull, 1024ull}) {
      Config config = base;
      config.engine = engine;
      config.thread_quantum = quantum;
      auto clone = ir::CloneModule(*built);
      ExpectIdentical(core::InstrumentAndRun(*clone, config, w->input), want,
                      std::string(vm::EngineKindName(engine)) +
                          " / q=" + std::to_string(quantum));
    }
  }
}

// --- epoch vs static pricing -------------------------------------------------

// On every concurrent workload and under every registered scheme, epoch
// ownership must charge the same behaviour and never *more* contended ops
// than static ownership: a shard static ownership prices as owned has a
// unique live home, and that home owns it in every epoch it can access.
TEST(EpochSweepTest, NeverMoreContendedThanStatic) {
  for (const workloads::Workload& w : SweepWorkloads()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      Config fixed;
      fixed.protection = s->id();
      fixed.shards = 16;
      auto first = ir::CloneModule(*built);
      const RunResult statically = core::InstrumentAndRun(*first, fixed, w.input);
      Config epoch = fixed;
      epoch.migrate = true;
      auto clone = ir::CloneModule(*built);
      const RunResult migrated = core::InstrumentAndRun(*clone, epoch, w.input);
      const std::string label = w.name + " / " + s->name();
      ExpectSameBehaviour(migrated, statically, label);
      EXPECT_LE(migrated.counters.store_contended_ops,
                statically.counters.store_contended_ops)
          << label;
    }
  }
}

// The headline: on the churn server — where worker generations inherit their
// predecessors' connection cells — epoch ownership strictly reduces the
// contended-op count, and on mt-wsgi the near-total floor (workers hammering
// the main-homed route table) drops materially because the main thread
// freezes its shards at the first spawn and reads become free.
TEST(EpochSweepTest, MigrationPaysOnChurnAndWsgi) {
  struct Case {
    const char* name;
    double max_share;  // epoch contended must fall below this share of static
  };
  for (const Case c : {Case{"mt-epoll-churn", 0.95}, Case{"mt-wsgi-page", 0.5}}) {
    const workloads::Workload* w = workloads::FindWorkload(c.name);
    ASSERT_NE(w, nullptr) << c.name;
    auto built = w->build(1);
    Config fixed;
    fixed.protection = Protection::kCpi;
    fixed.shards = 16;
    auto first = ir::CloneModule(*built);
    const RunResult statically = core::InstrumentAndRun(*first, fixed, w->input);
    ASSERT_EQ(statically.status, vm::RunStatus::kOk) << statically.message;
    ASSERT_GT(statically.counters.store_contended_ops, 0u) << c.name;

    Config epoch = fixed;
    epoch.migrate = true;
    auto clone = ir::CloneModule(*built);
    const RunResult migrated = core::InstrumentAndRun(*clone, epoch, w->input);
    ASSERT_EQ(migrated.status, vm::RunStatus::kOk) << migrated.message;
    EXPECT_LT(migrated.counters.store_contended_ops,
              statically.counters.store_contended_ops)
        << c.name;
    EXPECT_LT(static_cast<double>(migrated.counters.store_contended_ops),
              c.max_share * static_cast<double>(statically.counters.store_contended_ops))
        << c.name << ": epoch=" << migrated.counters.store_contended_ops
        << " static=" << statically.counters.store_contended_ops;
    EXPECT_GT(migrated.counters.shard_migrations, 0u) << c.name;
    EXPECT_EQ(statically.counters.shard_migrations, 0u) << c.name;
  }
}

// --- clone-vs-fresh -----------------------------------------------------------

// A clone instruments and runs exactly like the fresh build it came from
// with migration enabled, at every shard count.
TEST(EpochSweepTest, CloneVsFreshWithMigration) {
  const workloads::Workload* w = workloads::FindWorkload("mt-epoll-churn");
  ASSERT_NE(w, nullptr);
  auto fresh = w->build(1);
  auto clone = ir::CloneModule(*fresh);
  for (uint32_t shards : {2u, 8u, 64u}) {
    Config config;
    config.protection = Protection::kCpi;
    config.shards = shards;
    config.migrate = true;
    auto fresh_run = ir::CloneModule(*fresh);
    auto clone_run = ir::CloneModule(*clone);
    ExpectIdentical(core::InstrumentAndRun(*fresh_run, config, w->input),
                    core::InstrumentAndRun(*clone_run, config, w->input),
                    w->name + " clone / shards=" + std::to_string(shards));
  }
}

// --- security is pricing-invariant -------------------------------------------

// Ownership migration moves *charges*, never protection: the full
// cross-thread attack matrix must come out outcome-for-outcome identical
// with migration on, across engines and opt levels.
TEST(EpochAttackTest, CrossThreadMatrixUnchangedByMigration) {
  for (vm::EngineKind engine :
       {vm::EngineKind::kReference, vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
    for (int opt : {0, 1}) {
      Config fixed;
      fixed.engine = engine;
      fixed.opt_level = opt;
      fixed.shards = 8;
      const std::vector<attacks::AttackResult> want =
          attacks::RunCrossThreadMatrix(fixed, /*jobs=*/2);
      Config epoch = fixed;
      epoch.migrate = true;
      const std::vector<attacks::AttackResult> got =
          attacks::RunCrossThreadMatrix(epoch, /*jobs=*/2);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_GT(got.size(), 0u);
      for (size_t i = 0; i < got.size(); ++i) {
        const std::string label = std::string(vm::EngineKindName(engine)) + " / O" +
                                  std::to_string(opt) + " / attack #" +
                                  std::to_string(i);
        EXPECT_EQ(got[i].outcome, want[i].outcome) << label;
        EXPECT_EQ(got[i].status, want[i].status) << label;
        EXPECT_EQ(got[i].violation, want[i].violation) << label;
        EXPECT_EQ(got[i].message, want[i].message) << label;
      }
    }
  }
}

}  // namespace
}  // namespace cpi
