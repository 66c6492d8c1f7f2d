// Tests for the fuzzing harness itself (src/fuzz): generator determinism
// and totality, the differential executor, the fault-injection substrate,
// the delta-debugging minimizer, and corpus serialisation — plus replay of
// the checked-in regression corpus under ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/minimize.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/safe_store.h"
#include "src/support/oom.h"
#include "src/support/rng.h"
#include "src/vm/layout.h"
#include "src/vm/memory.h"

namespace cpi {
namespace {

fuzz::GenOptions FullOptions() {
  fuzz::GenOptions options;
  options.hazards = true;
  options.threads = true;
  return options;
}

// --- Generator ------------------------------------------------------------

TEST(FuzzGeneratorTest, PlansAndModulesAreDeterministic) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const fuzz::Plan p1 = fuzz::MakePlan(seed, FullOptions());
    const fuzz::Plan p2 = fuzz::MakePlan(seed, FullOptions());
    ASSERT_EQ(p1.ops.size(), p2.ops.size()) << "seed " << seed;
    for (size_t i = 0; i < p1.ops.size(); ++i) {
      EXPECT_EQ(p1.ops[i].kind, p2.ops[i].kind);
      EXPECT_EQ(p1.ops[i].a, p2.ops[i].a);
    }
    auto m1 = fuzz::Materialize(p1);
    auto m2 = fuzz::Materialize(p2);
    EXPECT_EQ(ir::PrintModule(*m1), ir::PrintModule(*m2)) << "seed " << seed;
  }
}

TEST(FuzzGeneratorTest, GeneratedModulesAreValid) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto module = fuzz::Materialize(fuzz::MakePlan(seed, FullOptions()));
    EXPECT_TRUE(ir::IsValid(*module)) << "seed " << seed;
  }
}

// Materialize must be total: the minimizer and corpus parser hand it
// arbitrarily mutated plans, and every one must still build valid IR.
TEST(FuzzGeneratorTest, MaterializeIsTotalOnMutatedPlans) {
  fuzz::Plan plan = fuzz::MakePlan(3, FullOptions());
  plan.num_slots = 0;
  plan.num_leaves = 0xffffffff;
  plan.num_pure = 0;
  plan.num_cells = 1000;
  plan.num_workers = 77;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    plan.ops[i].kind = static_cast<uint8_t>(200 + i);  // out-of-range kinds
    plan.ops[i].a = 0xdeadbeef;
    plan.ops[i].b = 0xffffffff;
  }
  auto module = fuzz::Materialize(plan);
  EXPECT_TRUE(ir::IsValid(*module));
  core::Config config;
  auto r = core::InstrumentAndRun(*module, config);
  EXPECT_NE(r.status, vm::RunStatus::kOutOfFuel);
}

// --- Differential executor ------------------------------------------------

TEST(FuzzDifferentialTest, CleanOnSampledSeeds) {
  for (uint64_t seed : {1ULL, 9ULL, 17ULL}) {
    const fuzz::Plan plan = fuzz::MakePlan(seed, FullOptions());
    const fuzz::CaseResult r = fuzz::RunCase(plan);
    EXPECT_EQ(r.status, fuzz::CaseStatus::kPass) << "seed " << seed << ": " << r.detail;
    EXPECT_GT(r.cells_run, 50) << "seed " << seed;
    EXPECT_FALSE(r.fault_coverage.empty()) << "seed " << seed;
  }
}

// RunCase runs one declared row list per scheme: per registry scheme the
// oracle, four counter-identity cells, three behaviour cells and three
// reference/fused pairs (14 cells), plus eight fault cells with the fault
// campaign on; CPI adds its debug and temporal pairs. A lost or duplicated
// row changes the count of a passing, never fuel-capped case.
TEST(FuzzDifferentialTest, RunsTheDeclaredMatrix) {
  ASSERT_EQ(core::SchemeRegistry::All().size(), 11u);
  fuzz::DiffOptions no_faults;
  no_faults.fault_campaign = false;
  for (uint64_t seed : {7ULL, 8ULL}) {
    const fuzz::Plan plan = fuzz::MakePlan(seed, FullOptions());
    const fuzz::CaseResult with_faults = fuzz::RunCase(plan);
    const fuzz::CaseResult without = fuzz::RunCase(plan, no_faults);
    for (const fuzz::CaseResult* r : {&with_faults, &without}) {
      ASSERT_EQ(r->status, fuzz::CaseStatus::kPass) << "seed " << seed << ": " << r->detail;
      ASSERT_EQ(r->fuel_skips, 0) << "seed " << seed;
    }
    EXPECT_EQ(with_faults.cells_run, 11 * 22 + 4) << "seed " << seed;
    EXPECT_EQ(without.cells_run, 11 * 14 + 4) << "seed " << seed;
  }
}

// RunCase runs most cells of a compile key on one shared module, so running
// a module must leave it as it was: every runtime setting RunCase varies,
// run in turn on one module, gives the run a fresh compile gives.
TEST(FuzzDifferentialTest, SharedModuleRunsMatchFreshCompiles) {
  vm::FaultPlan corrupt;
  corrupt.events.push_back({vm::FaultKind::kCorruptSafeStore, 60, 5});
  corrupt.events.push_back({vm::FaultKind::kForcePreempt, 90, 0});
  corrupt.events.push_back({vm::FaultKind::kCorruptShard, 150, 9});
  vm::FaultPlan oom;
  oom.events.push_back({vm::FaultKind::kOomPageAlloc, 40, 2});
  auto runtime_variants = [&](const core::Config& base) {
    std::vector<core::Config> out;
    for (vm::EngineKind engine :
         {vm::EngineKind::kReference, vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
      out.push_back(base);
      out.back().engine = engine;
    }
    for (uint64_t quantum : {1ULL, 4096ULL}) {
      out.push_back(base);
      out.back().thread_quantum = quantum;
    }
    for (runtime::StoreKind store : {runtime::StoreKind::kHash, runtime::StoreKind::kTwoLevel}) {
      out.push_back(base);
      out.back().store = store;
    }
    for (uint32_t shards : {2u, 64u}) {
      out.push_back(base);
      out.back().shards = shards;
    }
    out.push_back(base);
    out.back().shards = 8;
    out.back().migrate = true;
    out.push_back(base);
    out.back().shards = 8;
    out.back().faults = &corrupt;
    out.push_back(base);
    out.back().faults = &oom;
    return out;
  };
  auto same = [](const vm::RunResult& a, const vm::RunResult& b) {
    auto tie = [](const vm::RunResult& r) {
      const vm::Counters& c = r.counters;
      return std::make_tuple(
          r.status, r.violation, r.message, r.exit_code, r.output, r.faults_injected,
          c.instructions, c.cycles, c.mem_accesses, c.safe_store_ops, c.store_contended_ops,
          c.shard_migrations, c.seal_ops, c.checks, c.calls, c.hijack_transfers, c.cache_hits,
          c.cache_misses, c.thread_spawns, r.memory.regular_bytes, r.memory.safe_store_bytes,
          r.memory.safe_stack_bytes, r.memory.safe_store_entries);
    };
    return tie(a) == tie(b);
  };

  for (uint64_t seed : {3ULL, 11ULL}) {
    const fuzz::Plan plan = fuzz::MakePlan(seed, FullOptions());
    std::vector<core::Config> keys;
    for (const core::ProtectionScheme* s : core::SchemeRegistry::All()) {
      keys.emplace_back();
      keys.back().scheme = s;
      keys.back().protection = s->id();
    }
    const core::ProtectionScheme* cpi = core::SchemeRegistry::FindByName("cpi");
    for (int variant = 0; variant < 3; ++variant) {
      keys.emplace_back();
      keys.back().scheme = cpi;
      keys.back().protection = cpi->id();
      keys.back().opt_level = variant == 0 ? 1 : 0;
      keys.back().debug_mode = variant == 1;
      keys.back().temporal = variant == 2;
    }
    for (core::Config key : keys) {
      key.max_steps = fuzz::DiffOptions{}.max_steps;
      auto shared = fuzz::Materialize(plan);
      core::Compiler(key).Instrument(*shared);
      for (const core::Config& config : runtime_variants(key)) {
        const vm::RunResult got = core::Run(*shared, config);
        const vm::RunResult want = core::InstrumentAndRun(*fuzz::Materialize(plan), config);
        EXPECT_TRUE(same(got, want))
            << "seed " << seed << " " << key.scheme->name() << " O" << key.opt_level
            << (key.debug_mode ? " debug" : "") << (key.temporal ? " temporal" : "")
            << ": engine " << static_cast<int>(config.engine) << " quantum "
            << config.thread_quantum << " store " << runtime::StoreKindName(config.store)
            << " shards " << config.shards << (config.migrate ? " migrate" : "")
            << (config.faults != nullptr ? " faults" : "");
      }
    }
  }
}

// --- Fault-injection substrate --------------------------------------------

TEST(FaultInjectionTest, ByteMemoryAllocFailureThrowsSimulatedOom) {
  vm::ByteMemory mem;
  mem.MapRange(0x1000, 0x3000, /*writable=*/true);
  mem.ArmAllocFailure(1);  // one materialisation succeeds, the next throws
  EXPECT_EQ(mem.WriteByte(0x1000, 7), vm::MemFault::kNone);
  EXPECT_THROW(mem.WriteByte(0x2000, 7), SimulatedOom);
  // One-shot: disarmed after firing.
  EXPECT_EQ(mem.WriteByte(0x3000, 7), vm::MemFault::kNone);
}

TEST(FaultInjectionTest, SafeStoreGrowthFailureThrowsSimulatedOom) {
  for (runtime::StoreKind kind : {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
                                  runtime::StoreKind::kHash}) {
    auto store = runtime::CreateSafeStore(kind);
    store->InjectAllocFailure(0);  // the very next growth allocation fails
    EXPECT_THROW(
        {
          // Spread entries across distinct pages/tables until growth happens.
          for (uint64_t i = 0; i < 4096; ++i) {
            store->Set(0x10000 + i * 8192, runtime::SafeEntry::Code(0x40), nullptr);
          }
        },
        SimulatedOom)
        << runtime::StoreKindName(kind);
  }
}

TEST(FaultInjectionTest, CorruptEntryFlipsExactlyOneLiveValue) {
  for (runtime::StoreKind kind : {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
                                  runtime::StoreKind::kHash}) {
    auto store = runtime::CreateSafeStore(kind);
    EXPECT_FALSE(store->CorruptEntry(0, 0xff)) << "empty store must decline";
    for (uint64_t i = 0; i < 8; ++i) {
      store->Set(0x1000 + i * 8, runtime::SafeEntry::Code(0x100 + i), nullptr);
    }
    ASSERT_TRUE(store->CorruptEntry(3, 0xf0)) << runtime::StoreKindName(kind);
    int changed = 0;
    for (uint64_t i = 0; i < 8; ++i) {
      const runtime::SafeEntry e = store->Get(0x1000 + i * 8, nullptr);
      ASSERT_TRUE(e.IsPresent());
      changed += e.value != 0x100 + i;
    }
    EXPECT_EQ(changed, 1) << runtime::StoreKindName(kind);
  }
}

// Injected OOM at the VM level surfaces as a reported crash — never an
// uncaught std::bad_alloc escaping InstrumentAndRun.
TEST(FaultInjectionTest, InjectedOomSurfacesAsReportedCrash) {
  const fuzz::Plan plan = fuzz::MakePlan(5, FullOptions());
  for (vm::FaultKind kind : {vm::FaultKind::kOomPageAlloc, vm::FaultKind::kOomSafeStore}) {
    vm::FaultPlan faults;
    faults.events.push_back({kind, /*at_instruction=*/10, /*arg=*/0});
    core::Config config;
    config.protection = core::Protection::kCpi;
    config.faults = &faults;
    auto module = fuzz::Materialize(plan);
    vm::RunResult r;
    ASSERT_NO_THROW(r = core::InstrumentAndRun(*module, config)) << vm::FaultKindName(kind);
    EXPECT_GT(r.faults_injected, 0u) << vm::FaultKindName(kind);
    if (kind == vm::FaultKind::kOomPageAlloc) {
      // Page allocations happen on every store; this one must have fired.
      EXPECT_EQ(r.status, vm::RunStatus::kCrash) << r.message;
      EXPECT_NE(r.message.find("out of memory"), std::string::npos) << r.message;
    }
  }
}

TEST(FaultInjectionTest, ForcedPreemptionPreservesBehaviour) {
  const fuzz::Plan plan = fuzz::MakePlan(11, FullOptions());
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto base = core::InstrumentAndRun(*fuzz::Materialize(plan), config);
  vm::FaultPlan faults;
  for (uint64_t at = 50; at < 800; at += 97) {
    faults.events.push_back({vm::FaultKind::kForcePreempt, at, 0});
  }
  config.faults = &faults;
  auto r = core::InstrumentAndRun(*fuzz::Materialize(plan), config);
  EXPECT_EQ(r.status, base.status);
  EXPECT_EQ(r.output, base.output);
  EXPECT_EQ(r.exit_code, base.exit_code);
}

// Per-shard corruption (vm::FaultKind::kCorruptShard) must be contained:
// exactly one live entry of the targeted shard changes, and entries homed
// to every other shard survive intact.
TEST(FaultInjectionTest, ShardCorruptionIsContainedToOneShard) {
  for (runtime::StoreKind kind : {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
                                  runtime::StoreKind::kHash}) {
    auto store = runtime::CreateSafeStore(kind, 8, &vm::ShardOfAddress);
    ASSERT_EQ(store->ShardCount(), 8u);
    // One entry per static home so several distinct shards are populated.
    uint64_t addrs[vm::kMaxThreads];
    for (uint32_t t = 0; t < vm::kMaxThreads; ++t) {
      addrs[t] = vm::UnsafeStackTopFor(t) - 16;
      store->Set(addrs[t], runtime::SafeEntry::Code(0x200 + t), nullptr);
    }
    const uint32_t victim = vm::ShardOfAddress(addrs[0], 8);
    ASSERT_TRUE(store->CorruptEntryInShard(victim, 1, 0xf0)) << runtime::StoreKindName(kind);
    int changed_in_victim = 0;
    int changed_elsewhere = 0;
    for (uint32_t t = 0; t < vm::kMaxThreads; ++t) {
      const runtime::SafeEntry e = store->Get(addrs[t], nullptr);
      ASSERT_TRUE(e.IsPresent());
      const bool changed = e.value != 0x200 + t;
      (vm::ShardOfAddress(addrs[t], 8) == victim ? changed_in_victim : changed_elsewhere) +=
          changed;
    }
    EXPECT_EQ(changed_in_victim, 1) << runtime::StoreKindName(kind);
    EXPECT_EQ(changed_elsewhere, 0) << runtime::StoreKindName(kind);
  }
}

// Per-shard OOM (vm::FaultKind::kOomShard): arming one shard's growth
// countdown must leave every other shard free to grow without limit.
TEST(FaultInjectionTest, ShardAllocFailureFiresOnlyInTheArmedShard) {
  // Two heap arenas whose homes hash to different shards at count 8.
  const uint64_t arena_a = vm::kHeapLimit - 1 * vm::kThreadHeapBytes;
  uint64_t arena_b = 0;
  for (uint64_t t = 2; t < vm::kMaxThreads; ++t) {
    const uint64_t base = vm::kHeapLimit - t * vm::kThreadHeapBytes;
    if (vm::ShardOfAddress(base, 8) != vm::ShardOfAddress(arena_a, 8)) {
      arena_b = base;
      break;
    }
  }
  ASSERT_NE(arena_b, 0u);
  for (runtime::StoreKind kind : {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
                                  runtime::StoreKind::kHash}) {
    auto store = runtime::CreateSafeStore(kind, 8, &vm::ShardOfAddress);
    store->InjectShardAllocFailure(vm::ShardOfAddress(arena_a, 8), 0);
    // Growth confined to the unarmed shard sails through...
    EXPECT_NO_THROW({
      for (uint64_t i = 0; i < 4096; ++i) {
        store->Set(arena_b + i * 8192, runtime::SafeEntry::Code(0x40), nullptr);
      }
    }) << runtime::StoreKindName(kind);
    // ...while the first growth inside the armed shard trips the OOM.
    EXPECT_THROW(
        {
          for (uint64_t i = 0; i < 4096; ++i) {
            store->Set(arena_a + i * 8192, runtime::SafeEntry::Code(0x40), nullptr);
          }
        },
        SimulatedOom)
        << runtime::StoreKindName(kind);
  }
}

// The VM-level shard fault kinds must surface as reported results for every
// scheme — never as an escaped exception — and actually land when a sharded
// CPI store is present.
TEST(FaultInjectionTest, ShardFaultsAreContainedForEveryScheme) {
  const fuzz::Plan plan = fuzz::MakePlan(9, FullOptions());
  for (core::Protection p :
       {core::Protection::kNone, core::Protection::kSafeStack, core::Protection::kCps,
        core::Protection::kCpi, core::Protection::kSoftBound, core::Protection::kCfi,
        core::Protection::kStackCookies, core::Protection::kPtrEnc}) {
    for (vm::FaultKind kind : {vm::FaultKind::kCorruptShard, vm::FaultKind::kOomShard}) {
      vm::FaultPlan faults;
      faults.events.push_back({kind, /*at_instruction=*/40, /*arg=*/5});
      core::Config config;
      config.protection = p;
      config.shards = 8;
      config.faults = &faults;
      auto module = fuzz::Materialize(plan);
      vm::RunResult r;
      ASSERT_NO_THROW(r = core::InstrumentAndRun(*module, config))
          << core::ProtectionName(p) << "/" << vm::FaultKindName(kind);
      if (p == core::Protection::kCpi && kind == vm::FaultKind::kOomShard) {
        EXPECT_GT(r.faults_injected, 0u) << r.message;
      }
    }
  }
}

// --- Minimizer + corpus ---------------------------------------------------

// End-to-end: a seeded injected divergence is caught, delta-debugged to the
// minimal form, written to a corpus entry, and reproduced from that entry.
TEST(FuzzMinimizerTest, InjectedDivergenceIsCaughtMinimizedAndReplayed) {
  fuzz::DiffOptions options;
  options.inject_divergence_at = 1;  // every CPI fused cell misreports
  options.fault_campaign = false;

  const fuzz::Plan plan = fuzz::MakePlan(13, FullOptions());
  const fuzz::CaseResult caught = fuzz::RunCase(plan, options);
  ASSERT_EQ(caught.status, fuzz::CaseStatus::kDivergence);
  EXPECT_NE(caught.detail.find("self-test"), std::string::npos) << caught.detail;

  const fuzz::MinimizeResult mr =
      fuzz::Minimize(plan, options, fuzz::CaseStatus::kDivergence);
  EXPECT_GT(mr.evaluations, 0);
  // The injected failure survives any shrink, so the minimizer must reach
  // the recorded minimal form: a single trivial op and unit pools.
  EXPECT_EQ(mr.plan.ops.size(), 1u);
  EXPECT_EQ(mr.plan.ops[0].kind % fuzz::kNumOpKinds, fuzz::kOpArith);
  EXPECT_EQ(mr.plan.num_workers, 0u);
  EXPECT_EQ(mr.plan.num_cells, 1u);
  EXPECT_EQ(mr.plan.num_slots, 1u);
  ASSERT_EQ(fuzz::RunCase(mr.plan, options).status, fuzz::CaseStatus::kDivergence);

  const std::string path = ::testing::TempDir() + "/cpi-fuzz-min.plan";
  ASSERT_TRUE(fuzz::SavePlanFile(path, mr.plan));
  fuzz::Plan reloaded;
  ASSERT_TRUE(fuzz::LoadPlanFile(path, &reloaded));
  EXPECT_EQ(fuzz::RunCase(reloaded, options).status, fuzz::CaseStatus::kDivergence);
}

TEST(FuzzCorpusTest, SerializeParseRoundTrip) {
  const fuzz::Plan plan = fuzz::MakePlan(29, FullOptions());
  fuzz::Plan back;
  ASSERT_TRUE(fuzz::ParsePlan(fuzz::SerializePlan(plan), &back));
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.num_slots, plan.num_slots);
  EXPECT_EQ(back.num_workers, plan.num_workers);
  ASSERT_EQ(back.ops.size(), plan.ops.size());
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    EXPECT_EQ(back.ops[i].kind, plan.ops[i].kind);
    EXPECT_EQ(back.ops[i].a, plan.ops[i].a);
    EXPECT_EQ(back.ops[i].d, plan.ops[i].d);
  }
  EXPECT_FALSE(fuzz::ParsePlan("not a corpus entry", &back));

  // A known tag with a bad field is rejected, not truncated, dropped,
  // zeroed or half-applied; an unknown tag is skipped.
  const std::string magic = "cpi-fuzz-plan v1\n";
  for (const char* bad : {"op 264 1 2 3 4", "op 8 1 2", "op 8 1 2 3 x", "op 8 1 2 3 4294967296",
                          "op -1 1 2 3 4", "seed abc", "seed", "seed 7 junk",
                          "seed 18446744073709551616", "pools 4 3", "pools 4 3 2 1 0 9"}) {
    EXPECT_FALSE(fuzz::ParsePlan(magic + bad + "\n", &back)) << bad;
  }
  ASSERT_TRUE(fuzz::ParsePlan(magic + "note hand-edited\nseed 7\nop 255 1 2 3 4294967295\n", &back));
  EXPECT_EQ(back.seed, 7u);
  ASSERT_EQ(back.ops.size(), 1u);
  EXPECT_EQ(back.ops[0].kind, 255u);
  EXPECT_EQ(back.ops[0].d, 4294967295u);
}

// Replays the checked-in regression corpus: programs that exercised
// interesting paths (hazards, threads, fault campaigns) in past campaigns
// must keep passing the full differential matrix.
TEST(FuzzCorpusTest, RegressionCorpusReplaysClean) {
  const std::filesystem::path dir = std::filesystem::path(CPI_SOURCE_DIR) / "tests" / "corpus";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".plan") {
      entries.push_back(e.path());
    }
  }
  ASSERT_GE(entries.size(), 3u);
  for (const auto& path : entries) {
    fuzz::Plan plan;
    ASSERT_TRUE(fuzz::LoadPlanFile(path.string(), &plan)) << path;
    const fuzz::CaseResult r = fuzz::RunCase(plan);
    EXPECT_EQ(r.status, fuzz::CaseStatus::kPass) << path << ": " << r.detail;
  }
}

// Applies one edit a corrupted or hand-edited corpus entry could carry: an op
// field set to 0, 2^32-1 or a small value, an op kind of 255, a pool size of
// 0 or 2^32-1, or an op line duplicated or deleted.
std::string MutatePlanText(const std::string& text, Rng& rng) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    lines.emplace_back();
    for (std::string field; ls >> field;) {
      lines.back().push_back(field);
    }
  }
  std::vector<size_t> ops;
  size_t pools = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] == "op") {
      ops.push_back(i);
    } else if (!lines[i].empty() && lines[i][0] == "pools") {
      pools = i;
    }
  }
  if (ops.empty() || pools == 0) {
    ADD_FAILURE() << "corpus entry without pools or op lines";
    return text;
  }
  const size_t op = ops[rng.NextBelow(ops.size())];
  const char* const extremes[] = {"0", "4294967295"};
  switch (rng.NextBelow(5)) {
    case 0: {
      const uint64_t pick = rng.NextBelow(3);
      lines[op][2 + rng.NextBelow(4)] =
          pick < 2 ? extremes[pick] : std::to_string(rng.NextBelow(8));
      break;
    }
    case 1:
      lines[op][1] = "255";
      break;
    case 2:
      lines[pools][1 + rng.NextBelow(5)] = extremes[rng.NextBelow(2)];
      break;
    case 3:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(op), lines[op]);
      break;
    default:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(op));
      break;
  }
  std::string out;
  for (const std::vector<std::string>& fields : lines) {
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i == 0 ? "" : " ") + fields[i];
    }
    out += "\n";
  }
  return out;
}

// Fixed-seed mutants of the regression corpus: each is rejected by the
// parser or round-trips, materializes to valid IR and passes the full
// differential matrix under a small step budget.
TEST(FuzzCorpusTest, MutatedCorpusEntriesAreRejectedOrRunClean) {
  const std::filesystem::path dir = std::filesystem::path(CPI_SOURCE_DIR) / "tests" / "corpus";
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".plan") {
      entries.push_back(e.path());
    }
  }
  std::sort(entries.begin(), entries.end());
  ASSERT_GE(entries.size(), 3u);
  fuzz::DiffOptions options;
  options.max_steps = 200'000;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const std::filesystem::path& path = entries[static_cast<size_t>(i) % entries.size()];
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    std::string mutant = text.str();
    for (uint64_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      mutant = MutatePlanText(mutant, rng);
    }
    SCOPED_TRACE(path.filename().string() + " mutant " + std::to_string(i) + ":\n" + mutant);
    fuzz::Plan plan;
    if (!fuzz::ParsePlan(mutant, &plan)) {
      continue;
    }
    // The corpus is in canonical form, so a parsed mutant serializes back
    // to its own text.
    EXPECT_EQ(fuzz::SerializePlan(plan), mutant);
    EXPECT_TRUE(ir::IsValid(*fuzz::Materialize(plan)));
    const fuzz::CaseResult r = fuzz::RunCase(plan, options);
    EXPECT_EQ(r.status, fuzz::CaseStatus::kPass) << r.detail;
  }
}

}  // namespace
}  // namespace cpi
