// Differential tests for the predecoded threaded-dispatch engine.
//
// The decoded engine is a pure wall-clock optimisation: its simulated
// behaviour — cycle counts, cache hits/misses, memory footprint, program
// output, violations — must be bit-identical to the tree-walking reference
// interpreter. These tests run both engines over every workload x every
// registered protection scheme (plus attack programs that exercise the
// hijack/crash/violation paths) and assert full RunResult equality.
//
// ir::CloneModule rides on the same invariant: a clone must instrument and
// run exactly like a fresh build. So does decode sharing: one DecodedModule
// reused across runtime settings (and threads) must run exactly like a fresh
// decode per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/fuzz/generator.h"
#include "src/ir/clone.h"
#include "src/support/pool.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"
#include "tests/run_identity.h"

namespace cpi {
namespace {

using core::Config;
using core::ProtectionScheme;
using vm::RunResult;
using test::ExpectIdentical;

// Instrument + run one clone of `built` per engine and compare.
void RunBothEngines(const ir::Module& built, Config config, const core::Input& input,
                    const std::string& label) {
  auto decoded_module = ir::CloneModule(built);
  const RunResult decoded = core::InstrumentAndRun(*decoded_module, config, input);

  config.engine = vm::EngineKind::kReference;
  auto reference_module = ir::CloneModule(built);
  const RunResult reference = core::InstrumentAndRun(*reference_module, config, input);

  ExpectIdentical(decoded, reference, label);
}

// The acceptance bar: every workload x every registered scheme agrees on the
// whole RunResult, down to individual counter values.
TEST(DecodeDifferentialTest, AllWorkloadsAllSchemes) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      Config config;
      config.protection = s->id();
      config.scheme = s;  // composites run as composites, not their first part
      RunBothEngines(*built, config, w.input, w.name + " / " + s->name());
    }
  }
}

// The hash and two-level store organisations exercise different safe-store
// touch patterns (probe chains, directory walks) and the checked-libcall
// CopyRange path; cover them for the store-backed schemes.
TEST(DecodeDifferentialTest, AlternativeStoreOrganisations) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (core::Protection p : {core::Protection::kCps, core::Protection::kCpi}) {
      for (runtime::StoreKind store :
           {runtime::StoreKind::kHash, runtime::StoreKind::kTwoLevel}) {
        Config config;
        config.protection = p;
        config.store = store;
        RunBothEngines(*built, config, w.input,
                       w.name + " / " + core::ProtectionName(p) + " / " +
                           runtime::StoreKindName(store));
      }
    }
  }
}

// Attack programs drive the paths benign workloads never reach: corrupted
// return tokens, hijack transfers into no-continuation frames, protection
// aborts, and plain crashes. Both engines must tell the same story.
TEST(DecodeDifferentialTest, AttackMatrixAllSchemes) {
  const std::vector<attacks::AttackSpec> matrix = attacks::GenerateAttackMatrix();
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    for (const attacks::AttackSpec& spec : matrix) {
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

// CloneModule preserves ordinals, layout and numbering: a clone's run is
// bit-identical to the original's under the same configuration.
TEST(CloneModuleTest, CloneRunsIdenticallyToFreshBuild) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    for (core::Protection p :
         {core::Protection::kNone, core::Protection::kCpi, core::Protection::kPtrEnc}) {
      Config config;
      config.protection = p;

      auto original = w.build(1);
      auto clone = ir::CloneModule(*original);

      const RunResult from_original = core::InstrumentAndRun(*original, config, w.input);
      const RunResult from_clone = core::InstrumentAndRun(*clone, config, w.input);
      ExpectIdentical(from_clone, from_original,
                      w.name + " clone / " + core::ProtectionName(p));
    }
  }
}

// A clone is fully detached from its source: instrumenting the clone must
// not touch the original module.
TEST(CloneModuleTest, CloneIsIndependent) {
  const workloads::Workload& w = workloads::SpecCpu2006().front();
  auto original = w.build(1);
  const size_t before = original->InstructionCount();

  auto clone = ir::CloneModule(*original);
  Config config;
  config.protection = core::Protection::kCpi;
  core::Compiler compiler(config);
  compiler.Instrument(*clone);

  EXPECT_EQ(original->InstructionCount(), before);
  EXPECT_FALSE(original->protection().cpi);
  EXPECT_TRUE(clone->protection().cpi);
  EXPECT_GT(clone->InstructionCount(), before);
}

// --- Decode sharing ----------------------------------------------------------

// One runtime setting of a shared-decode run: everything fuzz::RunCase varies
// among the cells of one compile key, except the engine.
struct Setting {
  std::string label;
  uint64_t quantum = 64;
  runtime::StoreKind store = runtime::StoreKind::kArray;
  uint32_t shards = 1;
  bool migrate = false;
  vm::FaultPlan faults;  // empty: no plan
};

// The settings RunCase sweeps: quanta, stores, shard counts, migration, and
// every fault kind fired at a third and two thirds of `span` instructions.
std::vector<Setting> RuntimeSettings(uint64_t span) {
  std::vector<Setting> out;
  auto add = [&out](std::string label) -> Setting& {
    out.emplace_back();
    out.back().label = std::move(label);
    return out.back();
  };
  for (uint64_t q : {1, 64, 4096}) {
    add("quantum " + std::to_string(q)).quantum = q;
  }
  for (runtime::StoreKind store :
       {runtime::StoreKind::kArray, runtime::StoreKind::kHash, runtime::StoreKind::kTwoLevel}) {
    add(std::string("store ") + runtime::StoreKindName(store)).store = store;
  }
  for (uint32_t shards : {2u, 8u, 64u}) {
    add("shards " + std::to_string(shards)).shards = shards;
  }
  Setting& migrate = add("shards 8 migrate");
  migrate.shards = 8;
  migrate.migrate = true;
  for (vm::FaultKind kind :
       {vm::FaultKind::kCorruptSafeStack, vm::FaultKind::kCorruptSafeStore,
        vm::FaultKind::kOomSafeStore, vm::FaultKind::kOomHeapArena,
        vm::FaultKind::kOomPageAlloc, vm::FaultKind::kForcePreempt,
        vm::FaultKind::kCorruptShard, vm::FaultKind::kOomShard}) {
    Setting& f = add(std::string("fault ") + vm::FaultKindName(kind));
    const uint64_t salt = static_cast<uint64_t>(kind);
    f.faults.events.push_back({kind, std::max<uint64_t>(1, span / 3), salt});
    f.faults.events.push_back({kind, std::max<uint64_t>(2, 2 * span / 3), salt + 16});
    if (kind == vm::FaultKind::kCorruptShard || kind == vm::FaultKind::kOomShard) {
      f.shards = 8;
    }
  }
  return out;
}

Config ConfigFor(const Config& base, const Setting& setting, vm::EngineKind engine) {
  Config c = base;
  c.engine = engine;
  c.thread_quantum = setting.quantum;
  c.store = setting.store;
  c.shards = setting.shards;
  c.migrate = setting.migrate;
  c.faults = setting.faults.events.empty() ? nullptr : &setting.faults;
  return c;
}

// The programs the sharing tests run, instrumented for CPI (safe stack plus
// safe store, so every store, shard and fault setting has something to act
// on): threaded fuzz programs with hazards, and a threaded server.
struct SharedProgram {
  std::string name;
  std::unique_ptr<ir::Module> module;
  core::Input input;
};

std::vector<SharedProgram> SharingPrograms(const Config& config) {
  std::vector<SharedProgram> out;
  fuzz::GenOptions gen;
  gen.hazards = true;
  gen.threads = true;
  for (uint64_t seed : {3, 11}) {
    out.push_back({"fuzz seed " + std::to_string(seed),
                   fuzz::Materialize(fuzz::MakePlan(seed, gen)), {}});
  }
  const workloads::Workload& server = workloads::ConcurrentServer().front();
  out.push_back({server.name, server.build(1), server.input});
  for (SharedProgram& p : out) {
    core::Compiler(config).Instrument(*p.module);
  }
  return out;
}

Config SharingBase() {
  Config c;
  c.scheme = core::SchemeRegistry::FindByName("cpi");
  c.protection = c.scheme->id();
  c.max_steps = 2'000'000;
  return c;
}

// One DecodedModule per tier serves every runtime setting, forwards and then
// backwards (no state may carry from one run into the next), and each run
// equals a fresh vm::Execute(module, options) that decodes for itself.
TEST(DecodeSharingTest, SharedDecodeMatchesFreshDecodeInEverySetting) {
  const Config base = SharingBase();
  uint64_t spawning = 0, crashed = 0, page_ooms = 0;
  for (const SharedProgram& p : SharingPrograms(base)) {
    const uint64_t span = core::Run(*p.module, base, p.input).counters.instructions;
    const std::vector<Setting> settings = RuntimeSettings(span);
    for (vm::EngineKind engine : {vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
      const vm::DecodedModule decoded(*p.module, vm::ComputeProgramLayout(*p.module),
                                      engine == vm::EngineKind::kFused);
      std::vector<RunResult> fresh;
      for (const Setting& s : settings) {
        fresh.push_back(core::Run(*p.module, ConfigFor(base, s, engine), p.input));
      }
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t k = 0; k < settings.size(); ++k) {
          const size_t i = pass == 0 ? k : settings.size() - 1 - k;
          const RunResult shared = core::Run(decoded, ConfigFor(base, settings[i], engine), p.input);
          ExpectIdentical(shared, fresh[i],
                          p.name + " / " + vm::EngineKindName(engine) + " / " +
                              settings[i].label + (pass == 0 ? "" : " (reversed)"));
        }
      }
      for (size_t i = 0; i < settings.size(); ++i) {
        spawning += fresh[i].counters.thread_spawns > 0;
        crashed += fresh[i].status == vm::RunStatus::kCrash;
        page_ooms += fresh[i].faults_injected > 0 &&
                     settings[i].faults.events[0].kind == vm::FaultKind::kOomPageAlloc;
      }
    }
  }
  // The sweep reached threads, mid-run crashes and the page-allocation OOM.
  EXPECT_GT(spawning, 0u);
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(page_ooms, 0u);
}

// The same decodes shared by four executors running every setting at
// once: a decode is read-only, so concurrent runs stay bit-identical to
// serial fresh ones.
TEST(DecodeSharingTest, ConcurrentRunsOnOneDecode) {
  const Config base = SharingBase();
  for (const SharedProgram& p : SharingPrograms(base)) {
    const uint64_t span = core::Run(*p.module, base, p.input).counters.instructions;
    const std::vector<Setting> settings = RuntimeSettings(span);
    for (vm::EngineKind engine : {vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
      const vm::DecodedModule decoded(*p.module, vm::ComputeProgramLayout(*p.module),
                                      engine == vm::EngineKind::kFused);
      // Each setting twice, so several executors run the same one together.
      std::vector<RunResult> shared(2 * settings.size());
      ParallelFor(4, shared.size(), [&](size_t i) {
        const Setting& s = settings[i % settings.size()];
        shared[i] = core::Run(decoded, ConfigFor(base, s, engine), p.input);
      });
      for (size_t i = 0; i < shared.size(); ++i) {
        const Setting& s = settings[i % settings.size()];
        ExpectIdentical(shared[i], core::Run(*p.module, ConfigFor(base, s, engine), p.input),
                        p.name + " / " + vm::EngineKindName(engine) + " / " + s.label);
      }
    }
  }
}

// A decode serves exactly its own tier: the fused tier's dispatch needs the
// macro heads only a fused decode installs, so a plain decode handed to a
// fused run aborts rather than running a different program.
TEST(DecodeSharingDeathTest, DecodedTierRejectsFusedRun) {
  const Config base = SharingBase();
  auto module = fuzz::Materialize(fuzz::MakePlan(3));
  core::Compiler(base).Instrument(*module);
  const vm::DecodedModule decoded(*module, vm::ComputeProgramLayout(*module), /*fuse=*/false);
  Config fused = base;
  fused.engine = vm::EngineKind::kFused;
  EXPECT_DEATH(core::Run(decoded, fused), "CPI_CHECK");
}

}  // namespace
}  // namespace cpi
