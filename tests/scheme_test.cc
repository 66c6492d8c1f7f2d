// Tests for the ProtectionScheme registry and the PtrEnc (in-place pointer
// sealing) scheme it was built to enable: registry completeness and lookup,
// pluggable out-of-tree schemes, PtrEnc's functional transparency, its
// attack-prevention behaviour, and its zero-safe-region memory shape.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/instrument/passes.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using core::SchemeRegistry;

TEST(SchemeRegistryTest, ContainsEveryBuiltinExactlyOnce) {
  const Protection builtins[] = {
      Protection::kNone,      Protection::kSafeStack,    Protection::kCps,
      Protection::kCpi,       Protection::kSoftBound,    Protection::kCfi,
      Protection::kStackCookies, Protection::kPtrEnc,
  };
  EXPECT_GE(SchemeRegistry::All().size(), 8u);
  std::set<std::string> names;
  for (const ProtectionScheme* s : SchemeRegistry::All()) {
    EXPECT_TRUE(names.insert(s->name()).second) << "duplicate name " << s->name();
  }
  for (Protection p : builtins) {
    const ProtectionScheme& s = SchemeRegistry::Get(p);
    EXPECT_EQ(s.id(), p);
    EXPECT_EQ(SchemeRegistry::FindByName(s.name()), &s);
  }
  EXPECT_EQ(SchemeRegistry::FindByName("no-such-scheme"), nullptr);
}

TEST(SchemeRegistryTest, ProtectionNameDelegatesToRegistry) {
  EXPECT_STREQ(core::ProtectionName(Protection::kCpi), "cpi");
  EXPECT_STREQ(core::ProtectionName(Protection::kNone), "vanilla");
  EXPECT_STREQ(core::ProtectionName(Protection::kPtrEnc), "ptrenc");
}

TEST(SchemeRegistryTest, ReportingFiltersSelectTheEvaluationColumns) {
  std::set<std::string> columns;
  for (const ProtectionScheme* s : SchemeRegistry::OverheadColumns()) {
    columns.insert(s->name());
  }
  EXPECT_EQ(columns, (std::set<std::string>{"safestack", "cps", "cpi", "ptrenc"}));

  std::set<std::string> ripe;
  for (const ProtectionScheme* s : SchemeRegistry::RipeRows()) {
    ripe.insert(s->name());
  }
  EXPECT_TRUE(ripe.count("vanilla") > 0);   // the control row
  EXPECT_TRUE(ripe.count("ptrenc") > 0);

  for (const ProtectionScheme* s : SchemeRegistry::DefenseRows()) {
    EXPECT_STRNE(s->name(), "vanilla");  // Fig. 5 lists defenses only
  }
}

// The pluggable extension point: an out-of-tree scheme registered at runtime
// drives compilation and execution through Config::scheme.
class NoopScheme final : public ProtectionScheme {
 public:
  Protection id() const override { return Protection::kNone; }
  const char* name() const override { return "noop-extension"; }
  const char* description() const override { return "registry extension test"; }
  void Instrument(ir::Module& module,
                  const instrument::PassOptions&) const override {
    instrument::FinalizeModule(module);
  }
};

TEST(SchemeRegistryTest, OutOfTreeSchemeRunsThroughTheFacade) {
  const ProtectionScheme& scheme =
      SchemeRegistry::Register(std::make_unique<NoopScheme>());
  EXPECT_EQ(SchemeRegistry::FindByName("noop-extension"), &scheme);

  const workloads::Workload& w = workloads::SpecCpu2006().front();
  Config vanilla;
  auto base_module = w.build(1);
  vm::RunResult base = core::InstrumentAndRun(*base_module, vanilla, w.input);
  ASSERT_EQ(base.status, vm::RunStatus::kOk);

  Config config;
  config.scheme = &scheme;
  auto module = w.build(1);
  vm::RunResult r = core::InstrumentAndRun(*module, config, w.input);
  ASSERT_EQ(r.status, vm::RunStatus::kOk) << r.message;
  EXPECT_EQ(r.output, base.output);
}

// Reporting names are the registry's lookup key (FindByName, composite
// specs), so a second scheme under a taken name would shadow or be
// shadowed silently. Registration must die instead.
class NameSquatterScheme final : public ProtectionScheme {
 public:
  Protection id() const override { return Protection::kNone; }
  const char* name() const override { return "cpi"; }  // already taken
  const char* description() const override { return "duplicate-name probe"; }
};

TEST(SchemeRegistryDeathTest, RegisteringADuplicateNameIsFatal) {
  EXPECT_DEATH(SchemeRegistry::Register(std::make_unique<NameSquatterScheme>()),
               "duplicate scheme name 'cpi'");
}

// --- PtrEnc ----------------------------------------------------------------

TEST(PtrEncTest, TransparentOnEverySpecWorkload) {
  for (const auto& w : workloads::SpecCpu2006()) {
    Config vanilla;
    auto base_module = w.build(1);
    vm::RunResult base = core::InstrumentAndRun(*base_module, vanilla, w.input);
    ASSERT_EQ(base.status, vm::RunStatus::kOk) << w.name;

    Config config;
    config.protection = Protection::kPtrEnc;
    auto module = w.build(1);
    vm::RunResult r = core::InstrumentAndRun(*module, config, w.input);
    ASSERT_EQ(r.status, vm::RunStatus::kOk) << w.name << ": " << r.message;
    EXPECT_EQ(r.output, base.output) << w.name;
  }
}

TEST(PtrEncTest, UsesNoSafeRegionUnderAnyStoreKind) {
  for (runtime::StoreKind store :
       {runtime::StoreKind::kArray, runtime::StoreKind::kTwoLevel,
        runtime::StoreKind::kHash}) {
    const workloads::Workload& w = *workloads::FindWorkload("400.perlbench");
    Config config;
    config.protection = Protection::kPtrEnc;
    config.store = store;
    auto module = w.build(1);
    vm::RunResult r = core::InstrumentAndRun(*module, config, w.input);
    ASSERT_EQ(r.status, vm::RunStatus::kOk) << r.message;
    // The defining shape of in-place sealing: pointers are protected, yet
    // the safe pointer store holds nothing and occupies nothing.
    EXPECT_EQ(r.memory.safe_store_bytes, 0u);
    EXPECT_EQ(r.memory.safe_store_entries, 0u);
    EXPECT_EQ(r.counters.safe_store_ops, 0u);
    EXPECT_GT(r.counters.seal_ops, 0u);
  }
  EXPECT_FALSE(SchemeRegistry::Get(Protection::kPtrEnc).UsesSafeStore());
}

TEST(PtrEncTest, PreventsEveryMatrixAttack) {
  Config config;
  config.protection = Protection::kPtrEnc;
  for (const auto& r : attacks::RunAttackMatrix(config)) {
    EXPECT_FALSE(r.Hijacked()) << r.spec.Name() << ": " << r.message;
  }
}

TEST(PtrEncTest, ReturnAddressOverwriteFailsAuthentication) {
  attacks::AttackSpec spec;
  spec.technique = attacks::Technique::kDirectOverflow;
  spec.location = attacks::Location::kStack;
  spec.target = attacks::Target::kReturnAddress;

  Config config;
  config.protection = Protection::kPtrEnc;
  attacks::AttackResult r = attacks::RunAttack(spec, config);
  EXPECT_FALSE(r.Hijacked());
  EXPECT_EQ(r.violation, runtime::Violation::kPointerAuthFailure) << r.message;
}

}  // namespace
}  // namespace cpi
