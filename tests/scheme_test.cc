// Tests for the ProtectionScheme registry and the PtrEnc (in-place pointer
// sealing) scheme it was built to enable: registry completeness and lookup,
// out-of-tree schemes driven through Config::scheme, PtrEnc's functional
// transparency, its attack-prevention behaviour, and its zero-safe-region
// memory shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
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

// The extension point: an out-of-tree scheme the caller owns, never added
// to the fixed registry, drives compilation and execution through
// Config::scheme.
TEST(SchemeRegistryTest, OutOfTreeSchemeRunsThroughTheFacade) {
  ProtectionScheme::Spec spec;
  spec.name = "noop-extension";
  spec.description = "out-of-tree scheme test";
  const ProtectionScheme scheme(std::move(spec));
  EXPECT_EQ(SchemeRegistry::FindByName("noop-extension"), nullptr);

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

// PtrEnc is CPS's site selection with seal intrinsics: on every SPEC model
// the two rewrite the same instruction positions, one intrinsic kind for
// another, and neither emits CPI's bounds checks.
std::vector<std::string> SiteShape(const workloads::Workload& w, Protection p) {
  Config config;
  config.protection = p;
  auto module = w.build(1);
  core::Compiler(config).Instrument(*module);
  std::vector<std::string> shape;
  for (const auto& f : module->functions()) {
    for (const auto& bb : f->blocks()) {
      for (const ir::Instruction* inst : bb->instructions()) {
        if (inst->op() != ir::Opcode::kIntrinsic) {
          shape.push_back(ir::OpcodeName(inst->op()));
          continue;
        }
        switch (inst->intrinsic()) {
          case ir::IntrinsicId::kCpsLoad:
          case ir::IntrinsicId::kCpsLoadUni:
          case ir::IntrinsicId::kSealLoad:
            shape.push_back("protected-load");
            break;
          case ir::IntrinsicId::kCpsStore:
          case ir::IntrinsicId::kCpsStoreUni:
          case ir::IntrinsicId::kSealStore:
            shape.push_back("protected-store");
            break;
          case ir::IntrinsicId::kCpsAssertCode:
          case ir::IntrinsicId::kSealAssertCode:
            shape.push_back("code-assert");
            break;
          default:
            shape.push_back(ir::IntrinsicName(inst->intrinsic()));
            break;
        }
      }
    }
  }
  return shape;
}

TEST(PtrEncTest, RewritesExactlyCpsSitesWithSealIntrinsics) {
  size_t sites = 0;
  for (const auto& w : workloads::SpecCpu2006()) {
    const std::vector<std::string> cps = SiteShape(w, Protection::kCps);
    const std::vector<std::string> ptrenc = SiteShape(w, Protection::kPtrEnc);
    EXPECT_EQ(cps, ptrenc) << w.name;
    for (const char* kind : {"protected-load", "protected-store", "code-assert"}) {
      sites += static_cast<size_t>(std::count(cps.begin(), cps.end(), kind));
    }
    for (const std::vector<std::string>* shape : {&cps, &ptrenc}) {
      EXPECT_EQ(std::count(shape->begin(), shape->end(),
                           ir::IntrinsicName(ir::IntrinsicId::kCpiBoundsCheck)),
                0)
          << w.name;
    }
  }
  EXPECT_GT(sites, 0u);
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
