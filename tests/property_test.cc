// Property tests built on the shared random-program generator
// (src/fuzz/generator.h): for any benign program the generator can produce,
// every protection configuration must preserve observable behaviour exactly
// (same outputs, same exit code). This is the compiler-level soundness
// property behind the paper's "works on unmodified programs / FreeBSD + 100
// packages keep working" claim. The full configuration matrix — engines,
// opt levels, quanta, fault injection, hazardous programs — is exercised by
// the differential harness (tests/fuzz_harness_test.cc and bench/fuzz).
#include <gtest/gtest.h>

#include "src/analysis/classify.h"
#include "src/core/levee.h"
#include "src/fuzz/generator.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

// Benign plans only: behaviour must be scheme-independent, so the hazard ops
// (use-after-free, double free) stay out of this suite.
fuzz::Plan BenignPlan(uint64_t seed) {
  fuzz::GenOptions options;
  options.hazards = false;
  return fuzz::MakePlan(seed, options);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllProtectionsPreserveBehaviour) {
  const fuzz::Plan plan = BenignPlan(GetParam());
  auto baseline_module = fuzz::Materialize(plan);
  ASSERT_TRUE(ir::IsValid(*baseline_module));
  core::Config vanilla;
  auto base = core::InstrumentAndRun(*baseline_module, vanilla);
  ASSERT_EQ(base.status, vm::RunStatus::kOk) << base.message;

  const core::Protection kProtections[] = {
      core::Protection::kSafeStack, core::Protection::kCps, core::Protection::kCpi,
      core::Protection::kSoftBound, core::Protection::kCfi, core::Protection::kStackCookies,
      core::Protection::kPtrEnc};
  for (core::Protection p : kProtections) {
    for (runtime::StoreKind store :
         {runtime::StoreKind::kArray, runtime::StoreKind::kHash}) {
      core::Config config;
      config.protection = p;
      config.store = store;
      auto module = fuzz::Materialize(plan);
      auto r = core::InstrumentAndRun(*module, config);
      ASSERT_EQ(r.status, vm::RunStatus::kOk)
          << core::ProtectionName(p) << "/" << runtime::StoreKindName(store) << ": "
          << r.message;
      ASSERT_EQ(r.output, base.output)
          << "behaviour diverged under " << core::ProtectionName(p);
      ASSERT_EQ(r.exit_code, base.exit_code);
    }
  }
}

TEST_P(DifferentialTest, DebugAndTemporalModesPreserveBenignBehaviour) {
  const fuzz::Plan plan = BenignPlan(GetParam());
  auto baseline_module = fuzz::Materialize(plan);
  core::Config vanilla;
  auto base = core::InstrumentAndRun(*baseline_module, vanilla);
  ASSERT_EQ(base.status, vm::RunStatus::kOk);

  for (bool debug : {false, true}) {
    for (bool temporal : {false, true}) {
      core::Config config;
      config.protection = core::Protection::kCpi;
      config.debug_mode = debug;
      config.temporal = temporal;
      auto module = fuzz::Materialize(plan);
      auto r = core::InstrumentAndRun(*module, config);
      ASSERT_EQ(r.status, vm::RunStatus::kOk)
          << "debug=" << debug << " temporal=" << temporal << ": " << r.message;
      ASSERT_EQ(r.output, base.output);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 26));  // 25 random programs

// Workload-level properties.

TEST(WorkloadPropertyTest, DeterministicAcrossRuns) {
  for (const auto& w : workloads::SpecCpu2006()) {
    core::Config config;
    auto m1 = w.build(1);
    auto m2 = w.build(1);
    auto r1 = core::InstrumentAndRun(*m1, config, w.input);
    auto r2 = core::InstrumentAndRun(*m2, config, w.input);
    ASSERT_EQ(r1.status, vm::RunStatus::kOk) << w.name;
    EXPECT_EQ(r1.output, r2.output) << w.name;
    EXPECT_EQ(r1.counters.cycles, r2.counters.cycles) << w.name;
  }
}

TEST(WorkloadPropertyTest, InstrumentationFractionOrdering) {
  // MOCPS <= MOCPI must hold for every workload (CPS protects a strict
  // subset of what CPI protects).
  for (const auto& w : workloads::SpecCpu2006()) {
    auto module = w.build(1);
    analysis::ClassifyOptions options;
    const auto stats = analysis::ComputeModuleStats(*module, options);
    EXPECT_LE(stats.MoCpsPercent(), stats.MoCpiPercent() + 1e-9) << w.name;
    EXPECT_GT(stats.total_mem_ops, 0u) << w.name;
  }
}

TEST(WorkloadPropertyTest, OverheadOrderingHolds) {
  // SafeStack <= CPS <= CPI in cycles, for a representative subset.
  for (const char* name : {"471.omnetpp", "403.gcc", "429.mcf"}) {
    const auto* w = workloads::FindWorkload(name);
    ASSERT_NE(w, nullptr);
    std::map<core::Protection, uint64_t> cycles;
    for (core::Protection p :
         {core::Protection::kNone, core::Protection::kSafeStack, core::Protection::kCps,
          core::Protection::kCpi}) {
      core::Config config;
      config.protection = p;
      auto module = w->build(1);
      auto r = core::InstrumentAndRun(*module, config, w->input);
      ASSERT_EQ(r.status, vm::RunStatus::kOk) << name;
      cycles[p] = r.counters.cycles;
    }
    EXPECT_LE(cycles[core::Protection::kCps], cycles[core::Protection::kCpi] + 1) << name;
    EXPECT_LE(cycles[core::Protection::kNone],
              cycles[core::Protection::kCpi] + 1) << name;
  }
}

}  // namespace
}  // namespace cpi
