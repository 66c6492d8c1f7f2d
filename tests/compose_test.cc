// ComposeSchemes tests: the staged-pipeline contract that makes schemes
// stackable.
//
// The load-bearing properties:
//   - a 1-element composite is indistinguishable from its base scheme (same
//     instrumented program, same counters, same memory shape) across every
//     engine, O0/O1 and the scheduler-quantum sweep — composition adds no
//     cost and no behaviour of its own;
//   - composition is order-independent: a+b and b+a schedule the same
//     pipeline (built-ins carry pairwise-distinct stage orders), so every
//     simulated observable matches;
//   - stacks whose stage write tags overlap are rejected with a diagnostic
//     instead of silently picking an order;
//   - the chained return MAC composes onto CPI and still turns a saved-return
//     overwrite into a kPointerAuthFailure abort.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/workloads/workloads.h"
#include "tests/run_identity.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using core::SchemeRegistry;
using vm::RunResult;
using test::ExpectIdentical;

RunResult RunFresh(const workloads::Workload& w, const Config& config) {
  auto module = w.build(1);
  return core::InstrumentAndRun(*module, config, w.input);
}

std::unique_ptr<ProtectionScheme> MustMake(
    const std::vector<const ProtectionScheme*>& parts) {
  std::string error;
  auto composite = core::ComposeSchemes(parts, &error);
  EXPECT_NE(composite, nullptr) << error;
  return composite;
}

// A 1-element composite must be byte-identical to its base scheme: the
// pipeline scheduler and the merged runtime facets all reduce to the base
// scheme's own configuration. Swept across engines,
// O0/O1 and scheduler quanta on a threaded workload so any divergence in any
// tier's counter stream would surface.
TEST(CompositeTest, OneElementCompositeIsByteIdenticalToItsBase) {
  const workloads::Workload& w = workloads::ConcurrentServer().front();
  for (const char* base_name : {"cpi", "ptrenc", "safestack", "softbound"}) {
    const ProtectionScheme* base = SchemeRegistry::FindByName(base_name);
    ASSERT_NE(base, nullptr) << base_name;
    const auto composite = MustMake({base});
    for (vm::EngineKind engine :
         {vm::EngineKind::kReference, vm::EngineKind::kDecoded,
          vm::EngineKind::kFused}) {
      for (int opt : {0, 1}) {
        for (uint64_t quantum : {1ull, 64ull, 4096ull}) {
          Config base_config;
          base_config.protection = base->id();
          base_config.scheme = base;
          base_config.engine = engine;
          base_config.opt_level = opt;
          base_config.thread_quantum = quantum;
          Config comp_config = base_config;
          comp_config.scheme = composite.get();
          const std::string label = std::string(base_name) + " engine=" +
                                    vm::EngineKindName(engine) + " O" +
                                    std::to_string(opt) +
                                    " quantum=" + std::to_string(quantum);
          ExpectIdentical(RunFresh(w, base_config), RunFresh(w, comp_config),
                          label);
        }
      }
    }
  }
}

// a+b and b+a must be the same scheme: the scheduler orders stages by their
// declared order values, not by listing order. Checked on every simulated
// observable, for both a single-threaded SPEC model and a threaded server.
TEST(CompositeTest, CompositionIsOrderIndependent) {
  const ProtectionScheme* ptrenc = SchemeRegistry::FindByName("ptrenc");
  const ProtectionScheme* safestack = SchemeRegistry::FindByName("safestack");
  const ProtectionScheme* cpi_s = SchemeRegistry::FindByName("cpi");
  const ProtectionScheme* chain = SchemeRegistry::FindByName("ptrenc-ret-chain");
  ASSERT_TRUE(ptrenc && safestack && cpi_s && chain);

  const struct {
    const ProtectionScheme* a;
    const ProtectionScheme* b;
  } pairs[] = {{ptrenc, safestack}, {cpi_s, chain}};
  for (const auto& pair : pairs) {
    const auto ab = MustMake({pair.a, pair.b});
    const auto ba = MustMake({pair.b, pair.a});
    for (const workloads::Workload* w :
         {&workloads::SpecCpu2006().front(), &workloads::ConcurrentServer().front()}) {
      Config config_ab;
      config_ab.protection = ab->id();
      config_ab.scheme = ab.get();
      Config config_ba = config_ab;
      config_ba.protection = ba->id();
      config_ba.scheme = ba.get();
      ExpectIdentical(RunFresh(*w, config_ab), RunFresh(*w, config_ba),
                      std::string(ab->name()) + " vs " + ba->name() + " on " + w->name);
    }
  }
}

// RIPE payloads adapt to the instrumented build, not to a Protection id: a
// cfi+cookies stack (which borrows cfi's id) and cookies+cfi give the same
// result on every attack, and the cookies scheme gives the same results
// whether a Config selects it by pointer or by id.
TEST(CompositeTest, AttackResultsFollowTheResolvedScheme) {
  const ProtectionScheme* cfi = SchemeRegistry::FindByName("cfi");
  const ProtectionScheme* cookies = SchemeRegistry::FindByName("cookies");
  ASSERT_TRUE(cfi && cookies);
  const auto cfi_cookies = MustMake({cfi, cookies});
  const auto cookies_cfi = MustMake({cookies, cfi});
  const auto expect_same = [](const ProtectionScheme* a, const Config& b,
                              const std::string& label) {
    Config config;
    config.scheme = a;
    const auto ra = attacks::RunAttackMatrix(config);
    const auto rb = attacks::RunAttackMatrix(b);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      SCOPED_TRACE(label + ": " + ra[i].spec.Name());
      EXPECT_EQ(ra[i].outcome, rb[i].outcome);
      EXPECT_EQ(ra[i].status, rb[i].status);
      EXPECT_EQ(ra[i].violation, rb[i].violation);
      EXPECT_EQ(ra[i].message, rb[i].message);
    }
  };
  Config reversed;
  reversed.scheme = cookies_cfi.get();
  expect_same(cfi_cookies.get(), reversed, "cfi+cookies vs cookies+cfi");
  Config by_id;
  by_id.protection = Protection::kStackCookies;
  expect_same(cookies, by_id, "cookies by pointer vs by id");
}

// Overlapping write tags have no order-independent meaning; ComposeSchemes
// must refuse them (and repeated components) with a diagnostic naming the
// clash.
TEST(CompositeTest, ConflictingStacksAreRejected) {
  const ProtectionScheme* cpi_s = SchemeRegistry::FindByName("cpi");
  const ProtectionScheme* cps = SchemeRegistry::FindByName("cps");
  const ProtectionScheme* safestack = SchemeRegistry::FindByName("safestack");
  const ProtectionScheme* ptrenc = SchemeRegistry::FindByName("ptrenc");
  const ProtectionScheme* chain = SchemeRegistry::FindByName("ptrenc-ret-chain");
  ASSERT_TRUE(cpi_s && cps && safestack && ptrenc && chain);

  std::string error;
  // Both rewrite pointer loads/stores and indirect calls.
  EXPECT_EQ(core::ComposeSchemes({cpi_s, cps}, &error), nullptr);
  EXPECT_NE(error.find("conflict"), std::string::npos) << error;

  // CPI already carries the safe-stack stage.
  error.clear();
  EXPECT_EQ(core::ComposeSchemes({cpi_s, safestack}, &error), nullptr);
  EXPECT_NE(error.find("stack-layout"), std::string::npos) << error;

  // PtrEnc owns the saved return-token format itself.
  error.clear();
  EXPECT_EQ(core::ComposeSchemes({ptrenc, chain}, &error), nullptr);
  EXPECT_NE(error.find("ret-mac"), std::string::npos) << error;

  // A repeated component is a conflict with itself.
  error.clear();
  EXPECT_EQ(core::ComposeSchemes({cpi_s, cpi_s}, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// The PACStack-style chain on top of CPI: the composite keeps CPI's verdicts
// and the ret-chain stage still converts a saved-return overwrite into an
// authentication abort rather than a hijack.
TEST(CompositeTest, RetChainOnCpiTurnsReturnOverwriteIntoAuthAbort) {
  const ProtectionScheme* chain = SchemeRegistry::FindByName("ptrenc-ret-chain");
  ASSERT_NE(chain, nullptr);

  attacks::AttackSpec spec;
  spec.technique = attacks::Technique::kDirectOverflow;
  spec.location = attacks::Location::kStack;
  spec.target = attacks::Target::kReturnAddress;

  // Standalone: return protection only, so the chain is the defense.
  Config config;
  config.protection = chain->id();
  config.scheme = chain;
  attacks::AttackResult r = attacks::RunAttack(spec, config);
  EXPECT_FALSE(r.Hijacked()) << r.message;
  EXPECT_EQ(r.violation, runtime::Violation::kPointerAuthFailure) << r.message;

  // Stacked on CPI: nothing hijacks anywhere in the matrix.
  const ProtectionScheme* stacked =
      SchemeRegistry::FindByName("cpi+ptrenc-ret-chain");
  ASSERT_NE(stacked, nullptr);
  Config stacked_config;
  stacked_config.protection = stacked->id();
  stacked_config.scheme = stacked;
  for (const auto& result : attacks::RunAttackMatrix(stacked_config)) {
    EXPECT_FALSE(result.Hijacked()) << result.spec.Name() << ": " << result.message;
  }
}

}  // namespace
}  // namespace cpi
