// Unit tests for the instrumentation passes: which instructions each pass
// rewrites, the structural validity of the result, and pass bookkeeping
// (protection flags, unsafe-frame marking, CFI target sets, cookie
// heuristics).
#include <gtest/gtest.h>

#include "src/core/levee.h"
#include "src/frontend/compile.h"
#include "src/instrument/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace cpi::instrument {
namespace {

std::unique_ptr<ir::Module> CompileOrDie(const std::string& source) {
  auto r = frontend::CompileC(source);
  CPI_CHECK(r.ok());
  return std::move(r.module);
}

// Instruments `m` as every build does: through core::Compiler, which runs
// the scheme's stage pipeline and verifies the module before and after.
void Instrument(ir::Module& m, core::Protection protection) {
  core::Config config;
  config.protection = protection;
  core::Compiler(config).Instrument(m);
}

int CountIntrinsics(const ir::Module& m, std::initializer_list<ir::IntrinsicId> ids) {
  int n = 0;
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const ir::Instruction* inst : bb->instructions()) {
        if (inst->op() != ir::Opcode::kIntrinsic) {
          continue;
        }
        for (ir::IntrinsicId id : ids) {
          if (inst->intrinsic() == id) {
            ++n;
          }
        }
      }
    }
  }
  return n;
}

const char* kFnPtrProgram = R"(
  int (*handler)(int);
  int twice(int x) { return x * 2; }
  int main() {
    handler = twice;
    return handler(21);
  }
)";

TEST(CpiPassTest, RewritesFunctionPointerOps) {
  auto m = CompileOrDie(kFnPtrProgram);
  Instrument(*m, core::Protection::kCpi);
  EXPECT_TRUE(m->protection().cpi);
  EXPECT_TRUE(m->protection().safe_stack);  // CPI includes the safe stack
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStore}), 1);  // handler = twice
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiLoad}), 1);   // handler(...) load
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiAssertCode}), 1);
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CpsPassTest, EmitsCpsIntrinsics) {
  auto m = CompileOrDie(kFnPtrProgram);
  Instrument(*m, core::Protection::kCps);
  EXPECT_TRUE(m->protection().cps);
  EXPECT_FALSE(m->protection().cpi);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsStore}), 1);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsLoad}), 1);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsAssertCode}), 1);
  // No bounds metadata under CPS.
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiBoundsCheck}), 0);
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CpiPassTest, VanillaDataCodeUntouched) {
  auto m = CompileOrDie(R"(
    int main() {
      int a[4];
      a[0] = 1;
      a[1] = a[0] + 2;
      return a[1];
    }
  )");
  const size_t before = m->InstructionCount();
  Instrument(*m, core::Protection::kCpi);
  // Only plain integer ops: nothing to instrument.
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStore, ir::IntrinsicId::kCpiLoad,
                                 ir::IntrinsicId::kCpiStoreUni, ir::IntrinsicId::kCpiLoadUni}),
            0);
  EXPECT_EQ(m->InstructionCount(), before);
}

TEST(CpiPassTest, UniversalPointersUseUniVariants) {
  auto m = CompileOrDie(R"(
    void* box;
    int main() {
      int* cell = (int*)malloc(8);
      box = (void*)cell;
      int* back = (int*)box;
      return *back;
    }
  )");
  Instrument(*m, core::Protection::kCpi);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStoreUni}), 1);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kCpiLoadUni}), 1);
}

TEST(SafeStackPassTest, MarksAllocasAndFunctions) {
  auto m = CompileOrDie(R"(
    int scalar_only(int x) { int v = x + 1; return v; }
    int with_buffer() {
      char buf[32];
      input_bytes(buf, 32);
      return buf[0];
    }
    int main() { return scalar_only(1) + with_buffer(); }
  )");
  ApplySafeStack(*m);
  EXPECT_TRUE(m->protection().safe_stack);
  EXPECT_FALSE(m->FindFunction("scalar_only")->needs_unsafe_frame());
  EXPECT_TRUE(m->FindFunction("with_buffer")->needs_unsafe_frame());
  // Every alloca is now explicitly classified.
  for (const auto& f : m->functions()) {
    for (const auto& bb : f->blocks()) {
      for (const ir::Instruction* inst : bb->instructions()) {
        if (inst->op() == ir::Opcode::kAlloca) {
          EXPECT_NE(inst->stack_kind(), ir::StackKind::kDefault);
        }
      }
    }
  }
}

TEST(SoftBoundPassTest, InstrumentsAllPointerTraffic) {
  auto m = CompileOrDie(R"(
    int main() {
      int* p = (int*)malloc(32);
      int* q = p;
      q[2] = 7;
      return q[2];
    }
  )");
  Instrument(*m, core::Protection::kSoftBound);
  EXPECT_TRUE(m->protection().softbound);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kSbStore}), 2);  // p and q slots
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kSbCheck}), 2);  // q[2] accesses
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CfiPassTest, WrapsIndirectCallsAndComputesTargets) {
  auto m = CompileOrDie(kFnPtrProgram);
  Instrument(*m, core::Protection::kCfi);
  EXPECT_TRUE(m->protection().cfi);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCfiCheck}), 1);
  EXPECT_TRUE(m->FindFunction("twice")->address_taken());
  EXPECT_FALSE(m->FindFunction("main")->address_taken());
}

TEST(CookiePassTest, OnlyBufferFunctionsGetCookies) {
  auto m = CompileOrDie(R"(
    int no_buffer(int x) { return x + 1; }
    int tiny_buffer() { char b[4]; b[0] = 1; return b[0]; }
    int big_buffer() { char b[64]; b[0] = 1; return b[0]; }
    int main() { return no_buffer(0) + tiny_buffer() + big_buffer(); }
  )");
  Instrument(*m, core::Protection::kStackCookies);
  EXPECT_TRUE(m->protection().stack_cookies);
  EXPECT_FALSE(m->FindFunction("no_buffer")->has_stack_cookie());
  EXPECT_FALSE(m->FindFunction("tiny_buffer")->has_stack_cookie());  // < 8 bytes
  EXPECT_TRUE(m->FindFunction("big_buffer")->has_stack_cookie());
}

TEST(PassCompositionTest, CpiAfterCpsIsRejected) {
  auto m = CompileOrDie(kFnPtrProgram);
  Instrument(*m, core::Protection::kCps);
  EXPECT_DEATH(Instrument(*m, core::Protection::kCpi), "CPI_CHECK");
}

TEST(PassTest, InstrumentedModulePrintsIntrinsics) {
  auto m = CompileOrDie(kFnPtrProgram);
  Instrument(*m, core::Protection::kCpi);
  const std::string text = ir::PrintModule(*m);
  EXPECT_NE(text.find("cpi_store"), std::string::npos);
  EXPECT_NE(text.find("cpi_assert_code"), std::string::npos);
}

}  // namespace
}  // namespace cpi::instrument
