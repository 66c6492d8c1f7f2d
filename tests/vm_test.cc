// VM tests: memory semantics, cache model, execution semantics (arithmetic
// widths, control flow, calls, heap), trap taxonomy, and the isolation
// invariant (no safe-region address ever stored in regular memory).
#include <gtest/gtest.h>

#include "src/core/levee.h"
#include "src/frontend/compile.h"
#include "src/ir/builder.h"
#include "src/support/oom.h"
#include "src/vm/cache.h"
#include "src/vm/layout.h"
#include "src/vm/machine.h"
#include "src/vm/memory.h"

namespace cpi::vm {
namespace {

TEST(ByteMemoryTest, ReadBackWrites) {
  ByteMemory mem;
  mem.MapRange(0x1000, 64, true);
  ASSERT_EQ(mem.WriteU64(0x1008, 0x1122334455667788ull), MemFault::kNone);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(0x1008, &v), MemFault::kNone);
  EXPECT_EQ(v, 0x1122334455667788ull);
  uint8_t byte = 0;
  ASSERT_EQ(mem.ReadByte(0x1008, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 0x88);  // little-endian
}

TEST(ByteMemoryTest, UnmappedAccessFaults) {
  ByteMemory mem;
  uint64_t v;
  EXPECT_EQ(mem.ReadU64(0x5000, &v), MemFault::kUnmapped);
  EXPECT_EQ(mem.WriteU64(0x5000, 1), MemFault::kUnmapped);
}

TEST(ByteMemoryTest, ReadOnlyPagesRejectWrites) {
  ByteMemory mem;
  mem.MapRange(0x2000, 64, /*writable=*/false);
  EXPECT_EQ(mem.WriteU64(0x2000, 1), MemFault::kReadOnly);
  uint64_t v = 1;
  EXPECT_EQ(mem.ReadU64(0x2000, &v), MemFault::kNone);
  EXPECT_EQ(v, 0u);  // zero-filled
}

TEST(ByteMemoryTest, CrossPageAccess) {
  ByteMemory mem;
  mem.MapRange(ByteMemory::kPageBytes - 4, 8, true);
  ASSERT_EQ(mem.WriteU64(ByteMemory::kPageBytes - 4, 0xaabbccdd11223344ull), MemFault::kNone);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(ByteMemory::kPageBytes - 4, &v), MemFault::kNone);
  EXPECT_EQ(v, 0xaabbccdd11223344ull);
}

TEST(ByteMemoryTest, PartialWriteNeverApplied) {
  ByteMemory mem;
  mem.MapRange(ByteMemory::kPageBytes - 4, 4, true);  // second page unmapped
  EXPECT_EQ(mem.WriteU64(ByteMemory::kPageBytes - 4, ~0ull), MemFault::kUnmapped);
  uint64_t v = 0;
  uint32_t first = 0;
  ASSERT_EQ(mem.Read(ByteMemory::kPageBytes - 4, &first, 4), MemFault::kNone);
  EXPECT_EQ(first, 0u);  // untouched
  (void)v;
}

// Regression: a zero-size map at an unaligned address used to round the end
// past the start and map a whole page, inflating mapped_bytes() — and with
// it the §5.2 memory-overhead table.
TEST(ByteMemoryTest, ZeroSizeMapMapsNothing) {
  ByteMemory mem;
  mem.MapRange(0x1234, 0, /*writable=*/true);  // unaligned, empty
  EXPECT_EQ(mem.mapped_bytes(), 0u);
  EXPECT_FALSE(mem.IsMapped(0x1234));
  mem.MapRange(0x1000, 0, /*writable=*/true);  // aligned, empty
  EXPECT_EQ(mem.mapped_bytes(), 0u);
}

// Regression: remapping used to or-merge writability, so a page once mapped
// writable could never be demoted to read-only — constant/code pages stayed
// silently writable. Remap now honours the last mapping, like mprotect.
TEST(ByteMemoryTest, RemapPermissionsHonourLastMapping) {
  ByteMemory mem;
  mem.MapRange(0x3000, 64, /*writable=*/true);
  ASSERT_EQ(mem.WriteU64(0x3000, 42), MemFault::kNone);
  mem.MapRange(0x3000, 64, /*writable=*/false);
  EXPECT_EQ(mem.WriteU64(0x3000, 7), MemFault::kReadOnly);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(0x3000, &v), MemFault::kNone);
  EXPECT_EQ(v, 42u);  // contents survive the permission change
  mem.MapRange(0x3000, 64, /*writable=*/true);  // and back
  EXPECT_EQ(mem.WriteU64(0x3000, 7), MemFault::kNone);
}

// A stack-sized range that starts mid-chunk spans three directory chunks;
// mapped_bytes() counts its pages once, however often they are remapped.
TEST(ByteMemoryTest, StraddlingMapCountsEachPageOnce) {
  constexpr uint64_t kChunkBytes = ByteMemory::kChunkPages * ByteMemory::kPageBytes;
  constexpr uint64_t kBytes = 4ULL << 20;
  const uint64_t start = 5 * kChunkBytes - 3 * ByteMemory::kPageBytes;
  ByteMemory mem;
  mem.MapRange(start, kBytes, /*writable=*/true);
  EXPECT_EQ(mem.mapped_bytes(), 1024 * ByteMemory::kPageBytes);
  EXPECT_FALSE(mem.IsMapped(start - 1));
  EXPECT_TRUE(mem.IsMapped(start));
  EXPECT_TRUE(mem.IsMapped(5 * kChunkBytes));  // the first chunk boundary
  EXPECT_TRUE(mem.IsMapped(start + kBytes - 1));
  EXPECT_FALSE(mem.IsMapped(start + kBytes));
  ASSERT_EQ(mem.WriteU64(start + kBytes - 8, 9), MemFault::kNone);

  mem.MapRange(start, kBytes, /*writable=*/false);  // remap: same pages
  mem.MapRange(start - ByteMemory::kPageBytes, 2 * ByteMemory::kPageBytes, true);  // one new
  EXPECT_EQ(mem.mapped_bytes(), 1025 * ByteMemory::kPageBytes);
  EXPECT_TRUE(mem.IsWritable(start));
  EXPECT_FALSE(mem.IsWritable(start + ByteMemory::kPageBytes));
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(start + kBytes - 8, &v), MemFault::kNone);
  EXPECT_EQ(v, 9u);
}

// The loader places constant data on pages no MapRange covered; such a
// page becomes mapped read-only, and a mapped page keeps its permission.
TEST(ByteMemoryTest, LoaderWriteMapsUnmappedPagesReadOnly) {
  ByteMemory mem;
  const uint64_t value = 0x55;
  mem.LoaderWrite(0x7000, &value, sizeof(value));
  EXPECT_EQ(mem.mapped_bytes(), ByteMemory::kPageBytes);
  EXPECT_TRUE(mem.IsMapped(0x7000));
  EXPECT_FALSE(mem.IsWritable(0x7000));
  EXPECT_EQ(mem.WriteU64(0x7000, 1), MemFault::kReadOnly);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(0x7000, &v), MemFault::kNone);
  EXPECT_EQ(v, value);

  mem.MapRange(0x9000, 8, /*writable=*/true);
  mem.LoaderWrite(0x9000, &value, sizeof(value));
  EXPECT_EQ(mem.mapped_bytes(), 2 * ByteMemory::kPageBytes);
  EXPECT_EQ(mem.WriteU64(0x9000, 1), MemFault::kNone);
}

// kOomPageAlloc's countdown counts page materialisations. Mapping creates
// directory chunks, which must not consume it.
TEST(ByteMemoryTest, AllocFailureCountsPagesNotChunks) {
  constexpr uint64_t kChunkBytes = ByteMemory::kChunkPages * ByteMemory::kPageBytes;
  ByteMemory mem;
  mem.ArmAllocFailure(2);
  mem.MapRange(0, 3 * kChunkBytes, /*writable=*/true);  // three new chunks
  EXPECT_EQ(mem.WriteByte(0, 1), MemFault::kNone);
  EXPECT_EQ(mem.WriteByte(kChunkBytes, 1), MemFault::kNone);
  EXPECT_EQ(mem.WriteByte(kChunkBytes + 1, 1), MemFault::kNone);  // page already there
  EXPECT_THROW(mem.WriteByte(2 * kChunkBytes, 1), SimulatedOom);
}

TEST(CacheTest, RepeatAccessHits) {
  CacheModel cache;
  const uint64_t miss = cache.Access(0x1000);
  const uint64_t hit = cache.Access(0x1000);
  EXPECT_GT(miss, hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, SameLineSharesEntry) {
  CacheModel cache;
  cache.Access(0x1000);
  cache.Access(0x1038);  // same 64-byte line
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheTest, CapacityEviction) {
  CacheModel::Config config;
  config.size_bytes = 1024;
  config.line_bytes = 64;
  config.ways = 2;
  CacheModel cache(config);
  // Touch 3 lines mapping to the same set of a 2-way cache: eviction.
  const uint64_t set_stride = 1024 / 2;  // 8 sets * 64B
  cache.Access(0);
  cache.Access(set_stride);
  cache.Access(2 * set_stride);
  cache.Access(0);  // evicted by LRU
  EXPECT_EQ(cache.misses(), 4u);
}

// --- execution semantics via the C frontend ------------------------------------

std::vector<uint64_t> RunC(const std::string& source, RunStatus expect = RunStatus::kOk,
                           core::Input input = {}) {
  auto cr = frontend::CompileC(source);
  EXPECT_TRUE(cr.ok()) << cr.error;
  core::Config config;
  auto r = core::InstrumentAndRun(*cr.module, config, input);
  EXPECT_EQ(r.status, expect) << r.message;
  return r.output;
}

TEST(ExecTest, SignedArithmeticAndComparisons) {
  auto out = RunC(R"(
    int main() {
      int a = 0 - 7;
      output(a < 3);
      output(a / 2);       // -3, C truncation toward zero
      output(a % 2);       // -1
      output((a < 0) + (a > 0 - 100));
      return 0;
    }
  )");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(static_cast<int64_t>(out[1]), -3);
  EXPECT_EQ(static_cast<int64_t>(out[2]), -1);
  EXPECT_EQ(out[3], 2u);
}

TEST(ExecTest, CharNarrowingOnStore) {
  auto out = RunC(R"(
    int main() {
      char c = 300;   // truncates to 44
      output(c);
      char buf[4];
      buf[0] = 255;
      output(buf[0]);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{44, 255}));
}

TEST(ExecTest, FloatArithmetic) {
  auto out = RunC(R"(
    int main() {
      float x = (float)7;
      float y = x / (float)2;
      output((int)(y * (float)1000));
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{3500}));
}

TEST(ExecTest, DivisionByZeroCrashes) {
  RunC("int main() { int z = input(); return 5 / z; }", RunStatus::kCrash);
}

TEST(ExecTest, WildPointerCrashes) {
  RunC("int main() { int* p = (int*)12345678901; return *p; }", RunStatus::kCrash);
}

TEST(ExecTest, WriteToStringConstantCrashes) {
  // String literals live in read-only memory, like the paper's jump tables.
  RunC(R"(
    int main() {
      char* s = "const";
      s[0] = 'X';
      return 0;
    }
  )",
       RunStatus::kCrash);
}

TEST(ExecTest, NullCallCrashes) {
  RunC(R"(
    void (*fp)();
    int main() { fp(); return 0; }
  )",
       RunStatus::kCrash);
}

TEST(ExecTest, InfiniteLoopRunsOutOfFuel) {
  auto cr = frontend::CompileC("int main() { while (1) { } return 0; }");
  ASSERT_TRUE(cr.ok());
  core::Config config;
  config.max_steps = 10000;
  auto r = core::InstrumentAndRun(*cr.module, config);
  EXPECT_EQ(r.status, RunStatus::kOutOfFuel);
}

TEST(ExecTest, HeapReuseAfterFree) {
  auto out = RunC(R"(
    int main() {
      int* a = (int*)malloc(16);
      free(a);
      int* b = (int*)malloc(16);
      output(a == b);   // LIFO reuse: same address, different object
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{1}));
}

TEST(ExecTest, DoubleFreeCrashes) {
  RunC("int main() { void* p = malloc(8); free(p); free(p); return 0; }",
       RunStatus::kCrash);
}

TEST(ExecTest, RecursionDepthLimited) {
  RunC("int f(int n) { return f(n + 1); } int main() { return f(0); }",
       RunStatus::kCrash);
}

// --- temporal extension ----------------------------------------------------------

void BuildUafModule(ir::Module& m) {
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  ir::IRBuilder b(&m);
  ir::Function* noop = m.CreateFunction("noop", fn_ty);
  b.SetInsertPoint(noop->CreateBlock("entry"));
  b.Ret();
  ir::Function* main = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  ir::Value* cell = b.Malloc(b.I64(8), t.PointerTo(t.PointerTo(fn_ty)));
  b.Store(b.FuncAddr(noop), cell);
  b.Free(cell);
  // Stale dereference of the freed sensitive cell.
  ir::Value* fp = b.Load(cell);
  b.IndirectCall(fp, {});
  b.Ret(b.I64(0));
}

void CheckUafBehaviour(bool temporal) {
  ir::Module m("uaf");
  BuildUafModule(m);
  core::Config config;
  config.protection = core::Protection::kCpi;
  config.temporal = temporal;
  auto r = core::InstrumentAndRun(m, config);
  if (temporal) {
    EXPECT_EQ(r.status, RunStatus::kViolation);
    EXPECT_EQ(r.violation, runtime::Violation::kTemporalUseAfterFree) << r.message;
  } else {
    // The paper's prototype is spatial-only: the stale (but in-bounds) load
    // is not flagged.
    EXPECT_EQ(r.status, RunStatus::kOk) << r.message;
  }
}

TEST(TemporalTest, UseAfterFreeOfSensitiveObjectDetected) {
  // A function-pointer cell is freed and used through the stale pointer:
  // with the temporal extension CPI aborts; spatial-only CPI does not.
  CheckUafBehaviour(true);
  CheckUafBehaviour(false);
}

// --- the leak-proof isolation invariant (§3.2.3) ---------------------------------

TEST(IsolationTest, NoSafeRegionAddressIsEverStoredInRegularMemory) {
  // Run an instrumented program and sweep its observable regular-memory
  // behaviour: every pointer-sized value the program outputs or stores could
  // be inspected; here we assert the invariant structurally — safe-region
  // objects are only addressable through safe allocas, whose addresses the
  // escape analysis proves never leave the frame.
  auto cr = frontend::CompileC(R"(
    int helper(int x) { int local = x * 2; return local; }
    int main() {
      int acc = 0;
      for (int i = 0; i < 50; i = i + 1) { acc = acc + helper(i); }
      output(acc);
      return 0;
    }
  )");
  ASSERT_TRUE(cr.ok()) << cr.error;
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(*cr.module, config);
  ASSERT_EQ(r.status, RunStatus::kOk) << r.message;
  for (uint64_t word : r.output) {
    EXPECT_FALSE(IsInSafeRegion(word));
  }
}

TEST(LayoutTest, AddressClassifiers) {
  EXPECT_TRUE(IsCodeAddress(kCodeBase));
  EXPECT_FALSE(IsCodeAddress(kCodeBase - 1));
  EXPECT_TRUE(IsInSafeRegion(kSafeRegionBase));
  EXPECT_FALSE(IsInSafeRegion(kHeapBase));
  EXPECT_TRUE(IsRetToken(kRetTokenBase + 16));
  EXPECT_FALSE(IsRetToken(kCodeBase));
}

TEST(LayoutTest, ProgramLayoutIsDeterministic) {
  auto cr = frontend::CompileC(R"(
    int g1;
    const char msg[4];
    int f() { return 1; }
    int main() { return f(); }
  )");
  ASSERT_TRUE(cr.ok()) << cr.error;
  ProgramLayout a = ComputeProgramLayout(*cr.module);
  ProgramLayout b = ComputeProgramLayout(*cr.module);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.globals, b.globals);
  // Functions get distinct, stride-separated code addresses.
  const uint64_t f_addr = a.CodeAddress(cr.module->FindFunction("f"));
  const uint64_t main_addr = a.CodeAddress(cr.module->FindFunction("main"));
  EXPECT_NE(f_addr, main_addr);
  EXPECT_EQ((f_addr - kCodeBase) % kCodeStride, 0u);
}

TEST(CountersTest, InstrumentationAddsSafeStoreTraffic) {
  const char* source = R"(
    int (*fp)(int);
    int idf(int x) { return x; }
    int main() {
      fp = idf;
      int acc = 0;
      for (int i = 0; i < 100; i = i + 1) { acc = acc + fp(i); }
      output(acc);
      return 0;
    }
  )";
  auto vanilla_module = frontend::CompileC(source).module;
  core::Config vanilla;
  auto base = core::InstrumentAndRun(*vanilla_module, vanilla);
  EXPECT_EQ(base.counters.safe_store_ops, 0u);

  auto cpi_module = frontend::CompileC(source).module;
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(*cpi_module, config);
  EXPECT_GT(r.counters.safe_store_ops, 100u);  // one per dispatch at least
  EXPECT_GT(r.counters.cycles, base.counters.cycles);
  EXPECT_EQ(r.output, base.output);
}

}  // namespace
}  // namespace cpi::vm
