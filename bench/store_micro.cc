// Micro-benchmark of the three safe-pointer-store organisations (§4
// "Runtime support library"): wall-clock set/get throughput measured with
// google-benchmark, plus the simulated access-cost comparison the VM's cost
// model charges (array cheapest — the paper found the sparse array with
// superpages fastest — hash table paying probe costs).
#include <benchmark/benchmark.h>

#include "src/runtime/safe_store.h"
#include "src/support/rng.h"

namespace {

using cpi::runtime::CreateSafeStore;
using cpi::runtime::SafeEntry;
using cpi::runtime::StoreKind;
using cpi::runtime::TouchList;

void RunStoreMix(benchmark::State& state, StoreKind kind) {
  auto store = CreateSafeStore(kind);
  cpi::Rng rng(42);
  // A working set shaped like a safe pointer store's: pointer-sized slots
  // spread over a few megabytes of address space.
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 4096; ++i) {
    addrs.push_back(0x400000 + rng.NextBelow(1 << 22) * 8);
  }
  // The working set is known up front: pre-size the organisation so the
  // measurement loop never pays rehash churn.
  store->Reserve(addrs.size());
  size_t i = 0;
  uint64_t touches = 0;
  for (auto _ : state) {
    const uint64_t addr = addrs[i++ & 4095];
    TouchList t;
    store->Set(addr, SafeEntry::Code(0x1000 + addr), &t);
    touches += t.count;
    TouchList t2;
    SafeEntry e = store->Get(addr, &t2);
    touches += t2.count;
    benchmark::DoNotOptimize(e);
  }
  state.counters["region_touches_per_op"] =
      benchmark::Counter(static_cast<double>(touches) / 2,
                         benchmark::Counter::kAvgIterations);
  state.counters["resident_bytes"] = static_cast<double>(store->MemoryBytes());
}

void BM_ArrayStore(benchmark::State& state) { RunStoreMix(state, StoreKind::kArray); }
void BM_TwoLevelStore(benchmark::State& state) { RunStoreMix(state, StoreKind::kTwoLevel); }
void BM_HashStore(benchmark::State& state) { RunStoreMix(state, StoreKind::kHash); }

BENCHMARK(BM_ArrayStore);
BENCHMARK(BM_TwoLevelStore);
BENCHMARK(BM_HashStore);

}  // namespace

BENCHMARK_MAIN();
