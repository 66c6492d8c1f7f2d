// VM tests: memory semantics, cache model, execution semantics (arithmetic
// widths, control flow, calls, heap), trap taxonomy, the isolation
// invariant (no safe-region address ever stored in regular memory), and
// golden library-call runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/levee.h"
#include "src/frontend/compile.h"
#include "src/ir/builder.h"
#include "src/support/oom.h"
#include "src/support/rng.h"
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

// A stack-sized range that starts mid-way through a 2 MiB span covers parts
// of three; mapped_bytes() counts its pages once, however often they are
// remapped.
TEST(ByteMemoryTest, StraddlingMapCountsEachPageOnce) {
  constexpr uint64_t kSpanBytes = 2ULL << 20;
  constexpr uint64_t kBytes = 4ULL << 20;
  const uint64_t start = 5 * kSpanBytes - 3 * ByteMemory::kPageBytes;
  ByteMemory mem;
  mem.MapRange(start, kBytes, /*writable=*/true);
  EXPECT_EQ(mem.mapped_bytes(), 1024 * ByteMemory::kPageBytes);
  EXPECT_FALSE(mem.IsMapped(start - 1));
  EXPECT_TRUE(mem.IsMapped(start));
  EXPECT_TRUE(mem.IsMapped(5 * kSpanBytes));  // the first 2 MiB boundary
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

// kOomPageAlloc's countdown counts page materialisations. Mapping and the
// page slots an access creates are bookkeeping, which must not consume it.
TEST(ByteMemoryTest, AllocFailureCountsPagesNotChunks) {
  constexpr uint64_t kSpanBytes = 2ULL << 20;
  ByteMemory mem;
  mem.ArmAllocFailure(2);
  mem.MapRange(0, 3 * kSpanBytes, /*writable=*/true);  // three 2 MiB spans
  EXPECT_EQ(mem.WriteByte(0, 1), MemFault::kNone);
  EXPECT_EQ(mem.WriteByte(kSpanBytes, 1), MemFault::kNone);
  EXPECT_EQ(mem.WriteByte(kSpanBytes + 1, 1), MemFault::kNone);  // page already there
  EXPECT_THROW(mem.WriteByte(2 * kSpanBytes, 1), SimulatedOom);
}

// An armed allocation failure that fires mid-run throws before the page's
// slot is filled: the page still reads as the shared zero page, the pages
// written before it keep their bytes, and the memory takes further writes
// (the failure is one-shot) — including to the page that failed.
TEST(ByteMemoryTest, AllocFailureLeavesSlotUnmaterialised) {
  constexpr uint64_t kPage = ByteMemory::kPageBytes;
  ByteMemory mem;
  mem.MapRange(0, 8 * kPage, /*writable=*/true);
  mem.ArmAllocFailure(2);
  ASSERT_EQ(mem.WriteU64(0, 11), MemFault::kNone);
  ASSERT_EQ(mem.WriteU64(kPage, 22), MemFault::kNone);
  EXPECT_THROW(mem.WriteU64(2 * kPage + 8, 33), SimulatedOom);
  // Unmaterialised: reads see zeros through the same shared zero page as a
  // page never written.
  EXPECT_EQ(mem.ReadView(2 * kPage), mem.ReadView(5 * kPage));
  uint64_t v = 1;
  ASSERT_EQ(mem.ReadU64(2 * kPage + 8, &v), MemFault::kNone);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.mapped_bytes(), 8 * kPage);

  ASSERT_EQ(mem.WriteU64(2 * kPage + 8, 33), MemFault::kNone);
  EXPECT_NE(mem.ReadView(2 * kPage), mem.ReadView(5 * kPage));
  ASSERT_EQ(mem.WriteU64(3 * kPage, 44), MemFault::kNone);
  for (auto [addr, want] : {std::pair<uint64_t, uint64_t>{0, 11}, {kPage, 22},
                            {2 * kPage + 8, 33}, {3 * kPage, 44}}) {
    ASSERT_EQ(mem.ReadU64(addr, &v), MemFault::kNone);
    EXPECT_EQ(v, want) << addr;
  }
}

// Regression: a page-straddling access whose range wraps past 2^64 checked
// no page and then wrote through a null slot, crashing the host. It faults
// as unmapped and writes nothing, even with the top page and page 0 mapped.
TEST(ByteMemoryTest, WrappingAccessFaultsUnmapped) {
  constexpr uint64_t kPage = ByteMemory::kPageBytes;
  constexpr uint64_t kNearTop = ~0ULL - 3;
  uint64_t v = 0x1122334455667788ull;
  ByteMemory empty;
  EXPECT_EQ(empty.Write(kNearTop, &v, 8), MemFault::kUnmapped);
  EXPECT_EQ(empty.Read(kNearTop, &v, 8), MemFault::kUnmapped);

  ByteMemory mem;
  mem.MapRange(0 - kPage, kPage, /*writable=*/true);
  mem.MapRange(0, kPage, /*writable=*/true);
  EXPECT_EQ(mem.mapped_bytes(), 2 * kPage);
  EXPECT_EQ(mem.Write(kNearTop, &v, 8), MemFault::kUnmapped);
  EXPECT_EQ(mem.Read(kNearTop, &v, 8), MemFault::kUnmapped);
  uint32_t top = 1;
  uint32_t bottom = 1;
  ASSERT_EQ(mem.Read(kNearTop, &top, 4), MemFault::kNone);
  ASSERT_EQ(mem.Read(0, &bottom, 4), MemFault::kNone);
  EXPECT_EQ(top, 0u);
  EXPECT_EQ(bottom, 0u);
  ASSERT_EQ(mem.Write(kNearTop, &v, 4), MemFault::kNone);  // the last 4 bytes
  ASSERT_EQ(mem.Read(kNearTop, &top, 4), MemFault::kNone);
  EXPECT_EQ(top, 0x55667788u);
}

// A naive model of ByteMemory: one std::map entry per mapped page, holding
// its writability and (once written) its bytes.
class NaiveMemory {
 public:
  static constexpr uint64_t kPage = ByteMemory::kPageBytes;

  void MapRange(uint64_t start, uint64_t size, bool writable) {
    if (size == 0) {
      return;
    }
    for (uint64_t p = start / kPage; p < (start + size + kPage - 1) / kPage; ++p) {
      pages_[p].writable = writable;
    }
  }

  void LoaderWrite(uint64_t addr, const uint8_t* data, uint64_t size) {
    for (uint64_t i = 0; i < size; ++i) {
      auto [it, inserted] = pages_.try_emplace((addr + i) / kPage);
      if (inserted) {
        it->second.writable = false;
      }
      ByteAt(it->second, addr + i) = data[i];
    }
  }

  // The fault of the first page of [addr, addr+size) that is unmapped, or
  // (for a write) read-only; kNone when every page passes.
  MemFault Check(uint64_t addr, uint64_t size, bool write) const {
    for (uint64_t p = addr / kPage; p <= (addr + size - 1) / kPage; ++p) {
      auto it = pages_.find(p);
      if (it == pages_.end()) {
        return MemFault::kUnmapped;
      }
      if (write && !it->second.writable) {
        return MemFault::kReadOnly;
      }
    }
    return MemFault::kNone;
  }

  MemFault Write(uint64_t addr, const uint8_t* data, uint64_t size) {
    const MemFault fault = Check(addr, size, /*write=*/true);
    if (fault == MemFault::kNone) {
      for (uint64_t i = 0; i < size; ++i) {
        ByteAt(pages_.at((addr + i) / kPage), addr + i) = data[i];
      }
    }
    return fault;
  }

  MemFault Read(uint64_t addr, uint8_t* out, uint64_t size) const {
    const MemFault fault = Check(addr, size, /*write=*/false);
    if (fault == MemFault::kNone) {
      for (uint64_t i = 0; i < size; ++i) {
        const Page& page = pages_.at((addr + i) / kPage);
        out[i] = page.bytes.empty() ? 0 : page.bytes[(addr + i) % kPage];
      }
    }
    return fault;
  }

  bool IsMapped(uint64_t addr) const { return pages_.count(addr / kPage) != 0; }
  bool IsWritable(uint64_t addr) const {
    auto it = pages_.find(addr / kPage);
    return it != pages_.end() && it->second.writable;
  }
  uint64_t mapped_bytes() const { return pages_.size() * kPage; }

  // The start of a random mapped page; the model must not be empty.
  uint64_t SomeMappedPage(Rng& rng) const {
    auto it = pages_.begin();
    std::advance(it, rng.NextBelow(pages_.size()));
    return it->first * kPage;
  }
  bool empty() const { return pages_.empty(); }

 private:
  struct Page {
    bool writable = false;
    std::vector<uint8_t> bytes;  // empty until first written
  };
  static uint8_t& ByteAt(Page& page, uint64_t addr) {
    if (page.bytes.empty()) {
      page.bytes.assign(kPage, 0);
    }
    return page.bytes[addr % kPage];
  }

  std::map<uint64_t, Page> pages_;
};

// Fixed-seed streams of maps (empty ones, sub-range remaps that flip
// writability, maps straddling 2 MiB spans), loader writes and 1/2/4/8-byte
// accesses that cross pages, checked against NaiveMemory: every fault kind,
// every byte read, every view and mapped_bytes() after every operation.
TEST(ByteMemoryTest, MatchesNaivePageModel) {
  constexpr uint64_t kPage = ByteMemory::kPageBytes;
  constexpr uint64_t kSpan = 2ULL << 20;
  // Two windows of eight 2 MiB spans, one low and one high in the address
  // space; no access comes near wrapping past 2^64.
  const uint64_t kWindows[] = {kSpan, 0x6eff'ff00'0000ULL};
  constexpr uint64_t kWindowBytes = 8 * kSpan;
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    Rng rng(seed * 7919);
    ByteMemory mem;
    NaiveMemory naive;
    // An address anywhere in a window, near a span or page boundary, or
    // near a page already mapped, so accesses both hit and miss mappings.
    auto pick = [&]() -> uint64_t {
      const uint64_t window = kWindows[rng.NextBelow(2)];
      switch (rng.NextBelow(4)) {
        case 0:
          return window + rng.NextBelow(kWindowBytes);
        case 1:
          return window + (1 + rng.NextBelow(kWindowBytes / kSpan - 1)) * kSpan - 16 +
                 rng.NextBelow(32);
        case 2:
          return window + (1 + rng.NextBelow(kWindowBytes / kPage - 1)) * kPage - 8 +
                 rng.NextBelow(16);
        default:
          return naive.empty() ? window : naive.SomeMappedPage(rng) - 8 + rng.NextBelow(kPage + 16);
      }
    };
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.NextBelow(16);
      const uint64_t addr = pick();
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step << " op " << op
                                      << " addr 0x" << std::hex << addr);
      if (op == 0) {
        // Map: empty, a few bytes, a few pages, or more than a span.
        static constexpr uint64_t kSizes[] = {0,         1, 8, kPage, 2 * kPage, 3 * kPage + 5,
                                              40 * kPage, kSpan + kPage};
        const uint64_t size = kSizes[rng.NextBelow(8)] + rng.NextBelow(2) * rng.NextBelow(kPage);
        const bool writable = rng.NextBelow(3) != 0;
        mem.MapRange(addr, size, writable);
        naive.MapRange(addr, size, writable);
      } else if (op == 1) {
        uint8_t data[24];
        const uint64_t size = rng.NextBelow(sizeof(data) + 1);
        for (uint8_t& b : data) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
        mem.LoaderWrite(addr, data, size);
        naive.LoaderWrite(addr, data, size);
      } else if (op < 9) {
        const uint64_t size = uint64_t{1} << rng.NextBelow(4);
        const uint64_t value = rng.NextU64();
        uint8_t bytes[8];
        std::memcpy(bytes, &value, sizeof(bytes));
        ASSERT_EQ(mem.Write(addr, &value, size), naive.Write(addr, bytes, size)) << size;
      } else if (op < 15) {
        const uint64_t size = uint64_t{1} << rng.NextBelow(4);
        uint64_t got = 0;
        uint64_t want = 0;
        const MemFault fault = naive.Read(addr, reinterpret_cast<uint8_t*>(&want), size);
        ASSERT_EQ(mem.Read(addr, &got, size), fault) << size;
        if (fault == MemFault::kNone) {
          ASSERT_EQ(got, want) << size;
        }
      } else {
        ASSERT_EQ(mem.IsMapped(addr), naive.IsMapped(addr));
        ASSERT_EQ(mem.IsWritable(addr), naive.IsWritable(addr));
        const uint8_t* view = mem.ReadView(addr);
        ASSERT_EQ(view != nullptr, naive.IsMapped(addr));
        if (view != nullptr) {
          uint8_t want = 0;
          ASSERT_EQ(naive.Read(addr, &want, 1), MemFault::kNone);
          ASSERT_EQ(*view, want);
        }
        uint8_t* wview = mem.WriteView(addr);
        ASSERT_EQ(wview != nullptr, naive.IsWritable(addr));
        if (wview != nullptr) {
          const uint8_t b = static_cast<uint8_t>(rng.NextU64());
          *wview = b;
          ASSERT_EQ(naive.Write(addr, &b, 1), MemFault::kNone);
        }
      }
      ASSERT_EQ(mem.mapped_bytes(), naive.mapped_bytes());
    }
  }
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

// AccessRepeated(addr, n) must be indistinguishable from n back-to-back
// Access(addr) calls: same cycles, same hit/miss counts, and the same result
// for every access after it (replacement state included). Small caches keep
// the random streams evicting.
TEST(CacheTest, RepeatedAccessEqualsBackToBackAccesses) {
  for (uint64_t line : {4, 8, 64, 128}) {
    for (uint64_t ways : {1, 2, 4}) {
      CacheModel::Config config;
      config.line_bytes = line;
      config.ways = ways;
      config.size_bytes = line * ways * 8;  // 8 sets
      CacheModel batched(config);
      CacheModel single(config);
      Rng rng(line * 131 + ways);
      for (int step = 0; step < 4000; ++step) {
        const uint64_t addr = rng.NextU64() % (line * 64);
        const uint64_t n = rng.NextU64() % 3 == 0 ? 1 : 1 + rng.NextU64() % 12;
        uint64_t cycles = 0;
        for (uint64_t i = 0; i < n; ++i) {
          cycles += single.Access(addr);
        }
        ASSERT_EQ(batched.AccessRepeated(addr, n), cycles)
            << "line " << line << " ways " << ways << " step " << step;
        ASSERT_EQ(batched.hits(), single.hits());
        ASSERT_EQ(batched.misses(), single.misses());
      }
    }
  }
}

// An independent model of a set-associative LRU cache: each set keeps its
// lines in recency order, most recent first. The packed CacheModel (ticks,
// tick 0 meaning invalid) must agree with it on every access.
class NaiveLru {
 public:
  explicit NaiveLru(const CacheModel::Config& c)
      : config_(c), sets_(c.size_bytes / (c.line_bytes * c.ways)) {}

  uint64_t Access(uint64_t addr) {
    const uint64_t line = addr / config_.line_bytes;
    std::vector<uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == config_.ways) {
      set.pop_back();
    }
    set.insert(set.begin(), line);
    ++(hit ? hits : misses);
    return hit ? config_.hit_cycles : config_.miss_cycles;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;

 private:
  CacheModel::Config config_;
  std::vector<std::vector<uint64_t>> sets_;
};

TEST(CacheTest, MatchesNaiveLruModel) {
  // 16-set geometries, the default one (64 sets) and a 256-set one.
  std::vector<CacheModel::Config> configs;
  for (uint64_t line : {4, 64, 128}) {
    for (uint64_t ways : {1, 2, 4, 8}) {
      CacheModel::Config config;
      config.line_bytes = line;
      config.ways = ways;
      config.size_bytes = line * ways * 16;
      configs.push_back(config);
    }
  }
  configs.push_back(CacheModel::Config{});
  CacheModel::Config wide;
  wide.size_bytes = 64 * 1024;
  wide.ways = 4;
  configs.push_back(wide);
  for (const CacheModel::Config& config : configs) {
    const uint64_t line = config.line_bytes;
    const uint64_t ways = config.ways;
    const uint64_t sets = config.size_bytes / (line * ways);
    CacheModel cache(config);
    NaiveLru naive(config);
    Rng rng(line * 977 + ways);
    for (int step = 0; step < 20000; ++step) {
      // A footprint a few times the cache keeps every set evicting.
      const uint64_t addr = rng.NextU64() % (config.size_bytes * 3);
      const uint64_t n = rng.NextU64() % 4 == 0 ? 1 + rng.NextU64() % 6 : 1;
      uint64_t want = 0;
      for (uint64_t i = 0; i < n; ++i) {
        want += naive.Access(addr);
      }
      const uint64_t got = n == 1 ? cache.Access(addr) : cache.AccessRepeated(addr, n);
      ASSERT_EQ(got, want) << "line " << line << " ways " << ways << " sets " << sets << " step "
                           << step;
      ASSERT_EQ(cache.hits(), naive.hits);
      ASSERT_EQ(cache.misses(), naive.misses);
    }
    EXPECT_GT(naive.hits, 0u);
    EXPECT_GT(naive.misses, sets * ways);  // well past the compulsory fills
  }
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

// Regression: malloc's 16-byte round-up wrapped a request within 15 of
// 2^64, so malloc(-1) returned a 16-byte block. Vanilla then wrote past it
// unchecked, and CPI and SoftBound flagged p[0] because the block's upper
// bound wrapped too. Such a request is out of memory on every engine.
TEST(ExecTest, MallocOfWrappingSizeRunsOutOfMemory) {
  const char* source = R"(
    int main() {
      output(1);
      int n = 0;
      n = n - 1;
      char* p = (char*)malloc(n);
      p[0] = 7;
      p[100] = 9;
      output(p[100]);
      return 0;
    }
  )";
  for (core::Protection protection :
       {core::Protection::kNone, core::Protection::kCpi, core::Protection::kSoftBound}) {
    for (EngineKind engine : {EngineKind::kReference, EngineKind::kDecoded, EngineKind::kFused}) {
      auto cr = frontend::CompileC(source);
      ASSERT_TRUE(cr.ok()) << cr.error;
      core::Config config;
      config.protection = protection;
      config.engine = engine;
      const RunResult r = core::InstrumentAndRun(*cr.module, config);
      const std::string label = std::string(core::ProtectionName(protection)) + " on " +
                                EngineKindName(engine);
      EXPECT_EQ(r.status, RunStatus::kCrash) << label;
      EXPECT_EQ(r.message, "out of memory") << label;
      EXPECT_EQ(r.output, (std::vector<uint64_t>{1})) << label;
    }
  }
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

// --- library calls: every observable pinned --------------------------------------
//
// The libc-style routines move bytes through the routed memory path and
// charge them through the cache model. These golden runs pin, on all three
// engines, each case's status, violation, message, output and every Counters
// field, so any change to how lib-call bytes are moved or charged must keep
// them bit for bit.

// Every observable of a run on one line.
std::string Fingerprint(const RunResult& r) {
  std::ostringstream s;
  s << RunStatusName(r.status) << '|' << runtime::ViolationName(r.violation) << '|' << r.message
    << "|out";
  for (uint64_t v : r.output) {
    s << ' ' << v;
  }
  const Counters& c = r.counters;
  s << "|ins " << c.instructions << " cyc " << c.cycles << " mem " << c.mem_accesses << " store "
    << c.safe_store_ops << " contended " << c.store_contended_ops << " migrations "
    << c.shard_migrations << " seal " << c.seal_ops << " checks " << c.checks << " calls "
    << c.calls << " hijacks " << c.hijack_transfers << " hits " << c.cache_hits << " misses "
    << c.cache_misses << " spawns " << c.thread_spawns;
  return s.str();
}

struct LibCallCase {
  const char* name;
  core::Protection protection;
  runtime::IsolationKind isolation;
  // Run without instrumentation but with the safe stack on, so every local
  // (including arrays handed to lib calls) lives on the safe stack and lib
  // calls see safe-stack operands with safe provenance.
  bool raw_safe_stack;
  const char* source;
  const char* golden;
};

RunResult RunLibCallCase(const LibCallCase& c, EngineKind engine) {
  auto cr = frontend::CompileC(c.source);
  EXPECT_TRUE(cr.ok()) << c.name << ": " << cr.error;
  core::Config config;
  config.protection = c.protection;
  config.isolation = c.isolation;
  config.engine = engine;
  core::Compiler(config).Instrument(*cr.module);
  if (c.raw_safe_stack) {
    cr.module->protection().safe_stack = true;
  }
  core::Input input;
  for (uint8_t i = 0; i < 40; ++i) {
    input.bytes.push_back(static_cast<uint8_t>(i * 13 + 1));
  }
  return core::Run(*cr.module, config, input);
}

// Heap blocks from the first mallocs are page aligned (kHeapBase), so the
// offsets below place each transfer across a known number of page
// boundaries: src = page 0 of the first block, dst starts 3616 bytes into a
// page.
constexpr const char* kCopyAcrossPages = R"(
  int hash(char* p, int n) {
    int h = 0;
    for (int i = 0; i < n; i = i + 1) { h = h * 31 + p[i]; }
    return h;
  }
  int main() {
    char* src = (char*)malloc(20000);
    char* dst = (char*)malloc(20000);
    for (int i = 0; i < 20000; i = i + 1) { src[i] = i * 7 + 3; }
    memcpy(dst + 10, src + 20, 100);
    output(hash(dst, 20000));
    memcpy(dst + 400, src + 4050, 200);
    output(hash(dst, 20000));
    memmove(dst + 480, src + 100, 12300);
    output(hash(dst, 20000));
    output(input_bytes(dst + 470, 64));
    strncpy(dst + 4000, src + 1, 300);
    output(hash(dst, 20000));
    memset(dst + 300, 90, 9000);
    output(hash(dst, 20000));
    return 0;
  }
)";

constexpr const char* kOverlap = R"(
  int hash(char* p, int n) {
    int h = 0;
    for (int i = 0; i < n; i = i + 1) { h = h * 31 + p[i]; }
    return h;
  }
  int main() {
    char* p = (char*)malloc(16000);
    for (int i = 0; i < 16000; i = i + 1) { p[i] = i % 251; }
    memcpy(p + 3, p, 5000);
    output(hash(p, 16000));
    memcpy(p + 4093, p + 4000, 300);
    output(hash(p, 16000));
    memmove(p + 4100, p + 4090, 6000);
    output(hash(p, 16000));
    memmove(p + 10, p + 4000, 5000);
    output(hash(p, 16000));
    memcpy(p + 20, p + 8000, 5000);
    output(hash(p, 16000));
    return 0;
  }
)";

constexpr const char* kZeroLength = R"(
  int main() {
    char* wild = (char*)8;
    char* p = (char*)malloc(16);
    memcpy(wild, wild, 0);
    memmove(wild, p, 0);
    memset(wild, 1, 0);
    output(input_bytes(wild, 0));
    strncpy(p, "abc", 0);
    output(p[0]);
    return 0;
  }
)";

constexpr const char* kCopyIntoUnmapped = R"(
  char g[300];
  int main() {
    char* p = (char*)malloc(4096);
    for (int i = 0; i < 300; i = i + 1) { g[i] = i + 1; }
    output(7);
    memcpy(p + 4000, g, 200);
    output(8);
    return 0;
  }
)";

constexpr const char* kMemsetIntoUnmapped = R"(
  int main() {
    char* p = (char*)malloc(4096);
    memset(p + 10, 3, 100);
    output(p[50]);
    memset(p + 4000, 9, 500);
    output(p[4000]);
    return 0;
  }
)";

// The only read-only data is `big`, which ends exactly where the writable
// globals begin: `rw` sits on a writable page right above a read-only one.
constexpr const char* kMoveIntoReadOnly = R"(
  const char big[268435456];
  char rw[64];
  int main() {
    char* d = rw;
    for (int i = 0; i < 64; i = i + 1) { rw[i] = i + 1; }
    memmove(d + 8, d, 32);
    output(rw[8] + rw[39] * 256);
    memmove(d - 16, d - 24, 40);
    output(rw[0]);
    return 0;
  }
)";

constexpr const char* kStringsAcrossPages = R"(
  int hash(char* p, int n) {
    int h = 0;
    for (int i = 0; i < n; i = i + 1) { h = h * 31 + p[i]; }
    return h;
  }
  int main() {
    char* a = (char*)malloc(8192);
    char* b = (char*)malloc(8192);
    memset(a, 97, 5000);
    memset(b, 97, 5000);
    b[4500] = 98;
    output(strlen(a + 4000));
    output(strcmp(a + 4000, b + 4000) + 2);
    output(strcmp(b + 4000, a + 4000) + 2);
    output(strcmp(a + 4600, b + 4600) + 2);
    a[4990] = 99;
    strcpy(b + 4090, a + 4980);
    output(strlen(b + 4000));
    strcat(b + 4000, a + 4900);
    output(strlen(b));
    strncpy(b + 4080, a + 4995, 40);
    output(hash(b, 8192));
    a[5200] = 0;
    strcat(a + 4950, a + 4950);
    output(hash(a, 8192));
    return 0;
  }
)";

// NULs and mismatches on the last byte of a page and the first of the next.
constexpr const char* kStringsAtPageEnd = R"(
  int main() {
    char* a = (char*)malloc(8192);
    char* b = (char*)malloc(8192);
    memset(a, 97, 8192);
    memset(b, 97, 8192);
    a[4095] = 0;
    b[4095] = 0;
    output(strlen(a + 4000));
    output(strcmp(a + 4000, b + 4000) + 2);
    output(strcmp(a + 4001, b + 4000) + 2);
    b[4095] = 98;
    output(strcmp(a + 4000, b + 4000) + 2);
    a[4095] = 97;
    b[4095] = 97;
    a[4096] = 0;
    b[4096] = 0;
    output(strcmp(a + 4000, b + 4000) + 2);
    output(strlen(a + 4000));
    a[8191] = 0;
    output(strlen(a + 4097));
    strcpy(b + 10, a + 4090);
    output(strlen(b));
    output(strcmp(b + 8000, a + 8000) + 2);
    return 0;
  }
)";

constexpr const char* kUnterminatedStrlen = R"(
  int main() {
    char* p = (char*)malloc(4096);
    memset(p, 120, 4096);
    output(1);
    output(strlen(p + 100));
    return 0;
  }
)";

constexpr const char* kUnterminatedStrcmp = R"(
  int main() {
    char* p = (char*)malloc(4096);
    memset(p, 120, 4096);
    output(1);
    output(strcmp(p + 3000, p + 2000));
    return 0;
  }
)";

// Locals large enough to straddle safe-stack pages, mixed with a heap block.
constexpr const char* kSafeStackOperands = R"(
  int hash(char* p, int n) {
    int h = 0;
    for (int i = 0; i < n; i = i + 1) { h = h * 31 + p[i]; }
    return h;
  }
  int main() {
    char a[6000];
    char b[6000];
    memset(a, 65, 5999);
    a[5999] = 0;
    memcpy(b, a, 6000);
    output(strlen(b));
    output(strcmp(a, b) + 2);
    b[3000] = 66;
    output(strcmp(a, b) + 2);
    memmove(b + 7, b, 5000);
    strcpy(a + 100, b + 4000);
    char* h = (char*)malloc(12000);
    memcpy(h, a, 6000);
    memcpy(h + 6000, b, 6000);
    output(hash(h, 12000));
    memcpy(b + 4000, h + 20, 100);
    b[4100] = 0;
    a[5500] = 0;
    strcat(a + 5000, b + 4050);
    memset(b + 4090, 67, 30);
    strncpy(a + 4080, b + 4085, 60);
    output(input_bytes(b + 4070, 64));
    memcpy(h, a, 6000);
    memcpy(h + 6000, b, 6000);
    output(strlen(a) + hash(h, 12000));
    return 0;
  }
)";

// An address forged into the safe region, without safe provenance.
constexpr const char* kForgedSafeRead = R"(
  char buf[16];
  int main() {
    char* f = (char*)105553116270592;
    output(1);
    memcpy(buf, f, 8);
    output(2);
    return 0;
  }
)";

constexpr const char* kForgedSafeWrite = R"(
  int main() {
    char* f = (char*)105553116270592;
    output(1);
    memset(f, 0, 8);
    output(2);
    return 0;
  }
)";

// Code pointers moved, overlapped and cleared by the checked variants.
constexpr const char* kCheckedCopies = R"(
  struct rec { int id; int (*fn)(int); char pad[40]; };
  int twice(int x) { return x * 2; }
  int thrice(int x) { return x * 3; }
  int sum(struct rec* r, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      struct rec* e = r + i;
      int (*f)(int) = e->fn;
      acc = acc * 7 + f(e->id);
    }
    return acc;
  }
  int main() {
    struct rec* a = (struct rec*)malloc(sizeof(struct rec) * 200);
    struct rec* b = (struct rec*)malloc(sizeof(struct rec) * 200);
    for (int i = 0; i < 200; i = i + 1) {
      struct rec* e = a + i;
      e->id = i;
      if (i % 2) { e->fn = twice; } else { e->fn = thrice; }
    }
    memcpy(b, a, sizeof(struct rec) * 200);
    output(sum(b, 200));
    memmove(a + 1, a, sizeof(struct rec) * 150);
    output(sum(a, 151));
    memmove(b, b + 3, sizeof(struct rec) * 120);
    output(sum(b, 120));
    memset(b, 0, sizeof(struct rec) * 100);
    output(sum(b + 100, 100));
    return 0;
  }
)";

using runtime::IsolationKind;
using core::Protection;

const LibCallCase kLibCallCases[] = {
    {"copy_across_pages", Protection::kNone, IsolationKind::kSegment, false, kCopyAcrossPages,
     "ok|none||"
     "out 10412540591154445726 1106589371946173914 7281249670652355872 40"
     " 14480753968107840249 3880936565176174002|"
     "ins 2120138 cyc 4229510 mem 1044407 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 6 hijacks 0 hits 1043577 misses 830 spawns 0"},
    {"overlap", Protection::kNone, IsolationKind::kSegment, false, kOverlap,
     "ok|none||"
     "out 16838733034482969040 16838733034482969040 8376585877827565325"
     " 508191502214902725 12657476726514261239|"
     "ins 1680131 cyc 3555229 mem 837397 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 6 hijacks 0 hits 837145 misses 252 spawns 0"},
    {"zero_length", Protection::kNone, IsolationKind::kSegment, false, kZeroLength,
     "ok|none||out 0 0|"
     "ins 29 cyc 174 mem 13 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 11 misses 2 spawns 0"},
    {"copy_into_unmapped", Protection::kNone, IsolationKind::kSegment, false, kCopyIntoUnmapped,
     "crash|none|fault: write to unmapped address|out 7|"
     "ins 4517 cyc 8296 mem 1805 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 1799 misses 6 spawns 0"},
    {"memset_into_unmapped", Protection::kNone, IsolationKind::kSegment, false, kMemsetIntoUnmapped,
     "crash|none|fault: write to unmapped address|out 3|"
     "ins 16 cyc 172 mem 19 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 16 misses 3 spawns 0"},
    {"move_into_read_only", Protection::kNone, IsolationKind::kSegment, false, kMoveIntoReadOnly,
     "crash|none|fault: write to read-only memory|out 8193|"
     "ins 993 cyc 1868 mem 402 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 400 misses 2 spawns 0"},
    {"strings_across_pages", Protection::kNone, IsolationKind::kSegment, false, kStringsAcrossPages,
     "ok|none||out 1000 1 3 2 110 4210 10749562815130003741 16521723004769056731|"
     "ins 295028 cyc 601697 mem 149828 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 3 hijacks 0 hits 149570 misses 258 spawns 0"},
    {"strings_at_page_end", Protection::kNone, IsolationKind::kSegment, false, kStringsAtPageEnd,
     "ok|none||out 95 2 1 1 2 96 4094 16 3|"
     "ins 101 cyc 12852 mem 2776 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 2519 misses 257 spawns 0"},
    {"unterminated_strlen", Protection::kNone, IsolationKind::kSegment, false, kUnterminatedStrlen,
     "crash|none|fault: read of unmapped address|out 1|"
     "ins 11 cyc 2775 mem 516 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 451 misses 65 spawns 0"},
    {"unterminated_strcmp", Protection::kNone, IsolationKind::kSegment, false, kUnterminatedStrcmp,
     "crash|none|fault: read of unmapped address|out 1|"
     "ins 13 cyc 2779 mem 517 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 452 misses 65 spawns 0"},
    {"safe_stack_segment", Protection::kNone, IsolationKind::kSegment, true, kSafeStackOperands,
     "ok|none||out 5999 2 1 6158982671528956606 40 6218634745796487830|"
     "ins 432124 cyc 906015 mem 229366 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 3 hijacks 0 hits 228989 misses 377 spawns 0"},
    {"safe_stack_info_hiding", Protection::kNone, IsolationKind::kInfoHiding, true,
     kSafeStackOperands,
     "ok|none||out 5999 2 1 6158982671528956606 40 6218634745796487830|"
     "ins 432124 cyc 906015 mem 229366 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 3 hijacks 0 hits 228989 misses 377 spawns 0"},
    {"safe_stack_sfi", Protection::kNone, IsolationKind::kSfi, true, kSafeStackOperands,
     "ok|none||out 5999 2 1 6158982671528956606 40 6218634745796487830|"
     "ins 432124 cyc 943349 mem 229366 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 3 hijacks 0 hits 228989 misses 377 spawns 0"},
    {"forged_read_segment", Protection::kNone, IsolationKind::kSegment, false, kForgedSafeRead,
     "crash|none|segment violation: regular access to the safe region|out 1|"
     "ins 9 cyc 50 mem 3 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 2 misses 1 spawns 0"},
    {"forged_read_info_hiding", Protection::kNone, IsolationKind::kInfoHiding, false,
     kForgedSafeRead,
     "crash|none|fault: access to unmapped address (safe region is hidden)|out 1|"
     "ins 9 cyc 50 mem 3 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 2 misses 1 spawns 0"},
    {"forged_read_sfi", Protection::kNone, IsolationKind::kSfi, false, kForgedSafeRead,
     "crash|none|fault: read of unmapped address|out 1|"
     "ins 9 cyc 53 mem 3 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 2 misses 1 spawns 0"},
    {"forged_write_sfi", Protection::kNone, IsolationKind::kSfi, false, kForgedSafeWrite,
     "crash|none|fault: write to unmapped address|out 1|"
     "ins 7 cyc 51 mem 3 store 0 contended 0 migrations 0 seal 0"
     " checks 0 calls 1 hijacks 0 hits 2 misses 1 spawns 0"},
    {"checked_cpi", Protection::kCpi, IsolationKind::kSegment, false, kCheckedCopies,
     "ok|none||"
     "out 8016295336952370940 1883973579097500920 13568365769917087612 10621492968322541846|"
     "ins 25506 cyc 114404 mem 20782 store 9008 contended 0 migrations 0 seal 0"
     " checks 2113 calls 576 hijacks 0 hits 19447 misses 1335 spawns 0"},
    {"checked_cpi_sfi", Protection::kCpi, IsolationKind::kSfi, false, kCheckedCopies,
     "ok|none||"
     "out 8016295336952370940 1883973579097500920 13568365769917087612 10621492968322541846|"
     "ins 25506 cyc 122455 mem 20782 store 9008 contended 0 migrations 0 seal 0"
     " checks 2113 calls 576 hijacks 0 hits 19447 misses 1335 spawns 0"},
    {"checked_cps", Protection::kCps, IsolationKind::kSegment, false, kCheckedCopies,
     "ok|none||"
     "out 8016295336952370940 1883973579097500920 13568365769917087612 10621492968322541846|"
     "ins 23964 cyc 111188 mem 20782 store 5907 contended 0 migrations 0 seal 0"
     " checks 571 calls 576 hijacks 0 hits 19453 misses 1329 spawns 0"},
    {"checked_ptrenc", Protection::kPtrEnc, IsolationKind::kSegment, false, kCheckedCopies,
     "ok|none||"
     "out 8016295336952370940 1883973579097500920 13568365769917087612 10621492968322541846|"
     "ins 23964 cyc 118239 mem 24542 store 0 contended 0 migrations 0 seal 7396"
     " checks 571 calls 576 hijacks 0 hits 24190 misses 352 spawns 0"},
    {"checked_softbound", Protection::kSoftBound, IsolationKind::kSegment, false, kCheckedCopies,
     "ok|none||"
     "out 8016295336952370940 1883973579097500920 13568365769917087612 10621492968322541846|"
     "ins 24935 cyc 137181 mem 32352 store 0 contended 0 migrations 0 seal 0"
     " checks 1549 calls 576 hijacks 0 hits 30759 misses 1593 spawns 0"},
};

TEST(LibCallTest, GoldenResultsOnEveryEngine) {
  for (const LibCallCase& c : kLibCallCases) {
    for (EngineKind engine : {EngineKind::kReference, EngineKind::kDecoded, EngineKind::kFused}) {
      EXPECT_EQ(Fingerprint(RunLibCallCase(c, engine)), c.golden)
          << c.name << " on " << EngineKindName(engine);
    }
  }
}

// Registers are indexed by value id, which Function::RenumberValues assigns
// (core::Compiler runs it). A module it never ran on, such as CompileC's
// output, is rejected loudly by every engine instead of being run past its
// register file.
TEST(VmDeathTest, UnnumberedModuleDiesOnEveryEngine) {
  for (const char* source : {"int main() { int x = input(); output(x + 1); return 0; }",
                             "int main() { return 0; }"}) {
    for (EngineKind engine : {EngineKind::kReference, EngineKind::kDecoded, EngineKind::kFused}) {
      auto cr = frontend::CompileC(source);
      ASSERT_TRUE(cr.ok()) << cr.error;
      core::Config config;
      config.engine = engine;
      EXPECT_DEATH(core::Run(*cr.module, config), "CPI_CHECK failed")
          << source << " on " << EngineKindName(engine);
    }
  }
}

// Under SFI a safe-region address without safe provenance is masked back
// into the regular region. Lib-call bytes take the same mask as a scalar
// access: the forged address below reads and writes the heap block it masks
// to, through a load, a memcpy and a memset alike. A forged operand can
// also overlap the other one only after masking; copies then still match a
// forward byte loop (the loops in C below), pattern replication included.
TEST(LibCallTest, SfiMasksForgedAddressesLikeScalarAccesses) {
  constexpr uint64_t kForgeBit = 1ULL << 47;  // in the safe region, cleared by the mask
  static_assert(kForgeBit >= kSafeRegionBase && ((kSafeRegionBase - 1) & kForgeBit) == 0);
  const char* source = R"(
    int memcmp_loop(char* x, char* y, int n) {
      int same = 0;
      for (int i = 0; i < n; i = i + 1) { same = same + (x[i] == y[i]); }
      return same;
    }
    int main() {
      int* h = (int*)malloc(16);
      *h = 4242;
      char* forged = (char*)((int)h + 140737488355328);
      output(*(int*)forged);
      int* d = (int*)malloc(16);
      memcpy((char*)d, forged, 8);
      output(*d);
      memset(forged, 0, 8);
      output(*h);

      char* a = (char*)malloc(64);
      char* b = (char*)malloc(64);
      for (int i = 0; i < 64; i = i + 1) { a[i] = i + 1; b[i] = i + 1; }
      char* fa = (char*)((int)a + 140737488355328);
      memcpy(a + 3, fa, 40);
      for (int i = 0; i < 40; i = i + 1) { b[i + 3] = b[i]; }
      output(memcmp_loop(a, b, 64));
      memmove(fa, a + 5, 40);
      for (int i = 0; i < 40; i = i + 1) { b[i] = b[i + 5]; }
      output(memcmp_loop(a, b, 64));
      return 0;
    }
  )";
  for (EngineKind engine : {EngineKind::kReference, EngineKind::kDecoded, EngineKind::kFused}) {
    auto cr = frontend::CompileC(source);
    ASSERT_TRUE(cr.ok()) << cr.error;
    core::Config config;
    config.isolation = runtime::IsolationKind::kSfi;
    config.engine = engine;
    const RunResult r = core::InstrumentAndRun(*cr.module, config);
    ASSERT_EQ(r.status, RunStatus::kOk) << r.message << " on " << EngineKindName(engine);
    EXPECT_EQ(r.output, (std::vector<uint64_t>{4242, 4242, 0, 64, 64})) << EngineKindName(engine);
  }
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
