// Unit and property tests for the runtime: the three safe-pointer-store
// organisations (behavioural equivalence under random operation sequences,
// range helpers, memory accounting), metadata semantics, and temporal ids.
// Every store test runs over (organisation × shard count) — a store of many
// shards must be behaviourally indistinguishable from one of a single shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/runtime/metadata.h"
#include "src/runtime/safe_store.h"
#include "src/runtime/seal.h"
#include "src/runtime/temporal.h"
#include "src/support/oom.h"
#include "src/support/rng.h"
#include "src/vm/layout.h"

namespace cpi::runtime {
namespace {

class StoreTest : public ::testing::TestWithParam<std::tuple<StoreKind, uint32_t>> {
 protected:
  StoreKind Kind() const { return std::get<0>(GetParam()); }
  uint32_t Shards() const { return std::get<1>(GetParam()); }

  std::unique_ptr<SafePointerStore> store_ =
      CreateSafeStore(Kind(), Shards(), &vm::ShardOfAddress);
};

TEST_P(StoreTest, SetGetRoundTrip) {
  SafeEntry e = SafeEntry::Data(0xdead, 0x1000, 0x2000, 7);
  store_->Set(0x4000, e, nullptr);
  SafeEntry got = store_->Get(0x4000, nullptr);
  EXPECT_EQ(got.value, 0xdeadu);
  EXPECT_EQ(got.lower, 0x1000u);
  EXPECT_EQ(got.upper, 0x2000u);
  EXPECT_EQ(got.temporal_id, 7u);
  EXPECT_EQ(got.kind, EntryKind::kData);
}

TEST_P(StoreTest, AbsentAddressesReturnNone) {
  EXPECT_FALSE(store_->Get(0x1234560, nullptr).IsPresent());
  EXPECT_EQ(store_->EntryCount(), 0u);
}

TEST_P(StoreTest, ClearRemovesEntry) {
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  EXPECT_EQ(store_->EntryCount(), 1u);
  store_->Clear(0x4000, nullptr);
  EXPECT_FALSE(store_->Get(0x4000, nullptr).IsPresent());
  EXPECT_EQ(store_->EntryCount(), 0u);
}

TEST_P(StoreTest, OverwriteKeepsSingleEntry) {
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  store_->Set(0x4000, SafeEntry::Code(0x2000), nullptr);
  EXPECT_EQ(store_->EntryCount(), 1u);
  EXPECT_EQ(store_->Get(0x4000, nullptr).value, 0x2000u);
}

TEST_P(StoreTest, UnalignedAddressesShareTheSlot) {
  // Pointer-sized slots: addresses within the same 8-byte word alias.
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  EXPECT_TRUE(store_->Get(0x4003, nullptr).IsPresent());
  store_->Clear(0x4007, nullptr);
  EXPECT_FALSE(store_->Get(0x4000, nullptr).IsPresent());
}

TEST_P(StoreTest, TouchListsAreBounded) {
  TouchList t;
  store_->Set(0x8000, SafeEntry::Code(0x1000), &t);
  EXPECT_GT(t.count, 0);
  EXPECT_LE(t.count, TouchList::kMax);
}

TEST_P(StoreTest, CopyRangeMovesAlignedEntries) {
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  store_->Set(0x4008, SafeEntry::Data(0x5, 0x0, 0x10, 1), nullptr);
  store_->CopyRange(0x9000, 0x4000, 16);
  EXPECT_EQ(store_->Get(0x9000, nullptr).value, 0x1000u);
  EXPECT_EQ(store_->Get(0x9008, nullptr).value, 0x5u);
  // Source survives a copy.
  EXPECT_TRUE(store_->Get(0x4000, nullptr).IsPresent());
}

TEST_P(StoreTest, MisalignedCopyDropsEntries) {
  // A byte-shifted copy of a pointer is no longer a pointer.
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  store_->Set(0x9000, SafeEntry::Code(0x2000), nullptr);
  store_->CopyRange(0x9001, 0x4000, 8);
  EXPECT_FALSE(store_->Get(0x9000, nullptr).IsPresent());  // stale dst cleared
}

TEST_P(StoreTest, ClearRangeCoversPartialWords) {
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  store_->Set(0x4008, SafeEntry::Code(0x2000), nullptr);
  store_->ClearRange(0x4004, 8);  // touches both words
  EXPECT_FALSE(store_->Get(0x4000, nullptr).IsPresent());
  EXPECT_FALSE(store_->Get(0x4008, nullptr).IsPresent());
}

TEST_P(StoreTest, MoveRangeHandlesOverlap) {
  for (int i = 0; i < 4; ++i) {
    store_->Set(0x4000 + 8 * i, SafeEntry::Code(0x1000 + static_cast<uint64_t>(i)), nullptr);
  }
  store_->MoveRange(0x4008, 0x4000, 32);  // overlapping forward move
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(store_->Get(0x4008 + 8 * i, nullptr).value, 0x1000u + static_cast<uint64_t>(i));
  }
}

TEST_P(StoreTest, MoveRangeHandlesBackwardOverlap) {
  for (int i = 0; i < 4; ++i) {
    store_->Set(0x4008 + 8 * i, SafeEntry::Code(0x1000 + static_cast<uint64_t>(i)), nullptr);
  }
  store_->MoveRange(0x4000, 0x4008, 32);  // dst below src, ranges overlap
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(store_->Get(0x4000 + 8 * i, nullptr).value, 0x1000u + static_cast<uint64_t>(i));
  }
}

TEST_P(StoreTest, CopyRangeHandlesForwardOverlap) {
  for (int i = 0; i < 4; ++i) {
    store_->Set(0x4000 + 8 * i, SafeEntry::Code(0x1000 + static_cast<uint64_t>(i)), nullptr);
  }
  // memcpy-style overlap, dst above src: every entry must still transfer
  // (the snapshot happens before the destination range is cleared).
  store_->CopyRange(0x4008, 0x4000, 32);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(store_->Get(0x4008 + 8 * i, nullptr).value, 0x1000u + static_cast<uint64_t>(i));
  }
  // The first source word lies outside the destination range and survives.
  EXPECT_EQ(store_->Get(0x4000, nullptr).value, 0x1000u);
}

TEST_P(StoreTest, CopyRangeHandlesBackwardOverlap) {
  for (int i = 0; i < 4; ++i) {
    store_->Set(0x4008 + 8 * i, SafeEntry::Code(0x1000 + static_cast<uint64_t>(i)), nullptr);
  }
  store_->CopyRange(0x4000, 0x4008, 32);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(store_->Get(0x4000 + 8 * i, nullptr).value, 0x1000u + static_cast<uint64_t>(i));
  }
  EXPECT_EQ(store_->Get(0x4020, nullptr).value, 0x1003u);  // outside dst range
}

TEST_P(StoreTest, MisalignedMoveDropsEntries) {
  // dst ^ src misaligned by a byte: pointers cannot survive the shift, and
  // stale destination entries must be cleared rather than left dangling.
  store_->Set(0x4000, SafeEntry::Code(0x1000), nullptr);
  store_->Set(0x9000, SafeEntry::Code(0x2000), nullptr);
  store_->MoveRange(0x9001, 0x4000, 16);
  EXPECT_FALSE(store_->Get(0x9000, nullptr).IsPresent());
  EXPECT_FALSE(store_->Get(0x9008, nullptr).IsPresent());
  // The source itself is untouched by a misaligned transfer.
  EXPECT_TRUE(store_->Get(0x4000, nullptr).IsPresent());
}

TEST_P(StoreTest, TombstoneSlotsAreReusedAfterClear) {
  // Fill, clear everything (tombstones in the hash organisation), then
  // re-insert the same keys: the cleared slots must be reused, so resident
  // memory does not grow and the live count stays exact.
  constexpr int kEntries = 600;
  for (int i = 0; i < kEntries; ++i) {
    store_->Set(0x4000 + 8 * static_cast<uint64_t>(i), SafeEntry::Code(0x1000), nullptr);
  }
  const uint64_t bytes_full = store_->MemoryBytes();
  for (int i = 0; i < kEntries; ++i) {
    store_->Clear(0x4000 + 8 * static_cast<uint64_t>(i), nullptr);
  }
  EXPECT_EQ(store_->EntryCount(), 0u);
  for (int i = 0; i < kEntries; ++i) {
    store_->Set(0x4000 + 8 * static_cast<uint64_t>(i),
                SafeEntry::Code(0x2000 + static_cast<uint64_t>(i)), nullptr);
  }
  EXPECT_EQ(store_->EntryCount(), static_cast<uint64_t>(kEntries));
  EXPECT_EQ(store_->MemoryBytes(), bytes_full);
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_EQ(store_->Get(0x4000 + 8 * static_cast<uint64_t>(i), nullptr).value,
              0x2000u + static_cast<uint64_t>(i));
  }
}

TEST_P(StoreTest, RehashDropsTombstonesAndKeepsEntries) {
  // Alternate insert/clear waves so the hash organisation accumulates
  // tombstones, then push past the rehash threshold; every organisation
  // must still agree with a reference map afterwards.
  std::map<uint64_t, uint64_t> reference;
  auto set = [&](uint64_t addr, uint64_t value) {
    store_->Set(addr, SafeEntry::Code(value), nullptr);
    reference[addr] = value;
  };
  auto clear = [&](uint64_t addr) {
    store_->Clear(addr, nullptr);
    reference.erase(addr);
  };
  for (int i = 0; i < 500; ++i) {
    set(0x4000 + 8 * static_cast<uint64_t>(i), 0x1000 + static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 500; i += 2) {
    clear(0x4000 + 8 * static_cast<uint64_t>(i));
  }
  // Fresh keys drive (live + tombstones) past the load-factor limit, forcing
  // a rehash that must drop tombstones but keep every live entry.
  for (int i = 0; i < 500; ++i) {
    set(0x80000 + 8 * static_cast<uint64_t>(i), 0x9000 + static_cast<uint64_t>(i));
  }
  EXPECT_EQ(store_->EntryCount(), reference.size());
  for (const auto& [addr, value] : reference) {
    EXPECT_EQ(store_->Get(addr, nullptr).value, value) << std::hex << addr;
  }
  for (int i = 0; i < 500; i += 2) {
    EXPECT_FALSE(store_->Get(0x4000 + 8 * static_cast<uint64_t>(i), nullptr).IsPresent());
  }
}

// Property test: every organisation behaves like a plain map under a random
// operation mix.
TEST_P(StoreTest, EquivalentToReferenceMapUnderRandomOps) {
  Rng rng(2024 + static_cast<uint64_t>(Kind()) + 31 * Shards());
  std::map<uint64_t, SafeEntry> reference;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t slot_addr = rng.NextBelow(512) * 8 + 0x10000;
    const int op = static_cast<int>(rng.NextBelow(10));
    if (op < 5) {
      SafeEntry e = rng.Chance(1, 2)
                        ? SafeEntry::Code(0x1000 + rng.NextBelow(256) * 16)
                        : SafeEntry::Data(rng.NextU64(), 0x100, 0x10000, rng.NextBelow(50));
      store_->Set(slot_addr, e, nullptr);
      reference[slot_addr] = e;
    } else if (op < 7) {
      store_->Clear(slot_addr, nullptr);
      reference.erase(slot_addr);
    } else {
      SafeEntry got = store_->Get(slot_addr, nullptr);
      auto it = reference.find(slot_addr);
      if (it == reference.end()) {
        ASSERT_FALSE(got.IsPresent()) << "step " << step;
      } else {
        ASSERT_TRUE(got.IsPresent()) << "step " << step;
        ASSERT_EQ(got.value, it->second.value) << "step " << step;
        ASSERT_EQ(got.lower, it->second.lower);
        ASSERT_EQ(got.upper, it->second.upper);
        ASSERT_EQ(got.temporal_id, it->second.temporal_id);
        ASSERT_EQ(got.kind, it->second.kind);
      }
    }
  }
  EXPECT_EQ(store_->EntryCount(), reference.size());
}

TEST_P(StoreTest, MemoryAccountingGrowsWithEntries) {
  const uint64_t before = store_->MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    store_->Set(0x10000 + static_cast<uint64_t>(i) * 4096, SafeEntry::Code(0x1000), nullptr);
  }
  EXPECT_GT(store_->MemoryBytes(), before);
  EXPECT_EQ(store_->EntryCount(), 1000u);
}

// The paged organisations' geometries: slots per page (the growth unit), the
// modeled bytes of one page of entries, and the directory each shard adds.
struct PagedGeometry {
  uint64_t slots_per_page;
  uint64_t page_bytes;
  uint64_t directory_bytes;
};

PagedGeometry GeometryOf(StoreKind kind) {
  if (kind == StoreKind::kArray) {
    return {1ULL << 16, 2ULL << 20, 0};  // superpage: 65,536 entries x 32 bytes
  }
  return {1ULL << 12, 128ULL << 10, 4096};  // table: 4,096 entries x 32 bytes
}

// The paged organisations' modeled footprint: a whole page of entries (a
// 2 MiB array superpage, a 128 KiB two-level table) per page touched (per
// shard), plus a 4 KiB two-level directory per shard holding tables,
// however few of a page's blocks the host actually backs.
TEST_P(StoreTest, ArraySuperpagesReportTheModeledFootprint) {
  if (Kind() == StoreKind::kHash) {
    GTEST_SKIP() << "paged organisations only";
  }
  const PagedGeometry g = GeometryOf(Kind());
  const uint64_t span = g.slots_per_page * 8;     // regular bytes one page covers
  std::set<std::pair<uint32_t, uint64_t>> pages;  // (shard, page)
  std::set<uint32_t> shards;
  for (uint64_t base : {vm::kHeapBase, vm::kHeapBase + 5 * span,
                        vm::kHeapLimit - vm::kThreadHeapBytes, vm::kStackTop - span}) {
    for (uint64_t off = 0; off < span; off += 4096 + 8) {
      const uint64_t addr = base + off;
      store_->Set(addr, SafeEntry::Code(0x1000), nullptr);
      pages.emplace(vm::ShardOfAddress(addr, Shards()), addr / span);
      shards.insert(vm::ShardOfAddress(addr, Shards()));
    }
  }
  const uint64_t footprint = pages.size() * g.page_bytes + shards.size() * g.directory_bytes;
  EXPECT_EQ(store_->MemoryBytes(), footprint);
  store_->Clear(vm::kHeapBase, nullptr);  // clearing releases nothing
  EXPECT_EQ(store_->MemoryBytes(), footprint);
}

// CorruptEntry(which) hits the which-th live entry in slot order (shards in
// index order first), whatever order the entries were inserted in.
TEST_P(StoreTest, CorruptEntryFollowsSlotOrder) {
  if (Kind() == StoreKind::kHash) {
    GTEST_SKIP() << "the hash store corrupts in table order";
  }
  // Scattered over blocks, superpages and the heaps of four homes.
  Rng rng(11);
  std::set<uint64_t> unique;
  for (uint64_t tid = 0; tid < 4; ++tid) {
    const uint64_t base =
        tid == 0 ? vm::kHeapBase : vm::kHeapLimit - tid * vm::kThreadHeapBytes;
    for (int i = 0; i < 12; ++i) {
      unique.insert(base + rng.NextBelow(1 << 19) * 8);
    }
  }
  std::vector<uint64_t> inserted(unique.begin(), unique.end());
  std::reverse(inserted.begin(), inserted.end());
  std::vector<uint64_t> order(unique.begin(), unique.end());
  std::stable_sort(order.begin(), order.end(), [this](uint64_t a, uint64_t b) {
    return vm::ShardOfAddress(a, Shards()) < vm::ShardOfAddress(b, Shards());
  });
  for (size_t which = 0; which < order.size(); ++which) {
    auto store = CreateSafeStore(Kind(), Shards(), &vm::ShardOfAddress);
    for (uint64_t a : inserted) {
      store->Set(a, SafeEntry::Code(a), nullptr);
    }
    ASSERT_TRUE(store->CorruptEntry(which, 0xf0));
    for (uint64_t a : inserted) {
      EXPECT_EQ(store->Get(a, nullptr).value != a, a == order[which]) << "which " << which;
    }
  }
}

// A paged organisation's growth-failure countdown is consumed once per new
// page; backing more blocks of a reserved page never consumes it.
TEST_P(StoreTest, ArrayAllocFailureFiresOnSuperpageGrowth) {
  if (Kind() == StoreKind::kHash) {
    GTEST_SKIP() << "paged organisations only";
  }
  const PagedGeometry g = GeometryOf(Kind());
  const uint64_t span = g.slots_per_page * 8;
  store_->InjectAllocFailure(1);  // one growth succeeds, the next throws
  for (uint64_t off = 0; off < span; off += 4096) {  // every block of one page
    ASSERT_NO_THROW(store_->Set(vm::kHeapBase + off, SafeEntry::Code(0x40), nullptr));
  }
  EXPECT_THROW(store_->Set(vm::kHeapBase + span, SafeEntry::Code(0x40), nullptr),
               SimulatedOom);
  // One-shot: disarmed after firing.
  EXPECT_NO_THROW(store_->Set(vm::kHeapBase + 2 * span, SafeEntry::Code(0x40), nullptr));
  EXPECT_EQ(store_->MemoryBytes(), 2 * g.page_bytes + g.directory_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreTest,
    ::testing::Combine(::testing::Values(StoreKind::kArray, StoreKind::kTwoLevel,
                                         StoreKind::kHash),
                       ::testing::Values(1u, 2u, 8u, 64u)),
    [](const ::testing::TestParamInfo<std::tuple<StoreKind, uint32_t>>& info) {
      std::string name = "unknown";
      switch (std::get<0>(info.param)) {
        case StoreKind::kArray: name = "array"; break;
        case StoreKind::kTwoLevel: name = "two_level"; break;
        case StoreKind::kHash: name = "hash"; break;
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(StoreComparisonTest, HashIsMostMemoryFrugalForSparseEntries) {
  auto array = CreateSafeStore(StoreKind::kArray);
  auto hash = CreateSafeStore(StoreKind::kHash);
  // Sparse entries scattered over a wide range (the CPI usage pattern).
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const uint64_t addr = rng.NextBelow(1 << 24) * 8;
    array->Set(addr, SafeEntry::Code(0x1000), nullptr);
    hash->Set(addr, SafeEntry::Code(0x1000), nullptr);
  }
  EXPECT_LT(hash->MemoryBytes(), array->MemoryBytes());
}

// --- metadata ----------------------------------------------------------------

TEST(MetadataTest, InvalidEntriesNeverPassBoundsChecks) {
  SafeEntry inv = SafeEntry::Invalid(0x1234);
  EXPECT_TRUE(inv.IsPresent());
  EXPECT_FALSE(inv.HasValidBounds());
  EXPECT_FALSE(inv.InBounds(0x1234, 1));
}

TEST(MetadataTest, CodeEntriesBoundToExactAddress) {
  SafeEntry code = SafeEntry::Code(0x1000);
  EXPECT_TRUE(code.InBounds(0x1000, 0));
  EXPECT_FALSE(code.InBounds(0x1001, 0));
}

TEST(MetadataTest, RegMetaBoundsChecks) {
  RegMeta m = RegMeta::Data(0x1000, 0x1100, 3);
  EXPECT_TRUE(m.InBounds(0x1000, 8));
  EXPECT_TRUE(m.InBounds(0x10f8, 8));
  EXPECT_FALSE(m.InBounds(0x10f9, 8));   // straddles the upper bound
  EXPECT_FALSE(m.InBounds(0xfff, 1));    // below lower
  EXPECT_FALSE(RegMeta::Invalid().InBounds(0, 0));
  EXPECT_FALSE(RegMeta::None().IsSafeValue());
}

TEST(MetadataTest, RegMetaRoundTripsThroughEntries) {
  RegMeta m = RegMeta::Data(0x10, 0x20, 5);
  SafeEntry e = SafeEntry{0x18, m.lower, m.upper, m.temporal_id, m.kind};
  RegMeta back = RegMeta::FromEntry(e);
  EXPECT_EQ(back.lower, m.lower);
  EXPECT_EQ(back.upper, m.upper);
  EXPECT_EQ(back.temporal_id, m.temporal_id);
  EXPECT_EQ(back.kind, m.kind);
}

TEST(MetadataTest, UpperBoundIsExclusiveInBothStructs) {
  // One-past-the-end is out of bounds even for zero-size accesses, and the
  // SafeEntry / RegMeta conventions agree.
  SafeEntry e = SafeEntry::Data(0x1000, 0x1000, 0x1100, 1);
  EXPECT_TRUE(e.InBounds(0x10ff, 1));
  EXPECT_FALSE(e.InBounds(0x1100, 0));
  EXPECT_FALSE(e.InBounds(0x1100, 1));
  RegMeta m = RegMeta::FromEntry(e);
  EXPECT_TRUE(m.InBounds(0x10ff, 1));
  EXPECT_FALSE(m.InBounds(0x1100, 0));
  EXPECT_FALSE(m.InBounds(0x1100, 1));
  // Code entries span exactly their one entry address under the same rule.
  EXPECT_EQ(SafeEntry::Code(0x2000).upper, 0x2001u);
  EXPECT_EQ(RegMeta::Code(0x2000).upper, 0x2001u);
}

// --- pointer sealing --------------------------------------------------------

TEST(SealerTest, SealAuthRoundTrip) {
  PointerSealer sealer(DeriveSealKey(1));
  const uint64_t value = 0x0000'1000'0040ULL;
  const uint64_t loc = 0x7fff'e000ULL;
  const uint64_t sealed = sealer.Seal(value, loc);
  EXPECT_TRUE(PointerSealer::LooksSealed(sealed));
  EXPECT_EQ(PointerSealer::Strip(sealed), value);
  uint64_t out = 0;
  ASSERT_TRUE(sealer.Auth(sealed, loc, &out));
  EXPECT_EQ(out, value);
}

TEST(SealerTest, WrongLocationOrTamperedValueFailsAuthentication) {
  PointerSealer sealer(DeriveSealKey(1));
  const uint64_t value = 0x0000'1000'0040ULL;
  const uint64_t loc = 0x7fff'e000ULL;
  const uint64_t sealed = sealer.Seal(value, loc);
  uint64_t out = 0;
  EXPECT_FALSE(sealer.Auth(sealed, loc + 8, &out));  // replay elsewhere
  EXPECT_FALSE(sealer.Auth(sealed ^ 1, loc, &out));  // low-bit tamper
  EXPECT_FALSE(sealer.Auth(sealed ^ (1ULL << 60), loc, &out));  // tag tamper
}

TEST(SealerTest, RawValuesNeverAuthenticate) {
  // A raw overwrite (any value with zero high bits — every legitimate VM
  // address) must never pass authentication: the MAC is never zero.
  PointerSealer sealer(DeriveSealKey(42));
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t raw = rng.NextU64() & PointerSealer::kValueMask;
    uint64_t out = 0;
    ASSERT_FALSE(sealer.Auth(raw, rng.NextU64(), &out));
  }
}

TEST(SealerTest, KeysDisagree) {
  PointerSealer a(DeriveSealKey(1));
  PointerSealer b(DeriveSealKey(2));
  uint64_t out = 0;
  EXPECT_FALSE(b.Auth(a.Seal(0x1000, 0x4000), 0x4000, &out));
}

// --- temporal ids ---------------------------------------------------------------

TEST(TemporalTest, AllocateFreeLifecycle) {
  TemporalIdService svc;
  const uint64_t a = svc.Allocate();
  const uint64_t b = svc.Allocate();
  EXPECT_NE(a, b);
  EXPECT_TRUE(svc.IsLive(a));
  EXPECT_TRUE(svc.IsLive(b));
  svc.Free(a);
  EXPECT_FALSE(svc.IsLive(a));
  EXPECT_TRUE(svc.IsLive(b));
}

TEST(TemporalTest, StaticIdIsAlwaysLive) {
  TemporalIdService svc;
  EXPECT_TRUE(svc.IsLive(TemporalIdService::kStaticId));
  EXPECT_FALSE(svc.Free(TemporalIdService::kStaticId));  // rejected, not a no-op
  EXPECT_TRUE(svc.IsLive(TemporalIdService::kStaticId));
  EXPECT_EQ(svc.invalid_free_count(), 1u);
}

// Regression: Free silently accepted double frees and frees of kStaticId —
// CETS-style checking requires dead ids to stay dead and bad frees to be
// surfaced, not ignored.
TEST(TemporalTest, DoubleFreeIsDetected) {
  TemporalIdService svc;
  const uint64_t id = svc.Allocate();
  EXPECT_TRUE(svc.Free(id));
  EXPECT_EQ(svc.invalid_free_count(), 0u);
  EXPECT_FALSE(svc.Free(id));  // double free
  EXPECT_EQ(svc.invalid_free_count(), 1u);
  EXPECT_FALSE(svc.IsLive(id));
  EXPECT_FALSE(svc.Free(12345));  // never allocated
  EXPECT_EQ(svc.invalid_free_count(), 2u);
}

// Externally minted ids (the VM's per-thread namespaces) register as live
// exactly once; re-registering a live or freed id is counted as an error.
TEST(TemporalTest, RegisterLifecycle) {
  TemporalIdService svc;
  const uint64_t id = (7ull << 48) | 1;
  EXPECT_TRUE(svc.Register(id));
  EXPECT_TRUE(svc.IsLive(id));
  EXPECT_FALSE(svc.Register(id));  // duplicate
  EXPECT_EQ(svc.invalid_free_count(), 1u);
  EXPECT_TRUE(svc.Free(id));
  EXPECT_FALSE(svc.IsLive(id));
  EXPECT_FALSE(svc.Register(TemporalIdService::kStaticId));  // reserved
  EXPECT_EQ(svc.invalid_free_count(), 2u);
}

TEST(TemporalTest, IdsAreNeverReused) {
  TemporalIdService svc;
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = svc.Allocate();
    EXPECT_TRUE(seen.insert(id).second);
    if (i % 3 == 0) {
      svc.Free(id);
    }
  }
}

}  // namespace
}  // namespace cpi::runtime
