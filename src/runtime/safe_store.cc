// The three safe-pointer-store organisations (§4) and the sharded store
// built from them.
#include "src/runtime/safe_store.h"

#include <algorithm>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/support/check.h"
#include "src/support/oom.h"
#include "src/support/rng.h"

namespace cpi::runtime {

namespace {

// Logical base of the safe region in the VM's address space; entry addresses
// synthesised below this base feed the cache model. The actual isolation of
// this region is enforced by construction (regular memory operations cannot
// form addresses into it; see src/vm/memory.h).
constexpr uint64_t kSafeStoreBase = 0x6000'0000'0000ULL;

uint64_t SlotOf(uint64_t addr) { return addr >> 3; }

// One growth allocation (array page, second-level table, hash rehash) of a
// shard, against the shard's own countdown while that is armed, otherwise
// the store's (see SafePointerStore::InjectAllocFailure).
struct Growth {
  uint64_t& shard_countdown;
  uint64_t& store_countdown;

  void Allocate() const {
    constexpr uint64_t kDisarmed = ~0ULL;
    uint64_t& countdown = shard_countdown != kDisarmed ? shard_countdown : store_countdown;
    if (countdown == kDisarmed) {
      return;
    }
    if (countdown == 0) {
      countdown = kDisarmed;
      throw SimulatedOom("safe pointer store growth failed");
    }
    --countdown;
  }
};

// ---------------------------------------------------------------------------
// Direct-mapped paged organisation: one entry per 8-byte slot of the regular
// region, reserved a page at a time on first write. Two geometries:
//  - the sparse array (65,536-slot superpages, no directory): the "simple
//    array relying on sparse address space support of the underlying OS"
//    that §4 found fastest (with superpages). One touch per operation, at an
//    address whose locality mirrors the program's own; memory cost is
//    highest, as every touched superpage reserves all of its slots.
//  - the two-level lookup table (4,096-slot tables under a 4 KiB directory):
//    the layout Intel MPX uses for its bound tables (§4 "Future MPX-based
//    implementation"). Two touches: the directory, then the entry.
// Reserving a page is the modeled growth allocation, and MemoryBytes()
// reports whole pages. Like the OS's sparse pages, the host backs a page only
// where it is written: entries are allocated one block (a regular-region
// page's worth of slots) at a time.
template <uint64_t kSlotsPerPage, bool kDirectory>
class PagedStore {
 public:
  void Set(uint64_t slot, const SafeEntry& entry, TouchList* touched, const Growth& growth) {
    Touch(slot, touched);
    SafeEntry& dst = EntryFor(slot, growth);
    live_entries_ = live_entries_ - dst.IsPresent() + entry.IsPresent();
    dst = entry;
  }

  SafeEntry Get(uint64_t slot, TouchList* touched) const {
    Touch(slot, touched);
    const SafeEntry* e = FindEntry(slot);
    return e == nullptr ? SafeEntry{} : *e;
  }

  void Clear(uint64_t slot, TouchList* touched) {
    Touch(slot, touched);
    if (SafeEntry* dst = FindEntry(slot)) {
      live_entries_ -= dst->IsPresent();
      *dst = SafeEntry{};
    }
  }

  uint64_t MemoryBytes() const {
    if (pages_.empty()) {
      return 0;  // nothing materialised: a scheme that never stores pays nothing
    }
    return (kDirectory ? 4096 : 0) + pages_.size() * kSlotsPerPage * kSafeEntryBytes;
  }

  uint64_t EntryCount() const { return live_entries_; }

  // Calls `fn` on each live entry in ascending slot order until it returns
  // true; returns whether it did.
  template <typename Fn>
  bool ForEachLive(Fn fn) {
    // pages_ iterates in hash order; walk page ids sorted.
    std::vector<uint64_t> ids;
    ids.reserve(pages_.size());
    for (const auto& [id, page] : pages_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids) {
      for (auto& block : pages_[id]->blocks) {
        if (block == nullptr) {
          continue;
        }
        for (SafeEntry& e : block->entries) {
          if (e.IsPresent() && fn(e)) {
            return true;
          }
        }
      }
    }
    return false;
  }

 private:
  static constexpr uint64_t kSlotsPerBlock = 512;  // one 4 KiB regular page
  static_assert(kSlotsPerPage % kSlotsPerBlock == 0);
  static constexpr uint64_t kEntryBase = kSafeStoreBase + (kDirectory ? 0x1000'0000ULL : 0);

  struct Block {
    SafeEntry entries[kSlotsPerBlock];
  };
  struct Page {
    std::unique_ptr<Block> blocks[kSlotsPerPage / kSlotsPerBlock];
  };

  static void Touch(uint64_t slot, TouchList* touched) {
    if (touched == nullptr) {
      return;
    }
    if constexpr (kDirectory) {
      touched->Add(kSafeStoreBase + slot / kSlotsPerPage * 8);
    }
    touched->Add(kEntryBase + slot * kSafeEntryBytes);
  }

  // The slot's entry, or null when its block was never written.
  SafeEntry* FindEntry(uint64_t slot) const {
    auto it = pages_.find(slot / kSlotsPerPage);
    if (it == pages_.end()) {
      return nullptr;
    }
    Block* block = it->second->blocks[slot % kSlotsPerPage / kSlotsPerBlock].get();
    return block == nullptr ? nullptr : &block->entries[slot % kSlotsPerBlock];
  }

  // The slot's entry, reserving its page (the one modeled growth
  // allocation) and backing its block as needed.
  SafeEntry& EntryFor(uint64_t slot, const Growth& growth) {
    auto it = pages_.find(slot / kSlotsPerPage);
    if (it == pages_.end()) {
      growth.Allocate();
      it = pages_.emplace(slot / kSlotsPerPage, std::make_unique<Page>()).first;
    }
    std::unique_ptr<Block>& block = it->second->blocks[slot % kSlotsPerPage / kSlotsPerBlock];
    if (block == nullptr) {
      block = std::make_unique<Block>();
    }
    return block->entries[slot % kSlotsPerBlock];
  }

  std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
  uint64_t live_entries_ = 0;
};

using ArrayStore = PagedStore<1 << 16, /*kDirectory=*/false>;    // 2 MiB superpages of entries
using TwoLevelStore = PagedStore<1 << 12, /*kDirectory=*/true>;  // 128 KiB tables

// ---------------------------------------------------------------------------
// Open-addressing hash table with linear probing. Most memory-frugal (only
// live entries occupy space) but each operation costs one-plus-probes
// scattered safe-region touches, which is why §4 measured it slower than the
// array.
class HashStore {
 public:
  // `touch_bias` offsets every synthesised touch address; each shard gets a
  // disjoint bias so the cache model never aliases two shards' independent
  // probe sequences (slot indices are per-table insertion history, unlike
  // the paged organisations' touch addresses, which are pure functions of
  // the key).
  explicit HashStore(uint64_t touch_bias) : touch_bias_(touch_bias) {}

  void Set(uint64_t key, const SafeEntry& entry, TouchList* touched, const Growth& growth) {
    if (!entry.IsPresent()) {
      Clear(key, touched);
      return;
    }
    // The table materialises on first insertion, so an execution that never
    // stores a protected pointer reports zero resident safe-store memory.
    if (slots_.empty() || NeedsGrowth(live_entries_ + tombstones_, slots_.size())) {
      RehashTo(std::max(slots_.size() * 2, kInitialSlots), growth);
    }
    Insert(key, entry, touched);
  }

  SafeEntry Get(uint64_t key, TouchList* touched) const {
    const size_t index = Find(key, touched);
    return index == slots_.size() ? SafeEntry{} : slots_[index].entry;
  }

  void Clear(uint64_t key, TouchList* touched) {
    const size_t index = Find(key, touched);
    if (index == slots_.size()) {
      return;
    }
    slots_[index].state = SlotState::kTombstone;
    --live_entries_;
    ++tombstones_;
  }

  uint64_t MemoryBytes() const { return slots_.size() * (kSafeEntryBytes + 16); }

  uint64_t EntryCount() const { return live_entries_; }

  // Calls `fn` on each live entry in table order until it returns true;
  // returns whether it did.
  template <typename Fn>
  bool ForEachLive(Fn fn) {
    for (Slot& s : slots_) {
      if (s.state == SlotState::kLive && fn(s.entry)) {
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr size_t kInitialSlots = 1024;  // power of two

  enum class SlotState : uint8_t { kEmpty, kLive, kTombstone };
  struct Slot {
    SlotState state = SlotState::kEmpty;
    uint64_t key = 0;
    SafeEntry entry;
  };

  // The load-factor rule of Set's rehash trigger (0.7, counting tombstones).
  static bool NeedsGrowth(uint64_t occupied, size_t size) {
    return (occupied + 1) * 10 > size * 7;
  }

  static uint64_t Hash(uint64_t key) {
    // SplitMix64 finaliser: good avalanche for sequential addresses.
    return SplitMix64(key + 0x9e3779b97f4a7c15ULL);
  }

  // Probe-start hash with a one-entry memo: CopyRange/MoveRange snapshots
  // issue Clear/Set (and Get/Set) pairs against the same slot key back to
  // back, so the second operation reuses the first one's hash.
  uint64_t HashOf(uint64_t key) const {
    if (key != memo_key_) {
      memo_key_ = key;
      memo_hash_ = Hash(key);
    }
    return memo_hash_;
  }

  void Touch(uint64_t index, TouchList* touched) const {
    if (touched != nullptr) {
      touched->Add(kSafeStoreBase + 0x2000'0000ULL + touch_bias_ +
                   index * (kSafeEntryBytes + 16));
    }
  }

  // The index of `key`'s live slot, or slots_.size() when it has none.
  size_t Find(uint64_t key, TouchList* touched) const {
    if (slots_.empty()) {
      return 0;
    }
    uint64_t index = HashOf(key) & (slots_.size() - 1);
    for (;;) {
      const Slot& s = slots_[index];
      Touch(index, touched);
      if (s.state == SlotState::kEmpty) {
        return slots_.size();
      }
      if (s.state == SlotState::kLive && s.key == key) {
        return index;
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  // Stores a present entry into a table with room for it.
  void Insert(uint64_t key, const SafeEntry& entry, TouchList* touched) {
    uint64_t index = HashOf(key) & (slots_.size() - 1);
    // Probe for an existing live entry first; a key may live beyond a
    // tombstone, so insertion must not stop at the first reusable slot.
    size_t reusable = slots_.size();
    for (;;) {
      Slot& s = slots_[index];
      Touch(index, touched);
      if (s.state == SlotState::kLive && s.key == key) {
        s.entry = entry;
        return;
      }
      if (s.state == SlotState::kTombstone && reusable == slots_.size()) {
        reusable = index;
      }
      if (s.state == SlotState::kEmpty) {
        Slot& dst = reusable != slots_.size() ? slots_[reusable] : s;
        if (dst.state == SlotState::kTombstone) {
          --tombstones_;
        }
        dst.state = SlotState::kLive;
        dst.key = key;
        dst.entry = entry;
        ++live_entries_;
        return;
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  void RehashTo(size_t new_size, const Growth& growth) {
    growth.Allocate();
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    live_entries_ = 0;
    tombstones_ = 0;
    memo_key_ = ~0ULL;  // probe starts depend on the table size
    for (const Slot& s : old) {
      if (s.state == SlotState::kLive) {
        Insert(s.key, s.entry, nullptr);
      }
    }
  }

  std::vector<Slot> slots_;
  uint64_t live_entries_ = 0;
  uint64_t tombstones_ = 0;
  uint64_t touch_bias_ = 0;
  mutable uint64_t memo_key_ = ~0ULL;
  mutable uint64_t memo_hash_ = 0;
};

// Touch-address bias stride between hash shards: far larger than any
// realistic table so shards' probe addresses never collide.
constexpr uint64_t kHashShardBias = 1ULL << 36;

}  // namespace

struct SafePointerStore::Shard {
  std::variant<ArrayStore, TwoLevelStore, HashStore> org;
  uint64_t oom_countdown = kOomDisarmed;
};

SafePointerStore::SafePointerStore(StoreKind kind, uint32_t shards, ShardFn shard_of)
    : shard_of_(shard_of) {
  CPI_CHECK(shards <= 1 || shard_of_ != nullptr);
  for (uint32_t s = 0; s < std::max<uint32_t>(shards, 1); ++s) {
    switch (kind) {
      case StoreKind::kArray:
        shards_.push_back({ArrayStore{}});
        break;
      case StoreKind::kTwoLevel:
        shards_.push_back({TwoLevelStore{}});
        break;
      case StoreKind::kHash:
        shards_.push_back({HashStore(s * kHashShardBias)});
        break;
    }
  }
}

SafePointerStore::~SafePointerStore() = default;

uint32_t SafePointerStore::ShardCount() const { return static_cast<uint32_t>(shards_.size()); }

uint32_t SafePointerStore::ShardOf(uint64_t addr) const {
  if (shards_.size() == 1) {
    return 0;
  }
  const uint32_t s = shard_of_(addr, ShardCount());
  CPI_CHECK(s < shards_.size());
  return s;
}

void SafePointerStore::Set(uint64_t addr, const SafeEntry& entry, TouchList* touched) {
  Shard& shard = shards_[ShardOf(addr)];
  const Growth growth{shard.oom_countdown, oom_countdown_};
  std::visit([&](auto& org) { org.Set(SlotOf(addr), entry, touched, growth); }, shard.org);
}

SafeEntry SafePointerStore::Get(uint64_t addr, TouchList* touched) const {
  return std::visit([&](const auto& org) { return org.Get(SlotOf(addr), touched); },
                    shards_[ShardOf(addr)].org);
}

void SafePointerStore::Clear(uint64_t addr, TouchList* touched) {
  std::visit([&](auto& org) { org.Clear(SlotOf(addr), touched); }, shards_[ShardOf(addr)].org);
}

uint64_t SafePointerStore::MemoryBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += std::visit([](const auto& org) { return org.MemoryBytes(); }, shard.org);
  }
  return total;
}

uint64_t SafePointerStore::EntryCount() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += std::visit([](const auto& org) { return org.EntryCount(); }, shard.org);
  }
  return total;
}

void SafePointerStore::InjectShardAllocFailure(uint32_t shard, uint64_t countdown) {
  CPI_CHECK(shard < shards_.size());
  shards_[shard].oom_countdown = countdown;
}

bool SafePointerStore::CorruptEntry(uint64_t which, uint64_t xor_mask) {
  return CorruptLiveEntry(0, ShardCount(), which, xor_mask);
}

bool SafePointerStore::CorruptEntryInShard(uint32_t shard, uint64_t which, uint64_t xor_mask) {
  CPI_CHECK(shard < shards_.size());
  return CorruptLiveEntry(shard, shard + 1, which, xor_mask);
}

// Corrupts the (`which` mod live)-th live entry of shards [first, last).
bool SafePointerStore::CorruptLiveEntry(uint32_t first, uint32_t last, uint64_t which,
                                        uint64_t xor_mask) {
  uint64_t live = 0;
  for (uint32_t s = first; s < last; ++s) {
    live += std::visit([](const auto& org) { return org.EntryCount(); }, shards_[s].org);
  }
  if (live == 0 || xor_mask == 0) {
    return false;
  }
  uint64_t target = which % live;
  const auto hit = [&](SafeEntry& e) {
    if (target-- != 0) {
      return false;
    }
    e.value ^= xor_mask;
    return true;
  };
  for (uint32_t s = first; s < last; ++s) {
    if (std::visit([&](auto& org) { return org.ForEachLive(hit); }, shards_[s].org)) {
      return true;
    }
  }
  return false;
}

void SafePointerStore::ClearRange(uint64_t addr, uint64_t size) {
  const uint64_t first = addr & ~7ULL;
  for (uint64_t a = first; a < addr + size; a += 8) {
    Clear(a, nullptr);
  }
}

void SafePointerStore::CopyRange(uint64_t dst, uint64_t src, uint64_t size) {
  // Snapshot the source entries before clearing the destination, so
  // overlapping ranges (forward or backward) transfer every entry intact.
  // Entries travel only between identically-aligned slots; a byte-shifted
  // copy of a pointer is no longer a pointer, so those entries are dropped.
  std::vector<std::pair<uint64_t, SafeEntry>> entries;  // ascending dst addresses
  if (((dst ^ src) & 7) == 0) {
    const uint64_t first = (src + 7) & ~7ULL;
    for (uint64_t a = first; a + 8 <= src + size; a += 8) {
      SafeEntry e = Get(a, nullptr);
      if (e.IsPresent()) {
        entries.emplace_back(dst + (a - src), e);
      }
    }
  }
  // Walk the destination once, writing each snapshotted entry immediately
  // after its slot's Clear: the Clear/Set pair probes the same key, so the
  // hash organisation's probe-start memo serves the second operation. The
  // final key->entry mapping is order-independent; hash-store slot indices
  // (and with them future touch addresses) can differ from the historical
  // clear-all-then-set-all order under probe collisions, which the committed
  // BENCH baselines account for.
  size_t next = 0;
  const uint64_t first = dst & ~7ULL;
  for (uint64_t a = first; a < dst + size; a += 8) {
    Clear(a, nullptr);
    if (next < entries.size() && entries[next].first == a) {
      Set(a, entries[next].second, nullptr);
      ++next;
    }
  }
  CPI_CHECK(next == entries.size());
}

void SafePointerStore::MoveRange(uint64_t dst, uint64_t src, uint64_t size) {
  if (dst == src) {
    return;
  }
  CopyRange(dst, src, size);
}

const char* StoreKindName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kArray:
      return "array";
    case StoreKind::kTwoLevel:
      return "two-level";
    case StoreKind::kHash:
      return "hashtable";
  }
  CPI_UNREACHABLE();
}

std::unique_ptr<SafePointerStore> CreateSafeStore(StoreKind kind, uint32_t shards,
                                                  ShardFn shard_of) {
  return std::make_unique<SafePointerStore>(kind, shards, shard_of);
}

}  // namespace cpi::runtime
