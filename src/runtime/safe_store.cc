// The three safe-pointer-store organisations (§4).
#include "src/runtime/safe_store.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/support/check.h"
#include "src/support/oom.h"

namespace cpi::runtime {

namespace {

// Logical base of the safe region in the VM's address space; entry addresses
// synthesised below this base feed the cache model. The actual isolation of
// this region is enforced by construction (regular memory operations cannot
// form addresses into it; see src/vm/memory.h).
constexpr uint64_t kSafeStoreBase = 0x6000'0000'0000ULL;

uint64_t SlotOf(uint64_t addr) { return addr >> 3; }

// ---------------------------------------------------------------------------
// Sparse direct-mapped array. One entry per 8-byte slot of the regular
// region, reserved a superpage at a time on first touch — the "simple array
// relying on sparse address space support of the underlying OS" that §4
// found fastest (with superpages). Memory cost is highest: every touched
// superpage reserves entries for all of its slots. Like the OS's sparse
// pages, the host backs a superpage only where it is written: its entries
// are allocated one block (a regular-region page's worth of slots) at a
// time, while MemoryBytes() reports the modeled footprint of whole
// superpages.
class ArrayStore final : public SafePointerStore {
 public:
  static constexpr uint64_t kSlotsPerPage = 1 << 16;  // 2 MB superpage of entries
  static constexpr uint64_t kSlotsPerBlock = 512;     // one 4 KiB regular page

  StoreKind kind() const override { return StoreKind::kArray; }

  void Set(uint64_t addr, const SafeEntry& entry, TouchList* touched) override {
    const uint64_t slot = SlotOf(addr);
    SafeEntry& dst = EntryFor(slot);
    if (!dst.IsPresent() && entry.IsPresent()) {
      ++live_entries_;
    } else if (dst.IsPresent() && !entry.IsPresent()) {
      --live_entries_;
    }
    dst = entry;
    Touch(slot, touched);
  }

  SafeEntry Get(uint64_t addr, TouchList* touched) const override {
    const uint64_t slot = SlotOf(addr);
    Touch(slot, touched);
    const SafeEntry* e = FindEntry(slot);
    return e == nullptr ? SafeEntry{} : *e;
  }

  void Clear(uint64_t addr, TouchList* touched) override {
    const uint64_t slot = SlotOf(addr);
    Touch(slot, touched);
    SafeEntry* dst = FindEntry(slot);
    if (dst == nullptr) {
      return;
    }
    if (dst->IsPresent()) {
      --live_entries_;
    }
    *dst = SafeEntry{};
  }

  uint64_t MemoryBytes() const override {
    return pages_.size() * kSlotsPerPage * kSafeEntryBytes;
  }

  uint64_t EntryCount() const override { return live_entries_; }

  bool CorruptEntry(uint64_t which, uint64_t xor_mask) override {
    if (live_entries_ == 0 || xor_mask == 0) {
      return false;
    }
    // pages_ iterates in hash order; scan page ids sorted so the corrupted
    // entry is a deterministic function of (which, store contents). Within
    // a superpage, blocks and entries go in slot order.
    std::vector<uint64_t> ids;
    ids.reserve(pages_.size());
    for (const auto& [id, page] : pages_) {
      (void)page;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    uint64_t target = which % live_entries_;
    for (uint64_t id : ids) {
      for (auto& block : pages_[id]->blocks) {
        if (block == nullptr) {
          continue;
        }
        for (SafeEntry& e : block->entries) {
          if (!e.IsPresent()) {
            continue;
          }
          if (target-- == 0) {
            e.value ^= xor_mask;
            return true;
          }
        }
      }
    }
    return false;
  }

 private:
  struct Block {
    SafeEntry entries[kSlotsPerBlock];
  };
  struct Page {
    std::unique_ptr<Block> blocks[kSlotsPerPage / kSlotsPerBlock];
  };

  static void Touch(uint64_t slot, TouchList* touched) {
    if (touched != nullptr) {
      // Direct-mapped: exactly one safe-region access, at an address whose
      // locality mirrors the program's own access locality.
      touched->Add(kSafeStoreBase + slot * kSafeEntryBytes);
    }
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

  // The slot's entry, reserving its superpage (the one modeled growth
  // allocation) and backing its block as needed.
  SafeEntry& EntryFor(uint64_t slot) {
    auto it = pages_.find(slot / kSlotsPerPage);
    if (it == pages_.end()) {
      ConsumeGrowthAllocation();
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

// ---------------------------------------------------------------------------
// Two-level lookup table: a directory indexed by the high slot bits pointing
// at second-level tables — the layout Intel MPX uses for its bound tables
// (§4 "Future MPX-based implementation"). Each operation touches the
// directory and the table entry.
class TwoLevelStore final : public SafePointerStore {
 public:
  static constexpr uint64_t kSecondLevelSlots = 1 << 12;

  StoreKind kind() const override { return StoreKind::kTwoLevel; }

  void Set(uint64_t addr, const SafeEntry& entry, TouchList* touched) override {
    const uint64_t slot = SlotOf(addr);
    Touch(slot, touched);
    Table& table = GetTable(slot / kSecondLevelSlots);
    SafeEntry& dst = table.entries[slot % kSecondLevelSlots];
    if (!dst.IsPresent() && entry.IsPresent()) {
      ++live_entries_;
    } else if (dst.IsPresent() && !entry.IsPresent()) {
      --live_entries_;
    }
    dst = entry;
  }

  SafeEntry Get(uint64_t addr, TouchList* touched) const override {
    const uint64_t slot = SlotOf(addr);
    Touch(slot, touched);
    auto it = tables_.find(slot / kSecondLevelSlots);
    if (it == tables_.end()) {
      return SafeEntry{};
    }
    return it->second->entries[slot % kSecondLevelSlots];
  }

  void Clear(uint64_t addr, TouchList* touched) override {
    const uint64_t slot = SlotOf(addr);
    Touch(slot, touched);
    auto it = tables_.find(slot / kSecondLevelSlots);
    if (it == tables_.end()) {
      return;
    }
    SafeEntry& dst = it->second->entries[slot % kSecondLevelSlots];
    if (dst.IsPresent()) {
      --live_entries_;
    }
    dst = SafeEntry{};
  }

  uint64_t MemoryBytes() const override {
    if (tables_.empty()) {
      return 0;  // nothing materialised: a scheme that never stores pays nothing
    }
    // Directory (8 bytes per present table, rounded to a page) + tables.
    const uint64_t directory = 4096;
    return directory + tables_.size() * kSecondLevelSlots * kSafeEntryBytes;
  }

  uint64_t EntryCount() const override { return live_entries_; }

  bool CorruptEntry(uint64_t which, uint64_t xor_mask) override {
    if (live_entries_ == 0 || xor_mask == 0) {
      return false;
    }
    std::vector<uint64_t> ids;
    ids.reserve(tables_.size());
    for (const auto& [id, table] : tables_) {
      (void)table;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    uint64_t target = which % live_entries_;
    for (uint64_t id : ids) {
      for (SafeEntry& e : tables_[id]->entries) {
        if (!e.IsPresent()) {
          continue;
        }
        if (target-- == 0) {
          e.value ^= xor_mask;
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct Table {
    SafeEntry entries[kSecondLevelSlots];
  };

  static void Touch(uint64_t slot, TouchList* touched) {
    if (touched != nullptr) {
      const uint64_t dir_index = slot / kSecondLevelSlots;
      // Directory probe, then the entry in the second-level table.
      touched->Add(kSafeStoreBase + dir_index * 8);
      touched->Add(kSafeStoreBase + 0x1000'0000ULL + slot * kSafeEntryBytes);
    }
  }

  Table& GetTable(uint64_t table_id) {
    auto it = tables_.find(table_id);
    if (it == tables_.end()) {
      ConsumeGrowthAllocation();
      it = tables_.emplace(table_id, std::make_unique<Table>()).first;
    }
    return *it->second;
  }

  std::unordered_map<uint64_t, std::unique_ptr<Table>> tables_;
  uint64_t live_entries_ = 0;
};

// ---------------------------------------------------------------------------
// Open-addressing hash table with linear probing. Most memory-frugal (only
// live entries occupy space) but each operation costs one-plus-probes
// scattered safe-region touches, which is why §4 measured it slower than the
// array.
class HashStore final : public SafePointerStore {
 public:
  // `touch_bias` offsets every synthesised touch address; the sharded
  // wrapper gives each shard a disjoint bias so the cache model never
  // aliases two shards' independent probe sequences (slot indices are
  // per-table insertion history, unlike the array/two-level organisations
  // whose touch addresses are pure functions of the global slot).
  explicit HashStore(uint64_t touch_bias = 0) : touch_bias_(touch_bias) {}

  StoreKind kind() const override { return StoreKind::kHash; }

  // Pre-size to the smallest power-of-two table that holds `entries` live
  // entries below the rehash trigger.
  void Reserve(uint64_t entries) override {
    size_t target = kInitialSlots;
    while (NeedsGrowth(entries, target)) {
      target *= 2;
    }
    if (target > slots_.size()) {
      RehashTo(target);
    }
  }

  void Set(uint64_t addr, const SafeEntry& entry, TouchList* touched) override {
    if (!entry.IsPresent()) {
      Clear(addr, touched);
      return;
    }
    // The table materialises on first insertion, so an execution that never
    // stores a protected pointer reports zero resident safe-store memory.
    if (slots_.empty() || NeedsGrowth(live_entries_ + tombstones_, slots_.size())) {
      Rehash();
    }
    const uint64_t key = SlotOf(addr);
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

  SafeEntry Get(uint64_t addr, TouchList* touched) const override {
    if (slots_.empty()) {
      return SafeEntry{};
    }
    const uint64_t key = SlotOf(addr);
    uint64_t index = HashOf(key) & (slots_.size() - 1);
    for (;;) {
      const Slot& s = slots_[index];
      Touch(index, touched);
      if (s.state == SlotState::kEmpty) {
        return SafeEntry{};
      }
      if (s.state == SlotState::kLive && s.key == key) {
        return s.entry;
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  void Clear(uint64_t addr, TouchList* touched) override {
    if (slots_.empty()) {
      return;
    }
    const uint64_t key = SlotOf(addr);
    uint64_t index = HashOf(key) & (slots_.size() - 1);
    for (;;) {
      Slot& s = slots_[index];
      Touch(index, touched);
      if (s.state == SlotState::kEmpty) {
        return;
      }
      if (s.state == SlotState::kLive && s.key == key) {
        s.state = SlotState::kTombstone;
        --live_entries_;
        ++tombstones_;
        return;
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  uint64_t MemoryBytes() const override { return slots_.size() * (kSafeEntryBytes + 16); }

  uint64_t EntryCount() const override { return live_entries_; }

  bool CorruptEntry(uint64_t which, uint64_t xor_mask) override {
    if (live_entries_ == 0 || xor_mask == 0) {
      return false;
    }
    // slots_ is a flat vector: index order is already deterministic.
    uint64_t target = which % live_entries_;
    for (Slot& s : slots_) {
      if (s.state != SlotState::kLive) {
        continue;
      }
      if (target-- == 0) {
        s.entry.value ^= xor_mask;
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

  // The one load-factor rule (0.7, counting tombstones): shared by Set's
  // rehash trigger and Reserve's pre-sizing so they can never disagree.
  static bool NeedsGrowth(uint64_t occupied, size_t size) {
    return (occupied + 1) * 10 > size * 7;
  }

  static uint64_t Hash(uint64_t key) {
    // SplitMix64 finaliser: good avalanche for sequential addresses.
    uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
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

  void Rehash() { RehashTo(std::max(slots_.size() * 2, kInitialSlots)); }

  void RehashTo(size_t new_size) {
    ConsumeGrowthAllocation();
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    live_entries_ = 0;
    tombstones_ = 0;
    memo_key_ = ~0ULL;  // probe starts depend on the table size
    for (const Slot& s : old) {
      if (s.state == SlotState::kLive) {
        Set(s.key << 3, s.entry, nullptr);
      }
    }
  }

  std::vector<Slot> slots_;
  uint64_t live_entries_ = 0;
  uint64_t tombstones_ = 0;
  const uint64_t touch_bias_ = 0;
  mutable uint64_t memo_key_ = ~0ULL;
  mutable uint64_t memo_hash_ = 0;
};

// ---------------------------------------------------------------------------
// Sharded wrapper: per-thread write-local shards (§3.2.3 scaled out). Every
// key routes to exactly one of `count` private instances of the base
// organisation, so the shards partition the key space and never contend on
// shared structures — the mostly-lock-free design whose modeled cost the VM
// charges per shard crossing. State per key is identical at any shard count;
// only residency (per-shard pages/tables) and hash-probe neighbourhoods
// change, which is the same speed/memory trade-off §4 describes per
// organisation.
class ShardedStore final : public SafePointerStore {
 public:
  // Touch-address bias stride between hash shards: far larger than any
  // realistic table so shards' probe addresses never collide.
  static constexpr uint64_t kHashShardBias = 1ULL << 36;

  ShardedStore(StoreKind kind, uint32_t count, ShardFn shard_of)
      : kind_(kind), count_(count), shard_of_(shard_of) {
    shards_.reserve(count);
    for (uint32_t s = 0; s < count; ++s) {
      if (kind == StoreKind::kHash) {
        shards_.push_back(std::make_unique<HashStore>(s * kHashShardBias));
      } else {
        shards_.push_back(CreateSafeStore(kind));
      }
      // A global InjectAllocFailure must keep global-order semantics:
      // whichever shard grows next consumes the shared countdown.
      LinkGrowthFailure(*shards_.back(), *this);
    }
  }

  StoreKind kind() const override { return kind_; }
  uint32_t ShardCount() const override { return count_; }

  void Set(uint64_t addr, const SafeEntry& entry, TouchList* touched) override {
    ShardFor(addr).Set(addr, entry, touched);
  }
  SafeEntry Get(uint64_t addr, TouchList* touched) const override {
    return ShardFor(addr).Get(addr, touched);
  }
  void Clear(uint64_t addr, TouchList* touched) override {
    ShardFor(addr).Clear(addr, touched);
  }

  void Reserve(uint64_t entries) override {
    // Conservative: keys are not uniformly distributed over shards (routing
    // is by home region), so every shard pre-sizes for the full set.
    for (auto& s : shards_) {
      s->Reserve(entries);
    }
  }

  uint64_t MemoryBytes() const override {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s->MemoryBytes();
    }
    return total;
  }

  uint64_t EntryCount() const override {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s->EntryCount();
    }
    return total;
  }

  bool CorruptEntry(uint64_t which, uint64_t xor_mask) override {
    // Deterministic global order: shards in index order, each shard's own
    // organisation-specific order within.
    const uint64_t live = EntryCount();
    if (live == 0 || xor_mask == 0) {
      return false;
    }
    uint64_t target = which % live;
    for (auto& s : shards_) {
      const uint64_t n = s->EntryCount();
      if (target < n) {
        return s->CorruptEntry(target, xor_mask);
      }
      target -= n;
    }
    return false;
  }

  bool CorruptEntryInShard(uint32_t shard, uint64_t which, uint64_t xor_mask) override {
    CPI_CHECK(shard < count_);
    return shards_[shard]->CorruptEntry(which, xor_mask);
  }

  void InjectShardAllocFailure(uint32_t shard, uint64_t countdown) override {
    CPI_CHECK(shard < count_);
    // The shard's own countdown takes priority over the linked global one.
    shards_[shard]->InjectAllocFailure(countdown);
  }

 private:
  SafePointerStore& ShardFor(uint64_t addr) const {
    const uint32_t s = shard_of_(addr, count_);
    CPI_CHECK(s < count_);
    return *shards_[s];
  }

  const StoreKind kind_;
  const uint32_t count_;
  const ShardFn shard_of_;
  std::vector<std::unique_ptr<SafePointerStore>> shards_;
};

}  // namespace

void SafePointerStore::ConsumeGrowthAllocation() {
  if (alloc_failure_countdown_ != kAllocFailureDisarmed) {
    if (alloc_failure_countdown_ == 0) {
      alloc_failure_countdown_ = kAllocFailureDisarmed;
      throw SimulatedOom("safe pointer store growth failed");
    }
    --alloc_failure_countdown_;
    return;
  }
  if (linked_alloc_failure_ != nullptr && *linked_alloc_failure_ != kAllocFailureDisarmed) {
    if (*linked_alloc_failure_ == 0) {
      *linked_alloc_failure_ = kAllocFailureDisarmed;
      throw SimulatedOom("safe pointer store growth failed");
    }
    --*linked_alloc_failure_;
  }
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

std::unique_ptr<SafePointerStore> CreateSafeStore(StoreKind kind) {
  switch (kind) {
    case StoreKind::kArray:
      return std::make_unique<ArrayStore>();
    case StoreKind::kTwoLevel:
      return std::make_unique<TwoLevelStore>();
    case StoreKind::kHash:
      return std::make_unique<HashStore>();
  }
  CPI_UNREACHABLE();
}

std::unique_ptr<SafePointerStore> CreateSafeStore(StoreKind kind, uint32_t shards,
                                                  ShardFn shard_of) {
  if (shards <= 1) {
    return CreateSafeStore(kind);
  }
  CPI_CHECK(shard_of != nullptr);
  return std::make_unique<ShardedStore>(kind, shards, shard_of);
}

}  // namespace cpi::runtime
