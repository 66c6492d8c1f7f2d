// The safe pointer store: maps the regular-region address of a sensitive
// pointer to its protected value and metadata (§3.2.2, Fig. 2).
//
// Three organisations are implemented, mirroring §4 ("Runtime support
// library"): a simple sparse array, a two-level lookup table, and a hash
// table. They differ in lookup cost (number of safe-region memory touches per
// operation) and in resident memory — which is exactly the speed/memory
// trade-off §5.2 reports.
//
// A store is always `shards` (>= 1) private instances of one organisation:
// §3.2.3's isolated safe region split into per-thread write-local shards.
// Every key routes to exactly one shard, so the shards partition the key
// space; one shard is the whole store. Entry state, bulk-transfer semantics
// and (for the array and two-level organisations) touch addresses are pure
// functions of the key, so behaviour is the same at every shard count.
//
// Every operation reports which safe-region addresses it touched so the VM's
// cache model can charge realistic costs.
#ifndef CPI_SRC_RUNTIME_SAFE_STORE_H_
#define CPI_SRC_RUNTIME_SAFE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/metadata.h"

namespace cpi::runtime {

// Safe-region addresses touched by one store operation (bounded: the deepest
// organisation touches a directory, a table, and the entry).
struct TouchList {
  static constexpr int kMax = 4;
  uint64_t addrs[kMax];
  int count = 0;

  void Add(uint64_t addr) {
    if (count < kMax) {
      addrs[count++] = addr;
    }
  }
};

enum class StoreKind {
  kArray,     // sparse direct-mapped array (fastest; most memory)
  kTwoLevel,  // directory + second-level tables (MPX-style layout)
  kHash,      // open-addressing hash table (least memory; probe cost)
};

const char* StoreKindName(StoreKind kind);

// The shard routing function: maps a safe-store key (a regular-region
// address) to its shard. Supplied by the VM layer (vm::ShardOfAddress), so
// the runtime stays layout-agnostic. Must be pure.
using ShardFn = uint32_t (*)(uint64_t addr, uint32_t shard_count);

class SafePointerStore final {
 public:
  // `shards` instances of `kind`; `shard_of` routes keys when there is more
  // than one.
  SafePointerStore(StoreKind kind, uint32_t shards, ShardFn shard_of);
  ~SafePointerStore();

  // Associates `entry` with the regular-region address `addr` (8-byte
  // aligned slots; unaligned addresses are rounded down, as pointer-sized
  // writes are).
  void Set(uint64_t addr, const SafeEntry& entry, TouchList* touched);

  // Returns the entry at `addr` (kind == kNone when absent).
  SafeEntry Get(uint64_t addr, TouchList* touched) const;

  // Removes any entry at `addr` (used when a regular value overwrites a
  // universal-pointer slot).
  void Clear(uint64_t addr, TouchList* touched);

  // Bulk helpers for the checked memory-transfer variants (§3.2.2).
  // CopyRange interleaves each destination slot's Clear with its Set so the
  // pair shares one probe-start hash (the hash organisation memoises it).
  void ClearRange(uint64_t addr, uint64_t size);
  void CopyRange(uint64_t dst, uint64_t src, uint64_t size);
  void MoveRange(uint64_t dst, uint64_t src, uint64_t size);

  // Resident safe-region memory in bytes (the §5.2 memory-overhead metric).
  uint64_t MemoryBytes() const;

  // Number of live entries (diagnostics / tests).
  uint64_t EntryCount() const;

  uint32_t ShardCount() const;

  // Fault injection (vm::FaultPlan). Each arms a one-shot simulated OOM:
  // after `countdown` more growth allocations (array pages, second-level
  // tables, hash rehashes) succeed, the next one throws SimulatedOom — the
  // VM catches it and reports the run as crashed. One rule at every shard
  // count: a growing shard consumes its own countdown while that is armed
  // (InjectShardAllocFailure, vm::FaultKind::kOomShard, which contains the
  // failure to that shard), otherwise the store-wide one
  // (InjectAllocFailure), which growth of any shard consumes in execution
  // order.
  void InjectAllocFailure(uint64_t countdown) { oom_countdown_ = countdown; }
  void InjectShardAllocFailure(uint32_t shard, uint64_t countdown);

  // XORs `xor_mask` into the protected value of the (`which` mod live)-th
  // live entry: shards in index order, each shard's entries in its
  // organisation's order (ascending slot for the array and two-level
  // organisations, table order for the hash). Models an attacker corrupting
  // the metadata region itself (§3.2.3's secrecy assumption): subsequent
  // checks must fire on the forged bounds/value rather than trust it.
  // Returns false when the store holds no entries.
  bool CorruptEntry(uint64_t which, uint64_t xor_mask);

  // Per-shard variant (vm::FaultKind::kCorruptShard): corrupts a live entry
  // of the given shard only, proving containment — entries homed to other
  // shards are untouched. Returns false when that shard holds no entries.
  bool CorruptEntryInShard(uint32_t shard, uint64_t which, uint64_t xor_mask);

 private:
  struct Shard;  // one instance of the organisation plus its own countdown

  uint32_t ShardOf(uint64_t addr) const;
  bool CorruptLiveEntry(uint32_t first, uint32_t last, uint64_t which, uint64_t xor_mask);

  static constexpr uint64_t kOomDisarmed = ~0ULL;
  const ShardFn shard_of_;
  std::vector<Shard> shards_;
  uint64_t oom_countdown_ = kOomDisarmed;
};

std::unique_ptr<SafePointerStore> CreateSafeStore(StoreKind kind, uint32_t shards = 1,
                                                  ShardFn shard_of = nullptr);

}  // namespace cpi::runtime

#endif  // CPI_SRC_RUNTIME_SAFE_STORE_H_
