// Simulated address-space layout (Fig. 2).
//
//   regular region (attacker-writable through memory bugs):
//     code            [read/execute only, never writable]
//     ro globals      [read-only data: string constants, jump tables]
//     rw globals
//     heap
//     unsafe stacks   (the T' stacks of Fig. 2; the only stack when no
//                      SafeStack pass ran)
//   safe region (reachable only via intrinsics / compiler-generated frames):
//     safe pointer store
//     safe stacks
//
// The two regions are disjoint address ranges; no address pointing into the
// safe region is ever stored in the regular region (the leak-proof
// information-hiding argument of §3.2.3 — tests assert this invariant).
#ifndef CPI_SRC_VM_LAYOUT_H_
#define CPI_SRC_VM_LAYOUT_H_

#include <cstdint>

#include "src/support/rng.h"

namespace cpi::vm {

inline constexpr uint64_t kCodeBase = 0x0000'1000'0000ULL;
inline constexpr uint64_t kCodeStride = 16;  // one "entry point" per function
inline constexpr uint64_t kCodeLimit = 0x0000'1100'0000ULL;

inline constexpr uint64_t kRoGlobalBase = 0x0000'2000'0000ULL;
inline constexpr uint64_t kRwGlobalBase = 0x0000'3000'0000ULL;
inline constexpr uint64_t kHeapBase = 0x0000'4000'0000ULL;
inline constexpr uint64_t kHeapLimit = 0x0000'7000'0000ULL;

// The regular stack grows down from here (unsafe stack under SafeStack).
inline constexpr uint64_t kStackTop = 0x0000'7fff'f000ULL;
inline constexpr uint64_t kStackLimit = 0x0000'7000'0000ULL;  // lowest valid

// Everything at or above this base belongs to the safe region.
inline constexpr uint64_t kSafeRegionBase = 0x6000'0000'0000ULL;
// Safe stacks grow down from here.
inline constexpr uint64_t kSafeStackTop = 0x6f00'0000'0000ULL;

// --- simulated threads (vm::Scheduler) --------------------------------------
// Every simulated thread owns a private unsafe-stack region in regular
// memory and a private safe-stack region in the safe region (CPI's safe
// stacks are per-thread by design, §3.2.3/§3.2.4). Regions are strided down
// from the single-thread tops, so thread 0 — the main thread — keeps exactly
// the classic layout and single-threaded programs are laid out (and charged)
// byte-identically to the pre-scheduler VM. The stride exceeds the mapped
// region size, leaving an unmapped guard gap between consecutive stacks.
inline constexpr uint64_t kMaxThreads = 16;
inline constexpr uint64_t kStackRegionBytes = 4ULL << 20;        // mapped per stack
inline constexpr uint64_t kThreadStackStride = 0x0080'0000ULL;   // 8 MiB apart
// Spawned threads allocate from private heap arenas carved from the top of
// the heap range, so concurrent mallocs produce schedule-independent
// addresses (per-thread arenas, like production allocators). Thread 0 keeps
// growing from kHeapBase; its limit shrinks below the lowest spawned arena.
inline constexpr uint64_t kThreadHeapBytes = 0x0200'0000ULL;     // 32 MiB arena

inline constexpr uint64_t UnsafeStackTopFor(uint64_t tid) {
  return kStackTop - tid * kThreadStackStride;
}
inline constexpr uint64_t SafeStackTopFor(uint64_t tid) {
  return kSafeStackTop - tid * kThreadStackStride;
}
// The thread whose safe-stack region contains `addr`; kMaxThreads when the
// address falls outside every region (e.g. into a guard gap).
inline constexpr uint64_t SafeStackOwnerOf(uint64_t addr) {
  if (addr >= kSafeStackTop || addr < SafeStackTopFor(kMaxThreads - 1) - kStackRegionBytes) {
    return kMaxThreads;
  }
  const uint64_t tid = (kSafeStackTop - 1 - addr) / kThreadStackStride;
  return addr >= SafeStackTopFor(tid) - kStackRegionBytes ? tid : kMaxThreads;
}

// --- safe-region sharding ---------------------------------------------------
// The sharded safe pointer store partitions its keys (regular-region
// addresses of protected pointers) by the thread whose memory region the
// address belongs to — its "home". Per-thread unsafe stacks and heap arenas
// home to their owning tid; everything else (globals, thread 0's heap, code)
// homes to the main thread. The mapping is a pure function of the address
// and the static layout above, so it is identical across engines, quanta and
// schedules — which is what lets the contention model charge per-shard costs
// without breaking the bit-identical-counters contract.
inline constexpr uint64_t HomeOf(uint64_t addr) {
  // Safe-stack slice of Ms: owned by the stack's thread.
  if (const uint64_t owner = SafeStackOwnerOf(addr); owner < kMaxThreads) {
    return owner;
  }
  // Unsafe stacks stride down from kStackTop; guard gaps home to thread 0.
  if (addr < kStackTop && addr >= UnsafeStackTopFor(kMaxThreads - 1) - kStackRegionBytes) {
    const uint64_t tid = (kStackTop - 1 - addr) / kThreadStackStride;
    if (addr >= UnsafeStackTopFor(tid) - kStackRegionBytes) {
      return tid;
    }
    return 0;
  }
  // Spawned threads' heap arenas are carved down from kHeapLimit; arena t
  // (t >= 1) is [kHeapLimit - t*kThreadHeapBytes, kHeapLimit - (t-1)*...).
  if (addr < kHeapLimit && addr >= kHeapLimit - (kMaxThreads - 1) * kThreadHeapBytes) {
    return (kHeapLimit - 1 - addr) / kThreadHeapBytes + 1;
  }
  return 0;
}

// The shard a safe-store key lives in. Homes are hashed (SplitMix64) onto
// shards rather than taken mod `count`: with only kMaxThreads static homes a
// modulo mapping would keep every shard shared until count >= kMaxThreads,
// hiding the contention decline the shard ablation exists to show.
inline constexpr uint64_t ShardHash(uint64_t home) {
  return SplitMix64(home + 0x9e3779b97f4a7c15ULL);
}
inline constexpr uint32_t ShardOfAddress(uint64_t addr, uint32_t count) {
  if (count <= 1) {
    return 0;
  }
  return static_cast<uint32_t>(ShardHash(HomeOf(addr)) % count);
}

// Return tokens: values the VM uses to represent saved return addresses in
// stack memory. Deliberately a distinct range so a corrupted token is
// distinguishable from a code address (jumping to one or the other behaves
// differently, as on real hardware).
inline constexpr uint64_t kRetTokenBase = 0x0000'0800'0000'0000ULL;

inline bool IsInSafeRegion(uint64_t addr) { return addr >= kSafeRegionBase; }
inline bool IsCodeAddress(uint64_t addr) { return addr >= kCodeBase && addr < kCodeLimit; }
inline bool IsRetToken(uint64_t addr) {
  return addr >= kRetTokenBase && addr < kRetTokenBase + 0x0100'0000'0000ULL;
}

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_LAYOUT_H_
