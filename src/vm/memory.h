// Sparse byte-addressable memory with page permissions.
//
// One instance backs the regular region (Mu), another the safe stacks (the
// byte-addressable part of Ms; the safe pointer store keeps its own storage).
// Loads/stores of unmapped addresses fault, exactly like touching an unmapped
// page on real hardware — this is what turns wild attacker guesses under
// information-hiding isolation into crashes (§3.2.3).
//
// Mappings are a short sorted list of page extents, each with one
// writability: the read-only and writable globals, one per heap arena, one
// per stack. Mapping a range edits that list the way mprotect splits and
// merges VMAs, so it allocates nothing and costs the same for a page as for
// a 4 MiB stack. A page gets a slot — in a node-stable hash map, with a
// copy of its writability — on its first access, and 4 KiB of bytes on its
// first write; a run pays only for the pages it touches. The materialised
// pages are owned by one per-memory list, the slots point into it.
#ifndef CPI_SRC_VM_MEMORY_H_
#define CPI_SRC_VM_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace cpi::vm {

enum class MemFault {
  kNone = 0,
  kUnmapped,
  kReadOnly,
};

class ByteMemory {
 public:
  static constexpr uint64_t kPageBytes = 4096;

  // Makes [start, start+size) accessible; the range must not wrap past
  // 2^64. Pages materialise lazily, zero-filled. A zero-size range maps
  // nothing. Remapping is mprotect-like: every page the (page-rounded) range
  // touches takes the new writability, the previous permission does not
  // linger.
  void MapRange(uint64_t start, uint64_t size, bool writable);

  bool IsMapped(uint64_t addr) const { return Translate(addr).bytes != nullptr; }
  bool IsWritable(uint64_t addr) const { return Translate(addr).writable; }

  // Scalar accesses. Single-page ones (virtually all of them: the VM
  // reads/writes 1-8 byte scalars) take the inline fast path;
  // page-straddling accesses fall back to the page loop in memory.cc.
  MemFault Read(uint64_t addr, void* out, uint64_t size) const {
    if ((addr & (kPageBytes - 1)) + size <= kPageBytes) {
      const PageRef& page = Translate(addr);
      if (page.bytes == nullptr) {
        return MemFault::kUnmapped;
      }
      const uint8_t* bytes = *page.bytes == nullptr ? kZeroPage : *page.bytes;
      CopyScalar(out, bytes + (addr & (kPageBytes - 1)), size);
      return MemFault::kNone;
    }
    return ReadSlow(addr, out, size);
  }
  MemFault Write(uint64_t addr, const void* data, uint64_t size) {
    if ((addr & (kPageBytes - 1)) + size <= kPageBytes) {
      const PageRef& page = Translate(addr);
      if (page.bytes == nullptr) {
        return MemFault::kUnmapped;
      }
      if (!page.writable) {
        return MemFault::kReadOnly;
      }
      CopyScalar(PageBytes(*page.bytes) + (addr & (kPageBytes - 1)), data, size);
      return MemFault::kNone;
    }
    return WriteSlow(addr, data, size);
  }

  // Page runs: the library calls (memcpy, strlen, ...) move bytes one run
  // at a time, a run being the longest stretch that stays on one page of
  // every operand. A view points at `addr`'s byte and is valid up to the end
  // of its page. ReadView is null when the page is unmapped (a page never
  // written reads from a shared zero page); WriteView is null when the page
  // is unmapped or read-only, and materialises it otherwise. A null view
  // sends the caller back to the byte path, so a faulting transfer traps at
  // the same byte, with the same message, as a byte loop would. The VM
  // charges the moved bytes a cache line at a time (Machine::ChargeChunked).
  const uint8_t* ReadView(uint64_t addr) const {
    const PageRef& page = Translate(addr);
    if (page.bytes == nullptr) {
      return nullptr;
    }
    const uint8_t* bytes = *page.bytes == nullptr ? kZeroPage : *page.bytes;
    return bytes + (addr & (kPageBytes - 1));
  }
  uint8_t* WriteView(uint64_t addr) {
    const PageRef& page = Translate(addr);
    if (page.bytes == nullptr || !page.writable) {
      return nullptr;
    }
    return PageBytes(*page.bytes) + (addr & (kPageBytes - 1));
  }
  // Bytes from `addr` to the end of its page.
  static uint64_t PageRest(uint64_t addr) { return kPageBytes - (addr & (kPageBytes - 1)); }

  MemFault ReadU64(uint64_t addr, uint64_t* out) const { return Read(addr, out, 8); }
  MemFault WriteU64(uint64_t addr, uint64_t value) { return Write(addr, &value, 8); }
  MemFault ReadByte(uint64_t addr, uint8_t* out) const { return Read(addr, out, 1); }
  MemFault WriteByte(uint64_t addr, uint8_t value) { return Write(addr, &value, 1); }

  // Raw write ignoring the read-only bit — used by the loader to place
  // constant data, never by program execution. A page it touches that was
  // not mapped becomes mapped read-only.
  void LoaderWrite(uint64_t addr, const void* data, uint64_t size);

  uint64_t mapped_bytes() const { return mapped_pages_ * kPageBytes; }

  // Fault injection (vm::FaultPlan, kOomPageAlloc): after `countdown` more
  // page materialisations succeed, the next one throws SimulatedOom. The VM
  // catches it and reports the run as crashed; the harness asserts the host
  // survives. One-shot: the failure disarms itself after firing. Extents and
  // slots are bookkeeping, not pages, and never consume the countdown.
  void ArmAllocFailure(uint64_t countdown) { alloc_failure_countdown_ = countdown; }

 private:
  // A page slot: null until the page is first written, then a page owned
  // by pages_.
  using PageSlot = uint8_t*;
  static const uint8_t kZeroPage[kPageBytes];

  // A mapped page accessed so far: its slot and its extent's writability,
  // which MapRange keeps current, so a translation needs one lookup.
  struct SlotEntry {
    PageSlot bytes;
    bool writable;
  };

  // Pages [first, last), all mapped with one writability.
  struct Extent {
    uint64_t first;
    uint64_t last;
    bool writable;
  };

  // One page's translation: its byte slot (null when the page is unmapped)
  // and whether it is writable.
  struct PageRef {
    PageSlot* bytes = nullptr;
    bool writable = false;
  };

  // A copy of 1, 2, 4 or 8 bytes is a fixed-size copy (one load and one
  // store), not a call into the library memcpy.
  static void CopyScalar(void* dst, const void* src, uint64_t size) {
    switch (size) {
      case 1:
        std::memcpy(dst, src, 1);
        break;
      case 2:
        std::memcpy(dst, src, 2);
        break;
      case 4:
        std::memcpy(dst, src, 4);
        break;
      case 8:
        std::memcpy(dst, src, 8);
        break;
      default:
        std::memcpy(dst, src, size);
    }
  }

  const PageRef& Translate(uint64_t addr) const {
    const uint64_t id = addr / kPageBytes;
    if (id != cached_id_) {
      TranslateSlow(id);
    }
    return cached_page_;
  }
  void TranslateSlow(uint64_t id) const;
  // The extent holding page `id`, or null when the page is unmapped.
  const Extent* FindExtent(uint64_t id) const;
  uint8_t* PageBytes(PageSlot& slot) {
    if (slot == nullptr) {
      return MaterializePage(slot);
    }
    return slot;
  }
  // Allocates a zero-filled page into `slot`. When it throws (an armed
  // allocation failure, or a real one), `slot` stays null.
  uint8_t* MaterializePage(PageSlot& slot);
  MemFault ReadSlow(uint64_t addr, void* out, uint64_t size) const;
  MemFault WriteSlow(uint64_t addr, const void* data, uint64_t size);
  void InvalidateTranslationCache() const {
    cached_id_ = ~0ULL;
    cached_page_ = PageRef{};
  }

  // Sorted by page, disjoint; neighbours that touch have different
  // writability (equal ones are coalesced).
  std::vector<Extent> extents_;
  // Every mapped page accessed so far. Pages are never unmapped and the
  // map's nodes never move, so a slot pointer stays valid.
  mutable std::unordered_map<uint64_t, SlotEntry> slots_;
  // Every materialised page, in materialisation order; the slots point in.
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  uint64_t mapped_pages_ = 0;
  // Armed by ArmAllocFailure; kDisarmed means allocations always succeed.
  static constexpr uint64_t kAllocFailureDisarmed = ~0ULL;
  uint64_t alloc_failure_countdown_ = kAllocFailureDisarmed;
  // One-entry translation cache: program accesses hit the same page in
  // bursts, so most lookups skip the extent list and the slot map. The
  // cache is invalidated on every map, because that can change a page's
  // permissions. Purely a host-side speedup — no simulated cost depends on
  // it.
  mutable uint64_t cached_id_ = ~0ULL;
  mutable PageRef cached_page_;
};

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_MEMORY_H_
