#include "src/vm/memory.h"

#include <algorithm>
#include <cstring>

#include "src/support/oom.h"

namespace cpi::vm {

const uint8_t ByteMemory::kZeroPage[ByteMemory::kPageBytes] = {};

void ByteMemory::MapRange(uint64_t start, uint64_t size, bool writable) {
  if (size == 0) {
    // An empty range maps nothing. Without this guard an unaligned `start`
    // rounded `last` past `first` and silently mapped a full page,
    // inflating mapped_bytes() — and with it the §5.2 memory tables.
    return;
  }
  const uint64_t first = start / kPageBytes;
  const uint64_t last = (start + (size - 1)) / kPageBytes + 1;
  Extent mapped{first, last, writable};
  // Extents [lo, hi) overlap or touch the new one; the rest stay as they are.
  auto lo = std::lower_bound(extents_.begin(), extents_.end(), first,
                             [](const Extent& e, uint64_t page) { return e.last < page; });
  auto hi = std::upper_bound(lo, extents_.end(), last,
                             [](uint64_t page, const Extent& e) { return page < e.first; });
  if (hi - lo == 1 && lo->first <= first && last <= lo->last && lo->writable == writable) {
    return;  // already mapped so, e.g. a malloc inside a page its arena mapped
  }
  InvalidateTranslationCache();
  uint64_t overlap = 0;
  for (auto it = lo; it != hi; ++it) {
    const uint64_t from = std::max(it->first, first);
    const uint64_t to = std::min(it->last, last);
    if (to <= from) {
      continue;  // a neighbour that only touches the range
    }
    overlap += to - from;
    if (it->writable != writable) {
      // Only mapped pages have slots: those whose writability flips take
      // the new one.
      for (uint64_t id = from; id < to; ++id) {
        auto slot = slots_.find(id);
        if (slot != slots_.end()) {
          slot->second.writable = writable;
        }
      }
    }
  }
  mapped_pages_ += last - first - overlap;
  // Remap semantics: the most recent mapping wins, exactly like mprotect.
  // Only the first and last of [lo, hi) can reach past the new extent; the
  // parts that do keep their writability, merging into it when equal.
  Extent pieces[3] = {};
  size_t n = 0;
  if (lo != hi && lo->first < first) {
    if (lo->writable == writable) {
      mapped.first = lo->first;
    } else {
      pieces[n++] = Extent{lo->first, first, lo->writable};
    }
  }
  const Extent* tail = lo != hi && (hi - 1)->last > last ? &*(hi - 1) : nullptr;
  if (tail != nullptr && tail->writable == writable) {
    mapped.last = tail->last;
    tail = nullptr;
  }
  pieces[n++] = mapped;
  if (tail != nullptr) {
    pieces[n++] = Extent{last, tail->last, tail->writable};
  }
  // Overwrite [lo, hi) with the pieces, growing or shrinking it in place.
  const size_t at = static_cast<size_t>(lo - extents_.begin());
  const size_t replaced = static_cast<size_t>(hi - lo);
  if (n > replaced) {
    extents_.insert(hi, n - replaced, Extent{});
  } else {
    extents_.erase(lo + static_cast<std::ptrdiff_t>(n), hi);
  }
  std::copy(pieces, pieces + n, extents_.begin() + static_cast<std::ptrdiff_t>(at));
}

const ByteMemory::Extent* ByteMemory::FindExtent(uint64_t id) const {
  auto it = std::upper_bound(extents_.begin(), extents_.end(), id,
                             [](uint64_t page, const Extent& e) { return page < e.first; });
  if (it == extents_.begin() || (it - 1)->last <= id) {
    return nullptr;
  }
  return &*(it - 1);
}

void ByteMemory::TranslateSlow(uint64_t id) const {
  cached_id_ = id;
  cached_page_ = PageRef{};
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    const Extent* extent = FindExtent(id);
    if (extent == nullptr) {
      return;
    }
    it = slots_.emplace(id, SlotEntry{nullptr, extent->writable}).first;
  }
  cached_page_ = PageRef{&it->second.bytes, it->second.writable};
}

uint8_t* ByteMemory::MaterializePage(PageSlot& slot) {
  if (alloc_failure_countdown_ != kAllocFailureDisarmed) {
    if (alloc_failure_countdown_ == 0) {
      alloc_failure_countdown_ = kAllocFailureDisarmed;
      throw SimulatedOom("page materialisation failed");
    }
    --alloc_failure_countdown_;
  }
  pages_.push_back(std::make_unique<uint8_t[]>(kPageBytes));  // zero-filled
  slot = pages_.back().get();
  return slot;
}

MemFault ByteMemory::ReadSlow(uint64_t addr, void* out, uint64_t size) const {
  if (addr + (size - 1) < addr) {
    return MemFault::kUnmapped;  // the range wraps past the top of the address space
  }
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    const PageRef& page = Translate(a);
    if (page.bytes == nullptr) {
      return MemFault::kUnmapped;
    }
    const uint64_t in_page = a % kPageBytes;
    const uint64_t n = std::min(size - done, kPageBytes - in_page);
    const uint8_t* bytes = *page.bytes == nullptr ? kZeroPage : *page.bytes;
    std::memcpy(dst + done, bytes + in_page, n);
    done += n;
  }
  return MemFault::kNone;
}

MemFault ByteMemory::WriteSlow(uint64_t addr, const void* data, uint64_t size) {
  if (addr + (size - 1) < addr) {
    return MemFault::kUnmapped;  // the range wraps past the top of the address space
  }
  const uint8_t* src = static_cast<const uint8_t*>(data);
  // Validate the whole range first so partially-applied writes cannot occur.
  for (uint64_t a = addr / kPageBytes; a <= (addr + size - 1) / kPageBytes; ++a) {
    const PageRef& page = Translate(a * kPageBytes);
    if (page.bytes == nullptr) {
      return MemFault::kUnmapped;
    }
    if (!page.writable) {
      return MemFault::kReadOnly;
    }
  }
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    PageSlot& slot = *Translate(a).bytes;
    const uint64_t in_page = a % kPageBytes;
    const uint64_t n = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(slot) + in_page, src + done, n);
    done += n;
  }
  return MemFault::kNone;
}

void ByteMemory::LoaderWrite(uint64_t addr, const void* data, uint64_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    if (FindExtent(a / kPageBytes) == nullptr) {
      // A page the loader touches first is mapped read-only.
      MapRange(a - a % kPageBytes, kPageBytes, /*writable=*/false);
    }
    const uint64_t in_page = a % kPageBytes;
    const uint64_t n = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(*Translate(a).bytes) + in_page, src + done, n);
    done += n;
  }
}

}  // namespace cpi::vm
