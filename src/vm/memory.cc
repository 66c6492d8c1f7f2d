#include "src/vm/memory.h"

#include <algorithm>
#include <cstring>

#include "src/support/oom.h"

namespace cpi::vm {

namespace {

// Bits [begin, end) of one 64-bit bitmap word, 0 <= begin < end <= 64.
uint64_t BitRange(uint64_t begin, uint64_t end) {
  const uint64_t high = end == 64 ? ~0ULL : (1ULL << end) - 1;
  return high & ~((1ULL << begin) - 1);
}

}  // namespace

const uint8_t ByteMemory::kZeroPage[ByteMemory::kPageBytes] = {};

ByteMemory::Chunk& ByteMemory::ChunkFor(uint64_t chunk_id) {
  std::unique_ptr<Chunk>& chunk = chunks_[chunk_id];
  if (chunk == nullptr) {
    chunk = std::make_unique<Chunk>();
  }
  return *chunk;
}

void ByteMemory::MapRange(uint64_t start, uint64_t size, bool writable) {
  if (size == 0) {
    // An empty range maps nothing. Without this guard an unaligned `start`
    // rounded `last` past `first` and silently mapped a full page,
    // inflating mapped_bytes() — and with it the §5.2 memory tables.
    return;
  }
  InvalidateTranslationCache();
  const uint64_t first = start / kPageBytes;
  const uint64_t last = (start + size + kPageBytes - 1) / kPageBytes;
  // One bitmap word (up to 64 pages) per step; a step never crosses a chunk,
  // so the directory is consulted once per chunk, not once per word.
  Chunk* current = nullptr;
  for (uint64_t p = first; p < last;) {
    const uint64_t in_chunk = p % kChunkPages;
    const uint64_t word = in_chunk / 64;
    const uint64_t bit = in_chunk % 64;
    const uint64_t n = std::min(last - p, 64 - bit);
    const uint64_t mask = BitRange(bit, bit + n);
    if (current == nullptr || in_chunk == 0) {
      current = &ChunkFor(p / kChunkPages);
    }
    Chunk& chunk = *current;
    mapped_pages_ += static_cast<uint64_t>(__builtin_popcountll(mask & ~chunk.mapped[word]));
    chunk.mapped[word] |= mask;
    // Remap semantics: the most recent mapping wins, exactly like mprotect.
    // The old or-merge could never drop writability, so a page remapped
    // read-only (code/constant data) stayed silently writable.
    if (writable) {
      chunk.writable[word] |= mask;
    } else {
      chunk.writable[word] &= ~mask;
    }
    p += n;
  }
}

void ByteMemory::TranslateSlow(uint64_t id) const {
  cached_id_ = id;
  cached_page_ = PageRef{};
  auto it = chunks_.find(id / kChunkPages);
  if (it == chunks_.end()) {
    return;
  }
  Chunk& chunk = *it->second;
  const uint64_t slot = id % kChunkPages;
  const uint64_t bit = 1ULL << (slot % 64);
  if ((chunk.mapped[slot / 64] & bit) != 0) {
    cached_page_ = PageRef{&chunk.pages[slot], (chunk.writable[slot / 64] & bit) != 0};
  }
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
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    const PageRef& page = Translate(a);
    if (page.bytes == nullptr) {
      return MemFault::kUnmapped;
    }
    const uint64_t in_page = a % kPageBytes;
    const uint64_t chunk = std::min(size - done, kPageBytes - in_page);
    if (*page.bytes == nullptr) {
      std::memset(dst + done, 0, chunk);
    } else {
      std::memcpy(dst + done, *page.bytes + in_page, chunk);
    }
    done += chunk;
  }
  return MemFault::kNone;
}

MemFault ByteMemory::WriteSlow(uint64_t addr, const void* data, uint64_t size) {
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
    const uint64_t chunk = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(slot) + in_page, src + done, chunk);
    done += chunk;
  }
  return MemFault::kNone;
}

void ByteMemory::LoaderWrite(uint64_t addr, const void* data, uint64_t size) {
  InvalidateTranslationCache();
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    const uint64_t id = a / kPageBytes;
    const uint64_t slot = id % kChunkPages;
    const uint64_t bit = 1ULL << (slot % 64);
    Chunk& chunk = ChunkFor(id / kChunkPages);
    if ((chunk.mapped[slot / 64] & bit) == 0) {
      // A page the loader touches first is mapped read-only.
      chunk.mapped[slot / 64] |= bit;
      ++mapped_pages_;
    }
    const uint64_t in_page = a % kPageBytes;
    const uint64_t n = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(chunk.pages[slot]) + in_page, src + done, n);
    done += n;
  }
}

}  // namespace cpi::vm
