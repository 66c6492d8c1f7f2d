// Set-associative L1 data-cache model.
//
// The cost model charges every memory access through this cache, which is
// what lets the safe stack reproduce the paper's locality result (§5.2: in 9
// of 19 SPEC benchmarks the safe stack *improved* performance because bulky
// arrays move away from the hot stack area).
#ifndef CPI_SRC_VM_CACHE_H_
#define CPI_SRC_VM_CACHE_H_

#include <cstdint>
#include <vector>

namespace cpi::vm {

class CacheModel {
 public:
  struct Config {
    uint64_t size_bytes = 32 * 1024;
    uint64_t line_bytes = 64;
    uint64_t ways = 8;
    uint64_t hit_cycles = 2;
    uint64_t miss_cycles = 24;
  };

  CacheModel();
  explicit CacheModel(const Config& config);

  // Returns the cycle cost of accessing `addr` and updates cache state.
  // Defined in the header so the execution loops can inline it — with tens
  // of millions of calls per benchmark cell this is the hottest leaf of the
  // whole cost model.
  uint64_t Access(uint64_t addr) { return AccessRepeated(addr, 1); }

  // `n` back-to-back accesses to `addr` (n >= 1), charged at once: the
  // first may miss, the other n - 1 hit, and the line ends with the LRU tick
  // the last of them leaves — exactly what n Access(addr) calls do. Lets a
  // bulk transfer charge a cache line once instead of once per word.
  __attribute__((always_inline)) uint64_t AccessRepeated(uint64_t addr, uint64_t n) {
    const uint64_t line_addr = addr >> line_shift_;
    const uint64_t set = line_addr & set_mask_;
    const uint64_t tick = set_tick_[set] += n;
    Line* set_lines = &lines_[set * config_.ways];

    for (uint64_t w = 0; w < config_.ways; ++w) {
      if (set_lines[w].tag == line_addr && set_lines[w].lru != 0) {
        set_lines[w].lru = tick;
        hits_ += n;
        return n * config_.hit_cycles;
      }
    }
    // Victim choice compares the other lines' ticks only, so filling with
    // the last tick picks the way the first access would have.
    hits_ += n - 1;
    return Miss(set_lines, line_addr, tick) + (n - 1) * config_.hit_cycles;
  }

  uint64_t line_bytes() const { return config_.line_bytes; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  // 16 bytes: a line is valid exactly when its tick is nonzero, since every
  // fill stores a set tick >= 1.
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;  // last-use tick; 0 = invalid
  };
  static_assert(sizeof(Line) == 16, "CacheModel::Line must stay 16 bytes");

  // Miss path: fill the LRU way. Out of line — misses are the rare case and
  // keeping the fill loop out of the inlined probe keeps the hot path small.
  uint64_t Miss(Line* set_lines, uint64_t line_addr, uint64_t tick);

  Config config_;
  uint64_t num_sets_;
  // Precomputed at construction (line size and set count are required to be
  // powers of two): every Access is then shift+mask, no division.
  uint64_t line_shift_;
  uint64_t set_mask_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Line> lines_;      // num_sets_ * ways
  // One LRU clock per set instead of a global tick: recency ordering within
  // a set (all that LRU replacement consults) is unchanged.
  std::vector<uint64_t> set_tick_;
};

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_CACHE_H_
