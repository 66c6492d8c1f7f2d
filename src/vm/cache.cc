#include "src/vm/cache.h"

#include "src/support/check.h"

namespace cpi::vm {

namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint64_t Log2(uint64_t v) {
  uint64_t shift = 0;
  while ((1ULL << shift) < v) {
    ++shift;
  }
  return shift;
}

}  // namespace

CacheModel::CacheModel() : CacheModel(Config{}) {}

CacheModel::CacheModel(const Config& config) : config_(config) {
  CPI_CHECK(config_.line_bytes > 0 && config_.ways > 0);
  CPI_CHECK(IsPowerOfTwo(config_.line_bytes));
  num_sets_ = config_.size_bytes / (config_.line_bytes * config_.ways);
  CPI_CHECK(num_sets_ > 0 && IsPowerOfTwo(num_sets_));
  line_shift_ = Log2(config_.line_bytes);
  set_mask_ = num_sets_ - 1;
  lines_.assign(num_sets_ * config_.ways, Line{});
  set_tick_.assign(num_sets_, 0);
}

uint64_t CacheModel::Miss(Line* set_lines, uint64_t line_addr, uint64_t tick) {
  // Fill the way with the smallest tick: an invalid way (tick 0) if there is
  // one, else the least recently used. Ways are interchangeable, so which of
  // several invalid ways fills never changes a later hit or miss.
  uint64_t victim = 0;
  for (uint64_t w = 1; w < config_.ways && set_lines[victim].lru != 0; ++w) {
    if (set_lines[w].lru < set_lines[victim].lru) {
      victim = w;
    }
  }
  set_lines[victim] = Line{line_addr, tick};
  ++misses_;
  return config_.miss_cycles;
}

}  // namespace cpi::vm
