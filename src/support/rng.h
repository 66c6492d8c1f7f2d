// Deterministic pseudo-random number generation.
//
// All workload generators, attack drivers and property tests draw randomness
// from this generator so that every experiment in the repository is exactly
// reproducible from a seed. The implementation is xoshiro256** seeded via
// SplitMix64, which is the standard, well-distributed, allocation-free choice.
#ifndef CPI_SRC_SUPPORT_RNG_H_
#define CPI_SRC_SUPPORT_RNG_H_

#include <cstdint>

#include "src/support/check.h"

namespace cpi {

// The SplitMix64 output finaliser: a bijective, well-avalanched 64-bit mix.
// Callers add their own pre-mix (a Weyl increment, a key) before it.
constexpr uint64_t SplitMix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      word = SplitMix64(x);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound) {
    CPI_CHECK(bound != 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform value in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    CPI_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return NextBelow(den) < num; }

  double NextDouble() {  // in [0, 1)
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace cpi

#endif  // CPI_SRC_SUPPORT_RNG_H_
