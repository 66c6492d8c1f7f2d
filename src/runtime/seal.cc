#include "src/runtime/seal.h"

#include "src/support/rng.h"

namespace cpi::runtime {

uint16_t PointerSealer::Mac(uint64_t value, uint64_t location) const {
  // SplitMix64 finaliser over the keyed (value, location) tuple: cheap, well
  // avalanched, and — like a real MAC — unforgeable without key_ for the
  // purposes of the simulation's deterministic attackers.
  const uint64_t z =
      SplitMix64((value & kValueMask) ^ (location * 0x9e3779b97f4a7c15ULL) ^ key_);
  return static_cast<uint16_t>(z % 0xffff) + 1;  // in [1, 0xffff]
}

uint64_t DeriveSealKey(uint64_t seed) { return Rng(seed ^ 0x5ea1'5ea1ULL).NextU64(); }

}  // namespace cpi::runtime
