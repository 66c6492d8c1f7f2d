// Golden observations of the safe pointer store: a fixed-seed stream of
// Set/Get/Clear/CopyRange/MoveRange/ClearRange operations (unaligned
// addresses, overlapping and misaligned ranges) replayed on every
// organisation at 1 and 8 shards. A refactor of src/runtime/safe_store that
// claims to change nothing must keep every line of tests/golden/store-ops.txt.
//
// Lines, per `<organisation> s<shards>`:
//   ops <n> <fnv>         FNV-1a 64 over every touched safe-region address,
//                         every Get result and MemoryBytes()/EntryCount()
//                         after each of the first n operations
//   corrupt <k> <addr>    the key whose entry CorruptEntry(k) flips after
//                         the whole stream (`none` when it returns false)
//   corrupt-shard <s> <k> <addr>   the same for CorruptEntryInShard(s, k)
//   oom <c> <ops>         the operation indices at which the stream throws
//                         SimulatedOom after InjectAllocFailure(c)
//   oom-shard <s> <c> <ops>  the same after InjectShardAllocFailure(s, c)
//   oom-both <s> <ops>    the same with InjectAllocFailure(2) and
//                         InjectShardAllocFailure(s, 0) both armed
// After an intended change to store behaviour, rewrite the file with
//   CPI_UPDATE_STORE_GOLDEN=1 ./cpi_tests --gtest_filter='StoreGoldenTest.*'
// and say in the change which lines moved and why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/safe_store.h"
#include "src/support/oom.h"
#include "src/support/rng.h"
#include "src/vm/layout.h"

namespace cpi::runtime {
namespace {

// Key windows spread over the homes of several threads (so eight shards all
// see traffic) and across array-superpage and two-level-table boundaries.
constexpr uint64_t kWindowBytes = 16 << 10;
constexpr uint64_t kMargin = 512;  // ranges may run this far past a window
constexpr uint64_t kArena = vm::kThreadHeapBytes;
const uint64_t kWindows[] = {
    vm::kHeapBase + 0x6000,           vm::kHeapBase + 0x7e000,
    vm::kRwGlobalBase + 0x6000,       vm::kHeapLimit - 1 * kArena + 0x6000,
    vm::kHeapLimit - 2 * kArena + 0x6000, vm::kHeapLimit - 5 * kArena + 0x7e000,
    vm::kHeapLimit - 6 * kArena + 0x6000, vm::kHeapLimit - 9 * kArena + 0x6000,
    vm::UnsafeStackTopFor(0) - 0x10000,   vm::UnsafeStackTopFor(3) - 0x10000,
    vm::UnsafeStackTopFor(12) - 0x10000,
};

enum class OpKind { kSet, kGet, kClear, kCopy, kMove, kClearRange };

struct Op {
  OpKind kind;
  uint64_t dst = 0;
  uint64_t src = 0;
  uint64_t size = 0;
  SafeEntry entry;
};

std::vector<Op> MakeOps(int count) {
  Rng rng(0x5afe);
  auto address = [&rng] {
    const uint64_t base = kWindows[rng.NextBelow(std::size(kWindows))];
    return base + kMargin / 2 + rng.NextBelow(kWindowBytes - kMargin);
  };
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) {
    Op op;
    const uint64_t roll = rng.NextBelow(100);
    op.dst = address();
    if (roll < 40) {
      op.kind = OpKind::kSet;
      const uint64_t shape = rng.NextBelow(20);
      if (shape == 0) {
        op.entry = SafeEntry{};  // a Set of an absent entry clears the slot
      } else if (shape < 10) {
        op.entry = SafeEntry::Code(vm::kCodeBase + rng.NextBelow(4096) * vm::kCodeStride);
      } else {
        const uint64_t lower = rng.NextU64() & 0xffff'fff0ULL;
        op.entry = SafeEntry::Data(rng.NextU64(), lower, lower + 8 + rng.NextBelow(256),
                                   rng.NextBelow(64));
      }
    } else if (roll < 65) {
      op.kind = OpKind::kGet;
    } else if (roll < 75) {
      op.kind = OpKind::kClear;
    } else {
      op.kind = roll < 85 ? OpKind::kCopy : roll < 95 ? OpKind::kMove : OpKind::kClearRange;
      op.size = 1 + rng.NextBelow(128);
      if (rng.Chance(1, 2)) {
        // Overlapping, forward or backward, misaligned one time in four.
        op.src = op.dst + 8 * static_cast<uint64_t>(rng.NextInRange(-6, 6)) +
                 (rng.Chance(1, 4) ? rng.NextBelow(8) : 0);
      } else {
        op.src = address();
        if (!rng.Chance(1, 4)) {
          op.src = (op.src & ~7ULL) | (op.dst & 7);  // same alignment: entries travel
        }
      }
    }
    ops.push_back(op);
  }
  return ops;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

uint64_t MixEntry(uint64_t h, const SafeEntry& e) {
  h = Mix(h, e.value);
  h = Mix(h, e.lower);
  h = Mix(h, e.upper);
  h = Mix(h, e.temporal_id);
  return Mix(h, static_cast<uint64_t>(e.kind));
}

// Applies `op`, folding what it observes into `h`.
uint64_t Apply(SafePointerStore& store, const Op& op, uint64_t h) {
  TouchList t;
  switch (op.kind) {
    case OpKind::kSet:
      store.Set(op.dst, op.entry, &t);
      break;
    case OpKind::kGet:
      h = MixEntry(h, store.Get(op.dst, &t));
      break;
    case OpKind::kClear:
      store.Clear(op.dst, &t);
      break;
    case OpKind::kCopy:
      store.CopyRange(op.dst, op.src, op.size);
      break;
    case OpKind::kMove:
      store.MoveRange(op.dst, op.src, op.size);
      break;
    case OpKind::kClearRange:
      store.ClearRange(op.dst, op.size);
      break;
  }
  h = Mix(h, static_cast<uint64_t>(t.count));
  for (int i = 0; i < t.count; ++i) {
    h = Mix(h, t.addrs[i]);
  }
  h = Mix(h, store.MemoryBytes());
  return Mix(h, store.EntryCount());
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, v);
  return buf;
}

// Every slot a stream can write, ascending.
std::vector<uint64_t> AllSlots() {
  std::vector<uint64_t> slots;
  for (uint64_t base : kWindows) {
    for (uint64_t a = base - kMargin; a < base + kWindowBytes + kMargin; a += 8) {
      slots.push_back(a);
    }
  }
  return slots;
}

// The slot whose value `corrupt` flips, or "none"; `corrupt` is applied a
// second time to undo the flip (XOR), so the store is left as it was.
template <typename Corrupt>
std::string FlippedSlot(SafePointerStore& store, const std::vector<uint64_t>& slots,
                        Corrupt corrupt) {
  std::vector<uint64_t> before;
  for (uint64_t a : slots) {
    before.push_back(store.Get(a, nullptr).value);
  }
  if (!corrupt()) {
    return "none";
  }
  std::string flipped = "?";
  int changed = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (store.Get(slots[i], nullptr).value != before[i]) {
      flipped = Hex(slots[i]);
      ++changed;
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_TRUE(corrupt());
  return flipped;
}

// Indices of the operations that throw SimulatedOom (the stream runs on
// after each), comma-separated, or "none".
std::string OomIndices(SafePointerStore& store, const std::vector<Op>& ops) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    try {
      Apply(store, ops[i], 0);
    } catch (const SimulatedOom&) {
      out += (out.empty() ? "" : ",") + std::to_string(i);
    }
  }
  return out.empty() ? "none" : out;
}

std::map<std::string, std::string> ComputeLines() {
  constexpr int kOps = 4000;
  constexpr uint64_t kMask = 0xf0;
  const std::vector<Op> ops = MakeOps(kOps);
  const std::vector<uint64_t> slots = AllSlots();
  std::map<std::string, std::string> lines;
  for (StoreKind kind : {StoreKind::kArray, StoreKind::kTwoLevel, StoreKind::kHash}) {
    for (uint32_t shards : {1u, 8u}) {
      const std::string prefix =
          std::string(StoreKindName(kind)) + " s" + std::to_string(shards) + " ";
      auto fresh = [&] { return CreateSafeStore(kind, shards, &vm::ShardOfAddress); };

      auto store = fresh();
      uint64_t h = kFnvBasis;
      for (int i = 0; i < kOps; ++i) {
        h = Apply(*store, ops[i], h);
        if ((i + 1) % 1000 == 0) {
          lines[prefix + "ops " + std::to_string(i + 1)] = Hex(h);
        }
      }
      for (uint64_t k : {0ull, 1ull, 17ull, 500ull, 99999ull}) {
        lines[prefix + "corrupt " + std::to_string(k)] =
            FlippedSlot(*store, slots, [&] { return store->CorruptEntry(k, kMask); });
      }
      for (uint32_t s = 0; s < shards; ++s) {
        for (uint64_t k : {0ull, 3ull, 250ull}) {
          lines[prefix + "corrupt-shard " + std::to_string(s) + " " + std::to_string(k)] =
              FlippedSlot(*store, slots,
                          [&] { return store->CorruptEntryInShard(s, k, kMask); });
        }
      }

      for (uint64_t c : {0ull, 1ull, 2ull, 4ull, 7ull}) {
        auto armed = fresh();
        armed->InjectAllocFailure(c);
        lines[prefix + "oom " + std::to_string(c)] = OomIndices(*armed, ops);
      }
      for (uint32_t s = 0; s < shards; ++s) {
        for (uint64_t c : {0ull, 1ull}) {
          auto armed = fresh();
          armed->InjectShardAllocFailure(s, c);
          lines[prefix + "oom-shard " + std::to_string(s) + " " + std::to_string(c)] =
              OomIndices(*armed, ops);
        }
        if (shards > 1) {
          // Both armed: the shard's own countdown goes first, then the
          // store-wide one.
          auto armed = fresh();
          armed->InjectAllocFailure(2);
          armed->InjectShardAllocFailure(s, 0);
          lines[prefix + "oom-both " + std::to_string(s)] = OomIndices(*armed, ops);
        }
      }
    }
  }
  return lines;
}

const std::filesystem::path kGolden =
    std::filesystem::path(CPI_SOURCE_DIR) / "tests" / "golden" / "store-ops.txt";

TEST(StoreGoldenTest, OperationStreamMatchesGoldenForEveryOrganisationAndShardCount) {
  const std::map<std::string, std::string> actual = ComputeLines();
  if (std::getenv("CPI_UPDATE_STORE_GOLDEN") != nullptr) {
    std::ofstream out(kGolden);
    for (const auto& [key, value] : actual) {
      out << key << " " << value << "\n";
    }
    GTEST_SKIP() << "rewrote " << kGolden;
  }
  std::ifstream in(kGolden);
  ASSERT_TRUE(in.good()) << kGolden;
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    expected[line.substr(0, sp)] = line.substr(sp + 1);
  }
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [key, value] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no observation for golden line '" << key << "'";
    EXPECT_EQ(it->second, value) << "store behaviour changed: " << key;
  }
}

}  // namespace
}  // namespace cpi::runtime
