// Run-identity assertions shared by the differential tests: two runs that
// must agree are compared field by field, so a failure names the field.
#ifndef CPI_TESTS_RUN_IDENTITY_H_
#define CPI_TESTS_RUN_IDENTITY_H_

#include <gtest/gtest.h>

#include <string>

#include "src/vm/machine.h"

namespace cpi::test {

// A new Counters or MemoryFootprint field must be compared below too.
static_assert(sizeof(vm::Counters) == 13 * sizeof(uint64_t),
              "compare the new Counters field in ExpectSameBehaviour or ExpectIdentical");
static_assert(sizeof(vm::MemoryFootprint) == 4 * sizeof(uint64_t),
              "compare the new MemoryFootprint field in ExpectIdentical");

// What the program computed, plus every counter the cost model cannot move:
// for comparisons across settings that re-price accesses (shard count,
// ownership model), where cycles, cache state, contended ops, migrations and
// the memory footprint differ by design.
inline void ExpectSameBehaviour(const vm::RunResult& a, const vm::RunResult& b,
                                const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.violation, b.violation) << label;
  EXPECT_EQ(a.message, b.message) << label;
  EXPECT_EQ(a.exit_code, b.exit_code) << label;
  EXPECT_EQ(a.output, b.output) << label;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << label;

  const vm::Counters& ac = a.counters;
  const vm::Counters& bc = b.counters;
  EXPECT_EQ(ac.instructions, bc.instructions) << label;
  EXPECT_EQ(ac.mem_accesses, bc.mem_accesses) << label;
  EXPECT_EQ(ac.safe_store_ops, bc.safe_store_ops) << label;
  EXPECT_EQ(ac.seal_ops, bc.seal_ops) << label;
  EXPECT_EQ(ac.checks, bc.checks) << label;
  EXPECT_EQ(ac.calls, bc.calls) << label;
  EXPECT_EQ(ac.hijack_transfers, bc.hijack_transfers) << label;
  EXPECT_EQ(ac.thread_spawns, bc.thread_spawns) << label;
}

// Full bit-identity: every RunResult field.
inline void ExpectIdentical(const vm::RunResult& a, const vm::RunResult& b,
                            const std::string& label) {
  ExpectSameBehaviour(a, b, label);

  const vm::Counters& ac = a.counters;
  const vm::Counters& bc = b.counters;
  EXPECT_EQ(ac.cycles, bc.cycles) << label;
  EXPECT_EQ(ac.store_contended_ops, bc.store_contended_ops) << label;
  EXPECT_EQ(ac.shard_migrations, bc.shard_migrations) << label;
  EXPECT_EQ(ac.cache_hits, bc.cache_hits) << label;
  EXPECT_EQ(ac.cache_misses, bc.cache_misses) << label;

  const vm::MemoryFootprint& am = a.memory;
  const vm::MemoryFootprint& bm = b.memory;
  EXPECT_EQ(am.regular_bytes, bm.regular_bytes) << label;
  EXPECT_EQ(am.safe_store_bytes, bm.safe_store_bytes) << label;
  EXPECT_EQ(am.safe_stack_bytes, bm.safe_stack_bytes) << label;
  EXPECT_EQ(am.safe_store_entries, bm.safe_store_entries) << label;
}

}  // namespace cpi::test

#endif  // CPI_TESTS_RUN_IDENTITY_H_
