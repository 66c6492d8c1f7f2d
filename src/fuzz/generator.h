// Random well-typed IR program generator for the differential fuzzer.
//
// Generation is split in two so failing cases can be delta-debugged:
//
//   Plan plan = MakePlan(seed, options);   // all randomness happens here
//   auto module = Materialize(plan);       // pure function of the plan
//
// MakePlan draws every decision from the seeded Rng and records it as data (a
// handful of pool sizes plus a linear decision trace of PlannedOps).
// Materialize never consumes randomness: it interprets the trace
// deterministically, reducing raw fields modulo the relevant pool sizes. Any
// Plan — including one with ops deleted, fields zeroed, or counts shrunk by
// the minimizer, or one parsed from a hand-edited corpus file — materialises
// to a valid, verifying module.
//
// Generated programs are free of undefined behaviour *by construction* except
// for the explicitly requested hazard windows (GenOptions::hazards): stale
// reads of freed heap cells and double frees. Hazard behaviour is still
// deterministic and scheme-neutral under the default configuration (freed
// heap stays mapped; a double free is a deterministic crash in every scheme),
// which is what lets the differential executor compare hazardous programs
// across schemes too.
//
// Threaded programs (GenOptions::threads) are data-race-free by construction:
// workers touch only their own stack, their own heap arena, and pure leaf
// functions; every spawned thread is joined before main returns. This keeps
// counters identical at any scheduling quantum (tests/sched_test.cc's
// invariant), so the quantum sweep stays a strict counter-identity check.
#ifndef CPI_SRC_FUZZ_GENERATOR_H_
#define CPI_SRC_FUZZ_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/module.h"

namespace cpi::fuzz {

// One recorded generator decision. `kind` selects the grammar production
// (OpKind below, reduced modulo kNumOpKinds); a..d are raw draws that
// Materialize reduces modulo pool sizes, loop bounds, etc. — so the minimizer
// can zero them freely.
struct PlannedOp {
  uint8_t kind = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint32_t d = 0;
};

enum OpKind : uint8_t {
  kOpArith = 0,     // masked binary arithmetic between slots
  kOpDiv,           // division with a forced-nonzero divisor
  kOpTableCall,     // indirect call through the global fn-pointer table
  kOpTableRotate,   // copy one table entry over another (code-pointer store)
  kOpBoxCall,       // call through the heap box's fp field, mutate its data
  kOpAnyRoundTrip,  // void* universal-pointer load/bump/store
  kOpLoop,          // bounded loop accumulating into the global
  kOpSelect,        // conditional select between slots
  kOpCellAlloc,     // malloc a heap cell (re-alloc of a freed cell reuses
                    // the free list: the address-recycling window)
  kOpCellUse,       // read-modify-write a live cell
  kOpCellFree,      // free a live cell (stale pointer stays in its slot)
  kOpUafRead,       // hazard: read through a freed cell's stale pointer
  kOpDoubleFree,    // hazard: free a freed cell (deterministic crash)
  kOpNestedCall,    // call a mid-level function that calls leaves
  kOpStrTraffic,    // memset/strlen/strcpy/strcmp over global char buffers
  kOpMemCopy,       // memcpy between the char buffers + byte readback
  kOpSpawn,         // spawn a worker thread (tracked; all joined by exit)
  kOpJoin,          // join the oldest outstanding worker
  kOpYield,         // end the current scheduling quantum
  kOpSpawnShared,   // spawn the shared-reader worker: cross-shard traffic
                    // (reads a main-homed code-pointer cell; race-free)
  kOpWorkerChurn,   // spawn/join the shared reader twice back to back: the
                    // replacement inherits the retiree's homes under epoch
                    // ownership migration (Config::migrate)
  kNumOpKinds,
};

struct GenOptions {
  int min_ops = 12;
  int max_ops = 32;
  bool threads = true;
  bool hazards = false;
};

struct Plan {
  uint64_t seed = 0;  // provenance only; Materialize never reads it
  uint32_t num_slots = 4;
  uint32_t num_leaves = 4;   // acc-mutating leaves (main thread only)
  uint32_t num_pure = 2;     // pure leaves (callable from workers)
  uint32_t num_cells = 4;    // heap cell pool
  uint32_t num_workers = 0;  // worker function pool (0 = single-threaded)
  std::vector<PlannedOp> ops;
};

Plan MakePlan(uint64_t seed, const GenOptions& options = {});

// Deterministically builds the module a plan describes. The result always
// verifies (ir::IsValid); callers still run it through core::Compiler as
// usual.
std::unique_ptr<ir::Module> Materialize(const Plan& plan);

}  // namespace cpi::fuzz

#endif  // CPI_SRC_FUZZ_GENERATOR_H_
