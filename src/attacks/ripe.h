// RIPE-like control-flow hijack attack matrix (§5.1).
//
// The RIPE benchmark sweeps attack dimensions — where the vulnerable buffer
// lives, how the overflow is performed, which code pointer is targeted — and
// counts which combinations still hijack control under a given protection.
// This module regenerates that matrix: every AttackSpec is instantiated as a
// vulnerable IR program plus an input payload crafted (like a real exploit)
// from the program's known memory layout, then executed under the protection
// configuration being evaluated.
//
// Outcomes:
//   kHijacked  — the gadget ran (its marker appears in the output)
//   kPrevented — a protection mechanism aborted the program
//   kCrashed   — the attack caused a fault without reaching the gadget
//   kNoEffect  — the program finished normally (the corruption was silently
//                neutralised, e.g. by CPI's safe store; the paper's default
//                non-debug mode prevents silently)
// Everything except kHijacked counts as a prevented attack.
#ifndef CPI_SRC_ATTACKS_RIPE_H_
#define CPI_SRC_ATTACKS_RIPE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/levee.h"

namespace cpi::attacks {

inline constexpr uint64_t kGadgetMarker = 0xDEAD10CCULL;    // gadget executed
inline constexpr uint64_t kSurvivedMarker = 0x5AFEULL;      // program finished

enum class Technique {
  kDirectOverflow,  // unbounded strcpy-style copy of attacker bytes
  kIndexedWrite,    // loop writing attacker bytes with attacker-chosen length
  kArbitraryWrite,  // format-string-style writes to attacker-chosen addresses
};

enum class Location {
  kStack,   // vulnerable buffer in a stack frame
  kHeap,    // vulnerable buffer inside a heap object
  kGlobal,  // vulnerable buffer in a writable global
};

enum class Target {
  kReturnAddress,    // saved return address of the vulnerable frame
  kFunctionPointer,  // a plain function-pointer variable
  kStructFuncPtr,    // function pointer embedded in a struct after the buffer
  kLongjmpBuffer,    // jmp_buf-style structure holding a code pointer
  kVtablePointer,    // C++-style object: overwrite its vtable pointer
  // Cross-thread only: the word where the victim thread's saved return
  // address would live on its *safe* stack — a direct probe of the safe
  // region's isolation under concurrent mutation (§3.2.3).
  kSafeStackSlot,
};

const char* TechniqueName(Technique t);
const char* LocationName(Location l);
const char* TargetName(Target t);

struct AttackSpec {
  Technique technique;
  Location location;
  Target target;
  // When true, the program also takes the gadget's address somewhere benign,
  // putting it into coarse-grained CFI's valid target set — the CFI-bypass
  // variants of [19, 15, 9].
  bool gadget_address_taken = false;
  // Cross-thread variant: thread A (the attacker) corrupts thread B's (the
  // victim's) saved return address while B is parked in the scheduler. The
  // victim stack layout is deterministic, so the attacker derives the slot
  // address the way real exploits derive thread-stack locations from known
  // mmap behaviour.
  bool cross_thread = false;

  std::string Name() const;
};

// All valid combinations (invalid ones, e.g. arbitrary-write against a stack
// return address, are skipped the way RIPE skips impossible exploits).
// Single-threaded rows only; the historical matrix is frozen so recorded
// tables stay byte-identical.
std::vector<AttackSpec> GenerateAttackMatrix();

// The cross-thread rows: thread A overwrites thread B's saved return
// address on the regular stack (hijacks vanilla, neutralised by per-thread
// safe stacks / sealed tokens) and probes the slot's safe-stack home (faults
// on the isolation mechanism under every configuration).
std::vector<AttackSpec> GenerateCrossThreadMatrix();

enum class AttackOutcome { kHijacked, kPrevented, kCrashed, kNoEffect };

const char* AttackOutcomeName(AttackOutcome o);

struct AttackResult {
  AttackSpec spec;
  AttackOutcome outcome = AttackOutcome::kNoEffect;
  vm::RunStatus status = vm::RunStatus::kOk;
  runtime::Violation violation = runtime::Violation::kNone;
  std::string message;

  bool Hijacked() const { return outcome == AttackOutcome::kHijacked; }
};

// Builds the vulnerable program for `spec` (exposed for tests and examples).
std::unique_ptr<ir::Module> BuildAttackProgram(const AttackSpec& spec);

// Runs one attack under the given protection configuration.
AttackResult RunAttack(const AttackSpec& spec, const core::Config& config);

// Runs the whole matrix; returns one result per attack, in matrix order.
// Attacks are independent programs, so `jobs` > 1 runs them on that many
// executors (cpi::ParallelFor, src/support/pool.h); results are identical at
// any jobs value.
std::vector<AttackResult> RunAttackMatrix(const core::Config& config, int jobs = 1);

// Same, over the cross-thread rows.
std::vector<AttackResult> RunCrossThreadMatrix(const core::Config& config, int jobs = 1);

}  // namespace cpi::attacks

#endif  // CPI_SRC_ATTACKS_RIPE_H_
