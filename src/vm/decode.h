// Predecoded execution format: the flat micro-op arrays the VM's
// threaded-dispatch engine executes, plus the superinstruction (macro-op)
// tier layered on top of them.
//
// The reference interpreter re-switches on ir::Opcode and re-resolves each
// operand's ir::ValueKind for every executed instruction, and chases
// Instruction/Value/Type object graphs for sizes, offsets and widths that
// never change. Decoding performs all of that exactly once per function:
//
//   * every operand collapses to an OperandSlot — a register index or a
//     fully-masked immediate (constants are masked to their type width at
//     decode time, the way Machine::Eval masks them at run time);
//   * type-derived quantities (load/store sizes, field offsets, element
//     sizes, operand bit widths, alloca sizes/alignments) become payload
//     fields of the DecodedOp;
//   * function and global addresses are baked in from the ProgramLayout;
//   * basic blocks flatten into one contiguous op array per function, with
//     branch targets resolved to op indices;
//   * instrumentation intrinsics decode like any other op, so instrumented
//     and vanilla runs share the same dispatch loop.
//
// The fused tier (engine kFused) then rewrites straight-line sequences inside
// each basic block into macro-ops (superinstructions). The plan is fixed and
// purely structural: per block, the specialised triple shapes below are
// claimed in op-index order, then head x tail pairs in op-index order over
// the ops still free. Fusion only replaces the *head* op's opcode; the
// constituent tail ops stay in the array with their original opcodes and
// payloads, so branch targets never need remapping — a jump into the middle
// of a fused sequence simply executes the tail as the plain micro-op it still
// is. A macro handler charges each constituent exactly what the dispatch loop
// would have (base cycles, fuel, cache traffic), which keeps the simulated
// Counters of all three tiers bit-for-bit identical (see
// tests/decode_test.cc and tests/fuse_test.cc); only wall-clock changes.
#ifndef CPI_SRC_VM_DECODE_H_
#define CPI_SRC_VM_DECODE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/ir/module.h"
#include "src/vm/machine.h"

namespace cpi::vm {

// A pre-resolved operand: either an immediate (constants, already masked to
// their type width) or an index into the frame's register file. Packed to 12
// bytes — the sentinel register index doubles as the immediate tag — so that
// three of them plus payloads keep DecodedOp inside 80 bytes.
struct OperandSlot {
  static constexpr uint32_t kImmSlot = 0xffffffffu;

  uint32_t reg = kImmSlot;
  uint32_t imm_lo = 0;
  uint32_t imm_hi = 0;

  bool is_imm() const { return reg == kImmSlot; }
  uint64_t imm() const { return imm_lo | (static_cast<uint64_t>(imm_hi) << 32); }
  void set_imm(uint64_t v) {
    reg = kImmSlot;
    imm_lo = static_cast<uint32_t>(v);
    imm_hi = static_cast<uint32_t>(v >> 32);
  }
  void set_reg(uint32_t r) { reg = r; }
};
static_assert(sizeof(OperandSlot) == 12, "OperandSlot must stay 12 bytes");

// One handler per micro-op; the dispatch table in machine.cc is indexed by
// this. Values mirror ir::Opcode one-to-one — the win is not a different
// instruction set but the pre-resolved operands and payloads.
enum class MicroOp : uint8_t {
  kAlloca,
  kLoad,
  kStore,
  kFieldAddr,
  kIndexAddr,
  kBinOp,
  kCast,
  kSelect,
  kCall,
  kIndirectCall,
  kLibCall,
  kMalloc,
  kFree,
  kFuncAddr,
  kGlobalAddr,
  kBr,
  kCondBr,
  kRet,
  kInput,
  kOutput,
  kIntrinsic,
  kSpawn,
  kJoin,
  kYield,
  kCount,
};

// Macro-ops (superinstructions): opcode values continue MicroOp's numbering
// so one dispatch table serves both tiers. A macro-op is stored in the
// *head* DecodedOp of a fused sequence; its constituents keep their original
// micro opcodes at the following op indices.
//
// Every macro opcode names its constituents *statically*, so the handler
// reaches each constituent with a direct (predictable) call. That is the
// entire win: a handler that dispatched its constituents at run time would
// re-introduce exactly the data-dependent indirect jump that fusion exists
// to remove, and measures slower than not fusing at all. Pairs get a full
// head x tail opcode matrix; triples only the hand-specialised shapes below
// (anything else is planned as a pair plus a standalone op).

// The fusion vocabulary, in opcode-matrix order: these ops may head a pair
// or sit inside a triple; tails additionally admit the block-terminating
// branches. Anything that can transfer control to another frame or thread,
// block, reschedule, or touch scheduler-visible machine state (calls,
// libcalls, spawn/join/yield, ret, malloc/free, I/O, alloca) never fuses.
constexpr MicroOp kFuseHeadOps[] = {
    MicroOp::kLoad,      MicroOp::kStore,    MicroOp::kFieldAddr,
    MicroOp::kIndexAddr, MicroOp::kBinOp,    MicroOp::kCast,
    MicroOp::kSelect,    MicroOp::kFuncAddr, MicroOp::kGlobalAddr,
    MicroOp::kIntrinsic,
};
constexpr size_t kNumFuseHeads = sizeof(kFuseHeadOps) / sizeof(kFuseHeadOps[0]);
constexpr size_t kNumFuseTails = kNumFuseHeads + 2;  // + kBr, kCondBr

// Specialised triple shapes: the hottest three-op sequences by dynamic hit
// count across the bench suite (all workloads x all schemes), measured when
// the tier was built. A triple saves two dispatches instead of one, so the
// top shapes earn their own opcodes; the long tail decomposes into pairs.
struct TripleShape {
  MicroOp a, b, c;
};
constexpr TripleShape kTripleShapes[] = {
    {MicroOp::kLoad, MicroOp::kBinOp, MicroOp::kCondBr},
    {MicroOp::kLoad, MicroOp::kGlobalAddr, MicroOp::kIndexAddr},
    {MicroOp::kStore, MicroOp::kLoad, MicroOp::kBinOp},
    {MicroOp::kBinOp, MicroOp::kStore, MicroOp::kBr},
    {MicroOp::kLoad, MicroOp::kIndexAddr, MicroOp::kLoad},
    {MicroOp::kLoad, MicroOp::kBinOp, MicroOp::kGlobalAddr},
    {MicroOp::kLoad, MicroOp::kBinOp, MicroOp::kStore},
    {MicroOp::kIndexAddr, MicroOp::kStore, MicroOp::kLoad},
    {MicroOp::kBinOp, MicroOp::kStore, MicroOp::kFieldAddr},
};
constexpr size_t kNumTripleShapes = sizeof(kTripleShapes) / sizeof(kTripleShapes[0]);

enum class MacroOp : uint8_t {
  kCmpBr = static_cast<uint8_t>(MicroOp::kCount),  // int compare + cond-branch,
                                                   // branch consumes the result
  kPairBase,   // head x tail matrix: kPairBase + head_index * kNumFuseTails + tail_index
  kTripleBase = kPairBase + kNumFuseHeads * kNumFuseTails,  // kTripleShapes order
  kEnd = kTripleBase + kNumTripleShapes,
};
static_assert(static_cast<size_t>(MacroOp::kEnd) <= 256,
              "macro opcodes must fit the uint8_t opcode byte");

// Total number of opcode slots across both tiers (dispatch table size).
constexpr size_t kNumOpcodes = static_cast<size_t>(MacroOp::kEnd);

inline bool IsMacroOp(MicroOp op) {
  return static_cast<uint8_t>(op) >= static_cast<uint8_t>(MicroOp::kCount);
}

// Matrix coordinates <-> opcodes. Index helpers return -1 for ops outside
// the vocabulary, so `FuseHeadIndex(op) >= 0` is "op may head a pair" and
// `FuseTailIndex(op) >= 0` is "op may end one".
constexpr int FuseHeadIndex(MicroOp op) {
  for (size_t i = 0; i < kNumFuseHeads; ++i) {
    if (kFuseHeadOps[i] == op) return static_cast<int>(i);
  }
  return -1;
}
constexpr int FuseTailIndex(MicroOp op) {
  if (op == MicroOp::kBr) return static_cast<int>(kNumFuseHeads);
  if (op == MicroOp::kCondBr) return static_cast<int>(kNumFuseHeads) + 1;
  return FuseHeadIndex(op);
}
constexpr MicroOp PairMacro(int head, int tail) {
  return static_cast<MicroOp>(static_cast<size_t>(MacroOp::kPairBase) +
                              static_cast<size_t>(head) * kNumFuseTails +
                              static_cast<size_t>(tail));
}

// A triple's first two constituents must be able to head a pair and its last
// to end one, so the planner needs no check beyond the shape match.
constexpr bool TripleShapesInVocabulary() {
  for (const TripleShape& t : kTripleShapes) {
    if (FuseHeadIndex(t.a) < 0 || FuseHeadIndex(t.b) < 0 || FuseTailIndex(t.c) < 0) {
      return false;
    }
  }
  return true;
}
static_assert(TripleShapesInVocabulary(), "a triple shape uses a non-fusible op");

// Number of constituent micro-ops a fused opcode covers (1 for plain
// micro-ops).
inline uint32_t FusedLength(MicroOp op) {
  if (!IsMacroOp(op)) return 1;
  const auto v = static_cast<uint8_t>(op);
  return v >= static_cast<uint8_t>(MacroOp::kTripleBase) ? 3 : 2;
}

struct DecodedOp {
  MicroOp op = MicroOp::kCount;
  // Sub-operation: BinOp / CastKind / LibFunc / IntrinsicId, as applicable.
  uint8_t aux = 0;
  // Operand bit widths: `bits` is the binop LHS / cast source / index width,
  // `bits2` the result width the value is masked to.
  uint8_t bits = 64;
  uint8_t bits2 = 64;
  // Result register (ir::kInvalidValueId for void results).
  uint32_t dest = 0xffffffffu;
  // Up to three pre-resolved operands (every opcode except calls has <= 3).
  OperandSlot a, b, c;
  // kAlloca: safe-stack placement; kLibCall: checked variant; kRet: has a
  // return value.
  bool flag = false;
  // Opcode-specific payload (sizes, offsets, baked addresses, call/spawn
  // callee ordinals); see decode.cc.
  uint64_t imm = 0;
  uint64_t imm2 = 0;
  // Branch targets as op indices (kCondBr: taken / fall-through).
  uint32_t target = 0;
  uint32_t target2 = 0;
  // Call arguments: a [arg_begin, arg_begin+arg_count) range of pre-resolved
  // slots in DecodedFunction::args.
  uint32_t arg_begin = 0;
  uint16_t arg_count = 0;
};
// One cache line holds a fused pair's head and tail plus change; keeping the
// hot op stream at 80 bytes (down from 112) is a measurable win for both
// engines.
static_assert(sizeof(DecodedOp) == 80, "DecodedOp must stay 80 bytes");

struct DecodedFunction {
  const ir::Function* func = nullptr;
  std::vector<DecodedOp> ops;     // blocks flattened in block order
  std::vector<OperandSlot> args;  // call-argument slot pool
  // Cold side table, parallel to `ops`: the IR instruction each op was
  // decoded from. Only the call path reads it at run time
  // (Frame::pending_call and return-value plumbing).
  std::vector<const ir::Instruction*> insts;
  // Op index of each basic block's first op, in block order (fusion never
  // crosses these; tests introspect them).
  std::vector<uint32_t> block_starts;
};

// All functions of a module, decoded for one tier. Indexed by
// ir::Function::ordinal(), which also underlies code addresses — so an
// indirect-call target address resolves to its decoded body with pure
// arithmetic. With `fuse` set, the fusion plan runs over every function after
// decoding.
//
// A decode depends only on the module, its layout and `fuse` — never on
// RunOptions — and no run mutates it, so one DecodedModule serves any number
// of vm::Execute calls, concurrent ones included. It keeps a reference to the
// module (which must outlive it) and its own copy of the layout, so a run on
// it recomputes neither.
class DecodedModule {
 public:
  DecodedModule(const ir::Module& module, const ProgramLayout& layout,
                bool fuse = false);

  const ir::Module& module() const { return module_; }
  const ProgramLayout& layout() const { return layout_; }
  // The tier this decode serves: kFused when built with `fuse`, else kDecoded.
  EngineKind engine() const { return engine_; }

  const DecodedFunction& ForFunction(const ir::Function* f) const {
    CPI_CHECK(f->ordinal() < functions_.size());
    return *functions_[f->ordinal()];
  }

  // Decoded ops before and dispatched ops after fusion (equal when decoded
  // without fusion).
  uint64_t ops_before_fusion() const { return ops_before_; }
  uint64_t ops_after_fusion() const { return ops_after_; }

 private:
  const ir::Module& module_;
  const ProgramLayout layout_;
  const EngineKind engine_;
  std::vector<std::unique_ptr<DecodedFunction>> functions_;
  uint64_t ops_before_ = 0;
  uint64_t ops_after_ = 0;
};

// Process-wide fusion statistics, summed over every fused DecodedModule
// built in this process (the suite reports the aggregate). Thread-safe.
struct FusionStats {
  uint64_t modules = 0;      // fused DecodedModules built
  uint64_t ops_before = 0;   // decoded ops before fusion, summed
  uint64_t ops_after = 0;    // dispatched ops after fusion, summed
};

FusionStats GetFusionStats();

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_DECODE_H_
