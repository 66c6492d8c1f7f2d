// IR -> micro-op translation, plus the superinstruction tier's
// profile-guided fusion pass. One DecodedOp per IR instruction; every
// payload a handler needs at run time is resolved here, once per function.
#include "src/vm/decode.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>

#include "src/ir/intrinsics.h"
#include "src/support/check.h"
#include "src/vm/bits.h"

namespace cpi::vm {

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::StackKind;
using ir::Type;
using ir::Value;
using ir::ValueKind;

OperandSlot SlotFor(const Value* v) {
  OperandSlot s;
  switch (v->value_kind()) {
    case ValueKind::kConstInt: {
      const auto* c = static_cast<const ir::ConstantInt*>(v);
      s.set_imm(MaskToWidth(c->value(), TypeBits(c->type())));
      return s;
    }
    case ValueKind::kConstFloat:
      s.set_imm(DoubleToBits(static_cast<const ir::ConstantFloat*>(v)->value()));
      return s;
    case ValueKind::kConstNull:
      s.set_imm(0);
      return s;
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      CPI_CHECK(v->value_id() != ir::kInvalidValueId);
      CPI_CHECK(v->value_id() != OperandSlot::kImmSlot);
      s.set_reg(v->value_id());
      return s;
  }
  CPI_UNREACHABLE();
}

std::unique_ptr<DecodedFunction> DecodeFunction(const Function& fn,
                                                const ir::Module& module,
                                                const ProgramLayout& layout) {
  auto out = std::make_unique<DecodedFunction>();
  out->func = &fn;

  // Pass 1: op index of every block once blocks are laid out back to back.
  std::unordered_map<const BasicBlock*, uint32_t> block_pc;
  uint32_t pc = 0;
  for (const auto& bb : fn.blocks()) {
    block_pc[bb.get()] = pc;
    out->block_starts.push_back(pc);
    pc += static_cast<uint32_t>(bb->instructions().size());
  }
  out->ops.reserve(pc);
  out->insts.reserve(pc);

  const bool safe_stack = module.protection().safe_stack;

  // Pass 2: emit.
  for (const auto& bb : fn.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      DecodedOp op;
      out->insts.push_back(inst);
      op.dest = inst->value_id();
      const auto& operands = inst->operands();
      switch (inst->op()) {
        case Opcode::kAlloca: {
          op.op = MicroOp::kAlloca;
          const Type* t = inst->extra_type();
          op.imm = std::max<uint64_t>(t->SizeInBytes(), 1);
          op.imm2 = std::max<uint64_t>(ir::AlignmentOf(t), 1) - 1;  // align mask
          op.flag = safe_stack && inst->stack_kind() != StackKind::kUnsafe;
          break;
        }
        case Opcode::kLoad:
          op.op = MicroOp::kLoad;
          op.a = SlotFor(operands[0]);
          op.imm = inst->type()->SizeInBytes();
          break;
        case Opcode::kStore: {
          op.op = MicroOp::kStore;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          const Type* pointee =
              static_cast<const ir::PointerType*>(operands[1]->type())->pointee();
          op.imm = pointee->IsVoid() ? 8 : pointee->SizeInBytes();
          break;
        }
        case Opcode::kFieldAddr: {
          op.op = MicroOp::kFieldAddr;
          op.a = SlotFor(operands[0]);
          const auto* st = static_cast<const ir::StructType*>(
              static_cast<const ir::PointerType*>(operands[0]->type())->pointee());
          const ir::StructField& field = st->fields()[inst->field_index()];
          op.imm = field.offset;
          op.imm2 = field.type->SizeInBytes();
          break;
        }
        case Opcode::kIndexAddr: {
          op.op = MicroOp::kIndexAddr;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[1]->type()));
          const Type* pointee =
              static_cast<const ir::PointerType*>(operands[0]->type())->pointee();
          op.imm = pointee->IsArray()
                       ? static_cast<const ir::ArrayType*>(pointee)->element()->SizeInBytes()
                       : pointee->SizeInBytes();
          break;
        }
        case Opcode::kBinOp:
          op.op = MicroOp::kBinOp;
          op.aux = static_cast<uint8_t>(inst->binop());
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[0]->type()));
          op.bits2 = static_cast<uint8_t>(TypeBits(inst->type()));
          break;
        case Opcode::kCast:
          op.op = MicroOp::kCast;
          op.aux = static_cast<uint8_t>(inst->cast_kind());
          op.a = SlotFor(operands[0]);
          op.bits = static_cast<uint8_t>(TypeBits(operands[0]->type()));
          op.bits2 = static_cast<uint8_t>(TypeBits(inst->type()));
          break;
        case Opcode::kSelect:
          op.op = MicroOp::kSelect;
          op.a = SlotFor(operands[0]);
          op.b = SlotFor(operands[1]);
          op.c = SlotFor(operands[2]);
          break;
        case Opcode::kCall:
          op.op = MicroOp::kCall;
          op.imm = inst->callee()->ordinal();  // resolved via module at run time
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size());
          for (const Value* v : operands) {
            out->args.push_back(SlotFor(v));
          }
          break;
        case Opcode::kIndirectCall:
          op.op = MicroOp::kIndirectCall;
          op.a = SlotFor(operands[0]);
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() - 1 <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size() - 1);
          for (size_t i = 1; i < operands.size(); ++i) {
            out->args.push_back(SlotFor(operands[i]));
          }
          break;
        case Opcode::kLibCall:
          op.op = MicroOp::kLibCall;
          op.aux = static_cast<uint8_t>(inst->lib_func());
          op.flag = inst->checked();
          CPI_CHECK(operands.size() <= 3);
          if (operands.size() > 0) op.a = SlotFor(operands[0]);
          if (operands.size() > 1) op.b = SlotFor(operands[1]);
          if (operands.size() > 2) op.c = SlotFor(operands[2]);
          break;
        case Opcode::kMalloc:
          op.op = MicroOp::kMalloc;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kFree:
          op.op = MicroOp::kFree;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kFuncAddr:
          op.op = MicroOp::kFuncAddr;
          op.imm = layout.CodeAddress(inst->callee());
          break;
        case Opcode::kGlobalAddr:
          op.op = MicroOp::kGlobalAddr;
          op.imm = layout.GlobalAddress(inst->global());
          op.imm2 = inst->global()->type()->SizeInBytes();
          break;
        case Opcode::kBr:
          op.op = MicroOp::kBr;
          op.target = block_pc.at(inst->successor(0));
          break;
        case Opcode::kCondBr:
          op.op = MicroOp::kCondBr;
          op.a = SlotFor(operands[0]);
          op.target = block_pc.at(inst->successor(0));
          op.target2 = block_pc.at(inst->successor(1));
          break;
        case Opcode::kRet:
          op.op = MicroOp::kRet;
          op.flag = !operands.empty();
          if (op.flag) {
            op.a = SlotFor(operands[0]);
          }
          break;
        case Opcode::kInput:
          op.op = MicroOp::kInput;
          break;
        case Opcode::kOutput:
          op.op = MicroOp::kOutput;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kSpawn:
          op.op = MicroOp::kSpawn;
          op.imm = inst->callee()->ordinal();
          op.arg_begin = static_cast<uint32_t>(out->args.size());
          CPI_CHECK(operands.size() <= UINT16_MAX);
          op.arg_count = static_cast<uint16_t>(operands.size());
          for (const Value* v : operands) {
            out->args.push_back(SlotFor(v));
          }
          break;
        case Opcode::kJoin:
          op.op = MicroOp::kJoin;
          op.a = SlotFor(operands[0]);
          break;
        case Opcode::kYield:
          op.op = MicroOp::kYield;
          break;
        case Opcode::kIntrinsic:
          op.op = MicroOp::kIntrinsic;
          op.aux = static_cast<uint8_t>(inst->intrinsic());
          CPI_CHECK(operands.size() <= 3);
          if (operands.size() > 0) op.a = SlotFor(operands[0]);
          if (operands.size() > 1) op.b = SlotFor(operands[1]);
          if (operands.size() > 2) op.c = SlotFor(operands[2]);
          break;
      }
      CPI_CHECK(op.op != MicroOp::kCount);
      out->ops.push_back(op);
    }
  }
  CPI_CHECK(out->ops.size() == pc);
  return out;
}

// ---------------------------------------------------------------------------
// Superinstruction fusion: the static profiler + planner + rewriter.
//
// The "profile" is a cheap static one: every op is weighted by the nesting
// depth of the loops enclosing it, where a loop is any branch whose target
// op index is not after the branch itself (back edges in the flattened
// block layout — the same notion src/opt's CFG analyses use). Candidates
// are collected per basic block, ranked hottest-first, and fused greedily
// without overlap. Only the head op's opcode is rewritten; constituents
// keep their original opcodes, so branch targets stay valid.

// Ops a fused sequence may start with or continue through. Anything that can
// transfer control to another frame or thread, block, reschedule, or touch
// the scheduler-visible machine state (calls, libcalls, spawn/join/yield,
// ret, malloc/free, I/O, alloca) never fuses.
bool FusibleInner(MicroOp op) {
  switch (op) {
    case MicroOp::kLoad:
    case MicroOp::kStore:
    case MicroOp::kFieldAddr:
    case MicroOp::kIndexAddr:
    case MicroOp::kBinOp:
    case MicroOp::kCast:
    case MicroOp::kSelect:
    case MicroOp::kFuncAddr:
    case MicroOp::kGlobalAddr:
    case MicroOp::kIntrinsic:
      return true;
    default:
      return false;
  }
}

// A sequence may additionally *end* with the block's own terminating branch
// (which is still "straight-line": the branch is the last constituent).
bool FusibleTail(MicroOp op) {
  return FusibleInner(op) || op == MicroOp::kBr || op == MicroOp::kCondBr;
}

bool IsIntCompare(uint8_t aux) {
  const auto b = static_cast<BinOp>(aux);
  return b >= BinOp::kEq && b <= BinOp::kULe;
}

// Specialised triple opcode for three constituent micro-ops, or kCount when
// the shape is not in the hand-specialised list (the planner then falls back
// to pairing).
MicroOp TripleMacro(MicroOp a, MicroOp b, MicroOp c) {
  for (size_t k = 0; k < kNumTripleShapes; ++k) {
    if (kTripleShapes[k].a == a && kTripleShapes[k].b == b &&
        kTripleShapes[k].c == c) {
      return static_cast<MicroOp>(static_cast<size_t>(MacroOp::kTripleBase) + k);
    }
  }
  return MicroOp::kCount;
}

// Specialised macro opcode for a candidate. Pairs draw from the full
// head x tail matrix; triples only from kTripleShapes (FuseFunction never
// proposes other triples).
MicroOp PickMacro(const DecodedOp* o, uint32_t len) {
  if (len == 3) {
    const MicroOp m = TripleMacro(o[0].op, o[1].op, o[2].op);
    CPI_CHECK(m != MicroOp::kCount);
    return m;
  }
  // The fully-inlined compare+branch needs the branch to consume the
  // compare's result register; anything else takes the matrix path.
  if (o[0].op == MicroOp::kBinOp && o[1].op == MicroOp::kCondBr &&
      IsIntCompare(o[0].aux) && !o[1].a.is_imm() && o[1].a.reg == o[0].dest) {
    return static_cast<MicroOp>(MacroOp::kCmpBr);
  }
  const int h = FuseHeadIndex(o[0].op);
  const int t = FuseTailIndex(o[1].op);
  if (h >= 0 && t >= 0) return PairMacro(h, t);
  return static_cast<MicroOp>(MacroOp::kFuse2);
}

const char* MicroOpName(MicroOp op) {
  switch (op) {
    case MicroOp::kAlloca: return "alloca";
    case MicroOp::kLoad: return "load";
    case MicroOp::kStore: return "store";
    case MicroOp::kFieldAddr: return "fieldaddr";
    case MicroOp::kIndexAddr: return "indexaddr";
    case MicroOp::kBinOp: return "binop";
    case MicroOp::kCast: return "cast";
    case MicroOp::kSelect: return "select";
    case MicroOp::kCall: return "call";
    case MicroOp::kIndirectCall: return "indirectcall";
    case MicroOp::kLibCall: return "libcall";
    case MicroOp::kMalloc: return "malloc";
    case MicroOp::kFree: return "free";
    case MicroOp::kFuncAddr: return "funcaddr";
    case MicroOp::kGlobalAddr: return "globaladdr";
    case MicroOp::kBr: return "br";
    case MicroOp::kCondBr: return "condbr";
    case MicroOp::kRet: return "ret";
    case MicroOp::kInput: return "input";
    case MicroOp::kOutput: return "output";
    case MicroOp::kIntrinsic: return "intrinsic";
    case MicroOp::kSpawn: return "spawn";
    case MicroOp::kJoin: return "join";
    case MicroOp::kYield: return "yield";
    default: return "?";
  }
}

std::string ConstituentName(const DecodedOp& op) {
  std::string name = MicroOpName(op.op);
  switch (op.op) {
    case MicroOp::kBinOp:
      name += std::string("(") + ir::BinOpName(static_cast<BinOp>(op.aux)) + ")";
      break;
    case MicroOp::kIntrinsic:
      name += std::string("(") +
              ir::IntrinsicName(static_cast<ir::IntrinsicId>(op.aux)) + ")";
      break;
    default:
      break;
  }
  return name;
}

std::string PatternName(const DecodedOp* o, uint32_t len) {
  std::string name = ConstituentName(o[0]);
  for (uint32_t i = 1; i < len; ++i) {
    name += "+" + ConstituentName(o[i]);
  }
  return name;
}

// Loop-nesting weight of every op index: 8^depth, capped. Back edges are
// detected directly in the flat layout; a diff array turns the [target,
// branch] intervals into per-op depths in one prefix sum.
std::vector<uint64_t> LoopWeights(const std::vector<DecodedOp>& ops) {
  std::vector<int32_t> delta(ops.size() + 1, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const DecodedOp& op = ops[i];
    if (op.op == MicroOp::kBr || op.op == MicroOp::kCondBr) {
      for (uint32_t target : {op.target, op.op == MicroOp::kCondBr ? op.target2 : op.target}) {
        if (target <= i) {
          ++delta[target];
          --delta[i + 1];
        }
      }
    }
  }
  std::vector<uint64_t> weight(ops.size(), 1);
  int32_t depth = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    depth += delta[i];
    const int32_t d = std::min(depth, 10);
    weight[i] = 1ULL << (3 * d);  // 8^depth
  }
  return weight;
}

struct PatternAccum {
  uint16_t id = 0;
  uint64_t sites = 0;
  uint64_t weight = 0;
};

struct FuseCandidate {
  uint32_t index = 0;
  uint32_t len = 0;
  uint64_t weight = 0;
};

// Rewrites hot straight-line sequences of `df` in place. Patterns
// accumulate into `patterns` (module-wide name -> id/sites/weight).
void FuseFunction(DecodedFunction& df, std::map<std::string, PatternAccum>& patterns,
                  uint64_t* fused_tail_ops) {
  std::vector<DecodedOp>& ops = df.ops;
  if (ops.empty()) return;
  const std::vector<uint64_t> weight = LoopWeights(ops);

  // Collect candidates per block; triples and pairs both, ranked later.
  std::vector<FuseCandidate> candidates;
  for (size_t b = 0; b < df.block_starts.size(); ++b) {
    const uint32_t begin = df.block_starts[b];
    const uint32_t end = b + 1 < df.block_starts.size()
                             ? df.block_starts[b + 1]
                             : static_cast<uint32_t>(ops.size());
    for (uint32_t i = begin; i < end; ++i) {
      if (!FusibleInner(ops[i].op)) continue;
      // Triples only where a specialised handler exists — a generic triple
      // would dispatch its constituents through a data-dependent jump and
      // lose the fusion win (the pair decomposition still captures it).
      if (i + 2 < end && FusibleInner(ops[i + 1].op) && FusibleTail(ops[i + 2].op) &&
          TripleMacro(ops[i].op, ops[i + 1].op, ops[i + 2].op) != MicroOp::kCount) {
        candidates.push_back({i, 3, weight[i]});
      }
      if (i + 1 < end && FusibleTail(ops[i + 1].op)) {
        candidates.push_back({i, 2, weight[i]});
      }
    }
  }

  // Hottest first; longer sequences win ties so a hot triple beats the pair
  // it contains; earlier sites win the remaining ties for determinism.
  std::sort(candidates.begin(), candidates.end(),
            [](const FuseCandidate& x, const FuseCandidate& y) {
              if (x.weight != y.weight) return x.weight > y.weight;
              if (x.len != y.len) return x.len > y.len;
              return x.index < y.index;
            });

  std::vector<bool> consumed(ops.size(), false);
  for (const FuseCandidate& c : candidates) {
    bool free = true;
    for (uint32_t i = c.index; i < c.index + c.len; ++i) {
      if (consumed[i]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (uint32_t i = c.index; i < c.index + c.len; ++i) {
      consumed[i] = true;
    }

    DecodedOp& head = ops[c.index];
    const MicroOp macro = PickMacro(&head, c.len);
    PatternAccum& acc = patterns[PatternName(&head, c.len)];
    if (acc.sites == 0) {
      acc.id = static_cast<uint16_t>(patterns.size() - 1);
    }
    ++acc.sites;
    acc.weight += c.weight;
    head.fuse_head = static_cast<uint8_t>(head.op);
    head.fuse_id = acc.id;
    head.op = macro;
    *fused_tail_ops += c.len - 1;
  }
}

}  // namespace

DecodedModule::DecodedModule(const ir::Module& module, const ProgramLayout& layout,
                             bool fuse)
    : module_(module),
      layout_(layout),
      engine_(fuse ? EngineKind::kFused : EngineKind::kDecoded) {
  functions_.reserve(module.functions().size());
  for (size_t i = 0; i < module.functions().size(); ++i) {
    const Function* fn = module.functions()[i].get();
    CPI_CHECK(fn->ordinal() == i);
    functions_.push_back(DecodeFunction(*fn, module, layout_));
    ops_before_ += functions_.back()->ops.size();
  }
  ops_after_ = ops_before_;
  if (!fuse) return;

  std::map<std::string, PatternAccum> patterns;
  uint64_t fused_tails = 0;
  for (auto& df : functions_) {
    FuseFunction(*df, patterns, &fused_tails);
  }
  ops_after_ = ops_before_ - fused_tails;

  // The map assigned ids in insertion order; patterns_ is indexed by id.
  patterns_.resize(patterns.size());
  for (const auto& [name, acc] : patterns) {
    CPI_CHECK(acc.id < patterns_.size());
    patterns_[acc.id] = FusePattern{name, acc.sites, acc.weight};
  }
  AccumulateFusionDecode(*this);
}

// ---------------------------------------------------------------------------
// Process-wide fusion statistics.

namespace {

struct GlobalPattern {
  uint64_t sites = 0;
  uint64_t weight = 0;
  uint64_t hits = 0;
};

std::mutex g_fusion_mu;
std::map<std::string, GlobalPattern>& GlobalPatterns() {
  static auto* m = new std::map<std::string, GlobalPattern>();
  return *m;
}
uint64_t g_fused_modules = 0;
uint64_t g_ops_before = 0;
uint64_t g_ops_after = 0;

}  // namespace

void ResetFusionStats() {
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  GlobalPatterns().clear();
  g_fused_modules = 0;
  g_ops_before = 0;
  g_ops_after = 0;
}

void AccumulateFusionDecode(const DecodedModule& m) {
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  ++g_fused_modules;
  g_ops_before += m.ops_before_fusion();
  g_ops_after += m.ops_after_fusion();
  for (const FusePattern& p : m.patterns()) {
    GlobalPattern& g = GlobalPatterns()[p.name];
    g.sites += p.sites;
    g.weight += p.weight;
  }
}

void AccumulateFusionHits(const std::vector<FusePattern>& patterns,
                          const std::vector<uint64_t>& hits) {
  CPI_CHECK(hits.size() == patterns.size());
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (hits[i] != 0) {
      GlobalPatterns()[patterns[i].name].hits += hits[i];
    }
  }
}

FusionStats GetFusionStats() {
  std::lock_guard<std::mutex> lock(g_fusion_mu);
  FusionStats stats;
  stats.modules = g_fused_modules;
  stats.ops_before = g_ops_before;
  stats.ops_after = g_ops_after;
  stats.patterns.reserve(GlobalPatterns().size());
  for (const auto& [name, g] : GlobalPatterns()) {
    stats.patterns.push_back(FusionPatternStat{name, g.sites, g.weight, g.hits});
  }
  std::sort(stats.patterns.begin(), stats.patterns.end(),
            [](const FusionPatternStat& x, const FusionPatternStat& y) {
              if (x.hits != y.hits) return x.hits > y.hits;
              return x.name < y.name;
            });
  return stats;
}

}  // namespace cpi::vm
