// Dominated-duplicate elimination for safe-store gets, bounds checks and
// code-pointer asserts — the pass that recovers the paper's premise that
// instrumentation is optimized after insertion (§5.2).
//
// Only instrumentation intrinsics are ever deleted. The program-level
// instructions around them (address arithmetic, loads, stores) also exist in
// the vanilla build and are left untouched, so an optimized protected run
// differs from its O0 counterpart exactly by folded *instrumentation* work —
// overhead numbers shrink and can never artificially invert against an
// unoptimized baseline.
//
// Identity. The instrumentation rewrites re-emit address computations per
// access site, so the same field address appears as many distinct
// instructions and naive operand-pointer keys never match. Candidates are
// therefore keyed on *value numbers*: constants canonicalize by value, and
// frame-invariant expressions — pure computations over constants, arguments,
// globaladdr and funcaddr, which rewrite their register with identical bits
// on every execution within a frame — canonicalize structurally. Everything
// else keys on operand identity.
//
// A candidate X is redundant when an identical instance M dominates it and
// *no path from M to X contains a kill* of the expression. Then every
// execution reaching X has executed M since the last event that could change
// the expression's outcome, so M either produced the same (value, metadata)
// register — X's uses are rewired onto M — or, for void checks, already
// enforced the same predicate (had X been due to fail, M would have failed
// first and the run never reaches X).
//
// Kills model everything that can change an expression's outcome between two
// instances. The VM is deterministic and single-threaded, so state changes
// only when the program itself acts:
//   - safe-store / shadow / sealed-slot gets are killed by every instruction
//     that can write memory (stores, store intrinsics, writing libcalls,
//     calls) — this is also what makes the elimination sound under *active
//     attacks*: an attack corrupts memory through program writes, and every
//     such write kills;
//   - bounds checks additionally depend on temporal liveness: they are
//     killed by free and by calls (a callee may free) — unless the module
//     contains no free instruction at all, in which case the temporal state
//     provably never changes and even an arbitrary hijacked control transfer
//     cannot free anything;
//   - asserts are deterministic functions of their operand registers;
//   - every expression is killed when a non-invariant operand's register is
//     redefined, i.e. when the operand's defining instruction (or, after a
//     rewire, the master standing in for it — always a generator of the
//     operand's own key) executes.
//
// The no-kill-path condition is checked exactly: a per-(key, master) taint
// propagation marks every block reachable from the master through a path
// containing a kill; a re-execution of the master itself resets the taint
// (its register is fresh again). Rewires can make further instances
// identical (asserts keyed on a deleted load), so the pass re-collects and
// repeats until a fixpoint.
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

#include "src/opt/analysis.h"
#include "src/opt/dominators.h"
#include "src/opt/pass_manager.h"

namespace cpi::opt {
namespace {

using ir::Instruction;
using ir::IntrinsicId;
using ir::IntrinsicShape;
using ir::Opcode;
using ir::Value;

struct Position {
  size_t block = 0;  // RPO index
  size_t index = 0;  // position within the block
};

// Expression identity: intrinsic id + result type + operand value numbers
// (the result type guards against two loads routed through the same
// universal-pointer address at different types).
using ExprKey = std::tuple<IntrinsicId, const void*, const void*, const void*>;

// Where a safe-load's address provably points, for the one alias refinement
// the attack model admits (see the kill-positions comment below).
enum class AddrClass {
  kBareGlobal,  // address is exactly a globaladdr result: fixed global slot
  kBareAlloca,  // address is exactly one alloca's result: that frame slot
  kOther,       // anything derived: may point anywhere once corrupted
};

struct ExprInfo {
  // The intrinsic's shape (ir::Info) decides what kills the expression:
  //   kLoad    safe-store / shadow / sealed-slot get: memory writes
  //   kCheck   bounds check: free (and calls, if the module frees)
  //   kAssert  code-pointer assert: nothing (pure in the operand register)
  // Store intrinsics write memory and are never candidates.
  IntrinsicShape kind = IntrinsicShape::kLoad;
  AddrClass addr_class = AddrClass::kOther;      // safe loads only
  const Value* addr_alloca = nullptr;            // the alloca when kBareAlloca
  std::vector<Instruction*> generators;  // every instance, in RPO scan order
  // Sorted kill positions, per RPO block.
  std::vector<std::vector<size_t>> kills;
};

// Value numbering scoped to one function. A frame-invariant expression —
// constants, arguments, globaladdr/funcaddr, and pure computations over them
// — rewrites its register with identical bits on every execution within a
// frame, so distinct instances are interchangeable regardless of when they
// ran. Everything else numbers by identity, and the kill sets take over the
// timing argument.
class ValueNumbering {
 public:
  const void* Number(const Value* v) {
    switch (v->value_kind()) {
      case ir::ValueKind::kConstInt:
        return CanonConst(0, v->type(), static_cast<const ir::ConstantInt*>(v)->value());
      case ir::ValueKind::kConstFloat: {
        const double d = static_cast<const ir::ConstantFloat*>(v)->value();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        return CanonConst(1, v->type(), bits);
      }
      case ir::ValueKind::kConstNull:
        return CanonConst(2, v->type(), 0);
      case ir::ValueKind::kArgument:
        return v;
      case ir::ValueKind::kInstruction:
        break;
    }
    auto it = vn_.find(v);
    if (it != vn_.end()) {
      return it->second;
    }
    const auto* inst = static_cast<const Instruction*>(v);
    const void* n = v;  // identity unless frame-invariant
    if (IsInvariant(v)) {
      InvKey key{static_cast<int>(inst->op()), 0, inst->type(), nullptr, {}};
      switch (inst->op()) {
        case Opcode::kGlobalAddr:
          key.aux = inst->global();
          break;
        case Opcode::kFuncAddr:
          key.aux = inst->callee();
          break;
        case Opcode::kBinOp:
          key.payload = static_cast<uint64_t>(inst->binop());
          break;
        case Opcode::kCast:
          key.payload = static_cast<uint64_t>(inst->cast_kind());
          break;
        case Opcode::kFieldAddr:
          key.payload = inst->field_index();
          break;
        default:
          break;
      }
      for (const Value* op : inst->operands()) {
        key.operands.push_back(Number(op));
      }
      n = invariants_.emplace(key, v).first->second;
    }
    vn_[v] = n;
    return n;
  }

  // Frame-invariant: every execution rewrites the register with the same
  // bits. Arguments are written once per frame (no instruction can redefine
  // an argument register); globaladdr/funcaddr yield program constants.
  bool IsInvariant(const Value* v) {
    if (v->IsConstant() || v->value_kind() == ir::ValueKind::kArgument) {
      return true;
    }
    if (v->value_kind() != ir::ValueKind::kInstruction) {
      return false;
    }
    auto it = inv_cache_.find(v);
    if (it != inv_cache_.end()) {
      return it->second == 1;  // in-progress cycles resolve pessimistically
    }
    inv_cache_[v] = 0;
    const auto* inst = static_cast<const Instruction*>(v);
    bool invariant = false;
    switch (inst->op()) {
      case Opcode::kGlobalAddr:
      case Opcode::kFuncAddr:
        invariant = true;
        break;
      case Opcode::kBinOp:
      case Opcode::kCast:
      case Opcode::kSelect:
      case Opcode::kFieldAddr:
      case Opcode::kIndexAddr: {
        invariant = true;
        for (const Value* op : inst->operands()) {
          invariant = invariant && IsInvariant(op);
        }
        break;
      }
      default:
        break;
    }
    inv_cache_[v] = invariant ? 1 : -1;
    return invariant;
  }

 private:
  struct InvKey {
    int op;
    uint64_t payload;
    const void* type;
    const void* aux;
    std::vector<const void*> operands;
    bool operator<(const InvKey& o) const {
      return std::tie(op, payload, type, aux, operands) <
             std::tie(o.op, o.payload, o.type, o.aux, o.operands);
    }
  };

  const void* CanonConst(int kind, const ir::Type* type, uint64_t bits) {
    const auto key = std::make_tuple(kind, static_cast<const void*>(type), bits);
    auto [it, fresh] = consts_.emplace(key, nullptr);
    if (fresh) {
      it->second = &it->first;  // stable unique address per constant value
    }
    return it->second;
  }

  std::unordered_map<const Value*, const void*> vn_;
  std::unordered_map<const Value*, int> inv_cache_;
  std::map<InvKey, const Value*> invariants_;
  std::map<std::tuple<int, const void*, uint64_t>, const void*> consts_;
};

class RedundancyEliminationPass final : public Pass {
 public:
  const char* name() const override { return "redundant-check-elim"; }

  bool Run(ir::Module& module, PipelineContext& ctx, PassStats& stats) override {
    if (!HasInstrumentation(module)) {
      return false;  // see HasInstrumentation: -O2-modelled baseline
    }
    bool module_frees = false;
    for (const auto& f : module.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const Instruction* inst : bb->instructions()) {
          module_frees = module_frees || inst->op() == Opcode::kFree;
        }
      }
    }

    bool changed = false;
    for (int round = 0; round < 8; ++round) {
      bool round_changed = false;
      for (const auto& f : module.functions()) {
        if (f->blocks().empty()) {
          continue;
        }
        round_changed = RunOnFunction(*f, module_frees, ctx, stats) || round_changed;
      }
      changed = changed || round_changed;
      if (!round_changed) {
        break;
      }
    }
    return changed;
  }

 private:
  bool RunOnFunction(ir::Function& f, bool module_frees, PipelineContext& ctx,
                     PassStats& stats) {
    const Cfg cfg(f);
    const DominatorTree dt(cfg);
    const auto& rpo = cfg.rpo();
    const size_t nblocks = rpo.size();

    // --- collect candidates ------------------------------------------------
    ValueNumbering vn;
    std::map<ExprKey, size_t> index;
    std::vector<ExprInfo> exprs;
    std::unordered_map<const Instruction*, size_t> expr_of;
    std::unordered_map<const Instruction*, Position> pos;
    std::unordered_set<const Instruction*> dead;

    for (size_t b = 0; b < nblocks; ++b) {
      for (size_t i = 0; i < rpo[b]->instructions().size(); ++i) {
        Instruction* inst = rpo[b]->instructions()[i];
        pos[inst] = Position{b, i};
        if (inst->op() != Opcode::kIntrinsic) {
          continue;
        }
        const IntrinsicShape kind = ir::Info(inst->intrinsic()).shape;
        if (kind == IntrinsicShape::kStore) {
          continue;
        }
        // Fold asserts over a direct function address immediately: a
        // FuncAddr register provably satisfies every assert variant (it is
        // Code-tagged, and a CFI target is address-taken by this very
        // instruction), so the check is statically true.
        if (kind == IntrinsicShape::kAssert &&
            inst->operand(0)->value_kind() == ir::ValueKind::kInstruction &&
            static_cast<const Instruction*>(inst->operand(0))->op() == Opcode::kFuncAddr) {
          // The fold is only exact when the FuncAddr has actually executed
          // by the time the assert reads its register (use-before-def IR is
          // verifier-legal: pre-definition the register holds a plain zero
          // and the assert rightly fires at O0) and when no user of the
          // assert can run before it.
          auto* fa = static_cast<Instruction*>(inst->operand(0));
          if (dt.BlockOf(fa) != nullptr && dt.Dominates(fa, inst) &&
              dt.DominatesAllReachableUses(inst)) {
            Retire(inst, fa, kind, ctx, dead, stats);
            continue;
          }
        }
        const void* a = vn.Number(inst->operand(0));
        const void* b_op =
            inst->operands().size() > 1 ? vn.Number(inst->operand(1)) : nullptr;
        const ExprKey key{inst->intrinsic(), inst->type(), a, b_op};
        auto [it, fresh] = index.emplace(key, exprs.size());
        if (fresh) {
          ExprInfo info;
          info.kind = kind;
          info.kills.resize(nblocks);
          if (kind == IntrinsicShape::kLoad &&
              inst->operand(0)->value_kind() == ir::ValueKind::kInstruction) {
            const auto* addr = static_cast<const Instruction*>(inst->operand(0));
            if (addr->op() == Opcode::kGlobalAddr) {
              info.addr_class = AddrClass::kBareGlobal;
            } else if (addr->op() == Opcode::kAlloca) {
              info.addr_class = AddrClass::kBareAlloca;
              info.addr_alloca = addr;
            }
          }
          exprs.push_back(std::move(info));
        }
        exprs[it->second].generators.push_back(inst);
        expr_of[inst] = it->second;
      }
    }
    if (exprs.empty()) {
      EraseInstructions(f, dead);
      return !dead.empty();
    }

    // Expressions killed when a given instruction executes, because it
    // redefines a non-invariant register the expression's operands read.
    // Invariant definitions are exempt: re-execution rewrites the register
    // with identical bits. Registering every generator of an operand's own
    // key keeps this correct across rewires (see header comment).
    std::unordered_map<const Instruction*, std::vector<size_t>> redef_kills;
    for (const auto& [ignored, ei] : index) {
      (void)ignored;
      for (const Instruction* g : exprs[ei].generators) {
        for (const Value* v : g->operands()) {
          if (v->value_kind() != ir::ValueKind::kInstruction || vn.IsInvariant(v)) {
            continue;
          }
          const auto* def = static_cast<const Instruction*>(v);
          redef_kills[def].push_back(ei);
          auto dep = expr_of.find(def);
          if (dep != expr_of.end()) {
            for (Instruction* other : exprs[dep->second].generators) {
              if (other != def) {
                redef_kills[other].push_back(ei);
              }
            }
          }
        }
      }
    }

    // --- kill positions ----------------------------------------------------
    // One alias refinement survives the attack model: a plain store whose
    // address operand *is* an alloca result writes exactly that frame slot —
    // the register holds the alloca's own address, so the write can reach
    // neither a global's fixed slot nor a different alloca's slot, no matter
    // what an attacker corrupted elsewhere. (Any derived address — indexed,
    // cast, loaded — may point anywhere once corrupted and kills
    // conservatively.) This is what lets safe-store gets survive the
    // alloca-based loop-counter updates every loop body performs.
    const bool calls_may_free = module_frees;
    for (size_t b = 0; b < nblocks; ++b) {
      for (size_t i = 0; i < rpo[b]->instructions().size(); ++i) {
        const Instruction* inst = rpo[b]->instructions()[i];
        const bool writes = WritesMemory(inst);
        const bool frees =
            inst->op() == Opcode::kFree ||
            (calls_may_free && (inst->op() == Opcode::kCall ||
                                inst->op() == Opcode::kIndirectCall ||
                                inst->op() == Opcode::kSpawn ||
                                inst->op() == Opcode::kJoin ||
                                inst->op() == Opcode::kYield));
        const Value* confined_to = nullptr;  // the one alloca a bare store hits
        if (inst->op() == Opcode::kStore &&
            inst->operand(1)->value_kind() == ir::ValueKind::kInstruction &&
            static_cast<const Instruction*>(inst->operand(1))->op() == Opcode::kAlloca) {
          confined_to = inst->operand(1);
        }
        if (writes || frees) {
          for (ExprInfo& e : exprs) {
            bool killed = (writes && e.kind == IntrinsicShape::kLoad) ||
                          (frees && e.kind == IntrinsicShape::kCheck);
            if (killed && confined_to != nullptr &&
                (e.addr_class == AddrClass::kBareGlobal ||
                 (e.addr_class == AddrClass::kBareAlloca &&
                  e.addr_alloca != confined_to))) {
              killed = false;  // provably disjoint slots
            }
            if (killed) {
              e.kills[b].push_back(i);
            }
          }
        }
        auto it = redef_kills.find(inst);
        if (it != redef_kills.end()) {
          for (size_t ei : it->second) {
            auto& ks = exprs[ei].kills[b];
            if (ks.empty() || ks.back() != i) {
              ks.push_back(i);
            }
          }
        }
      }
    }

    // --- transform -----------------------------------------------------------
    // Cache of taint vectors per (expr, master).
    std::map<std::pair<size_t, const Instruction*>, std::vector<char>> taint_cache;

    auto has_kill_between = [&](const ExprInfo& e, size_t b, size_t lo, size_t hi) {
      for (size_t k : e.kills[b]) {
        if (k > lo && k < hi) {
          return true;
        }
      }
      return false;
    };
    auto has_kill_after = [&](const ExprInfo& e, size_t b, size_t p) {
      return !e.kills[b].empty() && e.kills[b].back() > p;
    };
    auto has_kill_before = [&](const ExprInfo& e, size_t b, size_t p) {
      return !e.kills[b].empty() && e.kills[b].front() < p;
    };

    // Taint[b]: some path from the master's execution to b's entry contains
    // a kill. Re-entering the master's block re-executes the master, so its
    // outgoing contribution depends only on kills *after* the master.
    auto taint_for = [&](size_t ei, const Instruction* master) -> const std::vector<char>& {
      auto key = std::make_pair(ei, master);
      auto cached = taint_cache.find(key);
      if (cached != taint_cache.end()) {
        return cached->second;
      }
      const ExprInfo& e = exprs[ei];
      const Position mp = pos.at(master);
      std::vector<char> taint(nblocks, 0);
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t b = 0; b < nblocks; ++b) {
          if (taint[b]) {
            continue;
          }
          char t = 0;
          for (const ir::BasicBlock* p : cfg.predecessors(rpo[b])) {
            const size_t pb = cfg.RpoIndex(p);
            if (pb == mp.block) {
              t = t || has_kill_after(e, pb, mp.index);
            } else {
              t = t || taint[pb] || !e.kills[pb].empty();
            }
            if (t) {
              break;
            }
          }
          if (t) {
            taint[b] = 1;
            changed = true;
          }
        }
      }
      return taint_cache.emplace(key, std::move(taint)).first->second;
    };

    auto kill_free_from = [&](size_t ei, const Instruction* master,
                              const Instruction* cand) {
      const ExprInfo& e = exprs[ei];
      const Position mp = pos.at(master);
      const Position cp = pos.at(cand);
      if (mp.block == cp.block && mp.index < cp.index) {
        return !has_kill_between(e, mp.block, mp.index, cp.index);
      }
      const std::vector<char>& taint = taint_for(ei, master);
      return !taint[cp.block] && !has_kill_before(e, cp.block, cp.index);
    };

    for (size_t b = 0; b < nblocks; ++b) {
      for (Instruction* inst : rpo[b]->instructions()) {
        auto it = expr_of.find(inst);
        if (it == expr_of.end() || dead.count(inst) > 0) {
          continue;
        }
        const ExprInfo& e = exprs[it->second];
        // Rewiring is only exact when no user can execute before this
        // instance and read its register pre-definition (use-before-def is
        // verifier-legal).
        if (e.kind != IntrinsicShape::kCheck && !dt.DominatesAllReachableUses(inst)) {
          continue;
        }
        for (Instruction* master : e.generators) {
          if (master == inst || dead.count(master) > 0 || !dt.Dominates(master, inst)) {
            continue;
          }
          if (kill_free_from(it->second, master, inst)) {
            Retire(inst, master, e.kind, ctx, dead, stats);
            break;
          }
        }
      }
    }

    EraseInstructions(f, dead);
    return !dead.empty();
  }

  static void Retire(Instruction* inst, Instruction* master, IntrinsicShape kind,
                     PipelineContext& ctx,
                     std::unordered_set<const Instruction*>& dead, PassStats& stats) {
    if (kind != IntrinsicShape::kCheck) {
      inst->ReplaceAllUsesWith(master);
    }
    ctx.RecordOperands(inst);
    inst->DropOperandUses();
    dead.insert(inst);
    ++stats.removed_instructions;
    const ir::IntrinsicInfo& info = ir::Info(inst->intrinsic());
    if (kind == IntrinsicShape::kLoad) {
      ++(info.seal ? stats.eliminated_seal_ops : stats.eliminated_safe_store_ops);
    } else {
      ++stats.eliminated_checks;
      if (info.seal) {
        ++stats.eliminated_seal_ops;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> CreateRedundancyEliminationPass() {
  return std::make_unique<RedundancyEliminationPass>();
}

}  // namespace cpi::opt
