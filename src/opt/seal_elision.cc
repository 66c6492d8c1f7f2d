// Seal→auth pair elision and leaf-frame return-token elision for PtrEnc
// (contributed by the ptrenc scheme via
// ProtectionScheme::ContributeOptPasses).
//
// Leaf frames: a function that provably cannot write memory or transfer
// control — no stores, store intrinsics, writing libcalls, calls, or heap
// ops — cannot touch its own saved return token between prologue and
// epilogue, and nothing else runs while its frame is live (the VM is
// single-threaded). The epilogue *authenticate* on that token is therefore
// unobservable and elided (the PAC deployments the scheme models make the
// corresponding leaf-function optimization). The prologue sign — and with
// it every byte the frame leaves in memory, live or stale — stays exactly
// as at O0, so no program read can ever tell the levels apart; only the
// authenticate work disappears.
//
// Pattern: a kSealStore writes a freshly-taken function address to a slot
// and a kSealLoad reads the same slot back with *no possible memory write in
// between* (straight-line, kill on anything that can write — the VM is
// deterministic and single-threaded, so with no intervening write the slot
// provably still holds the sealed word, even mid-attack). The load's
// authenticate then provably succeeds and strips back to the stored
// address with Code metadata — exactly the FuncAddr register — so the load
// is elided and its uses read the FuncAddr result directly. The store (and
// its seal) stays: the slot's contents must remain bit-identical for later
// loads, attacks and memory dumps.
//
// Only FuncAddr-produced values qualify: for any other stored value the
// sealing decision depends on runtime metadata (kSealStore only seals
// Code-tagged words), which a static pass cannot reproduce exactly.
#include <memory>
#include <unordered_map>

#include "src/opt/analysis.h"
#include "src/opt/dominators.h"
#include "src/opt/pass_manager.h"

namespace cpi::opt {
namespace {

using ir::Instruction;
using ir::IntrinsicId;
using ir::Opcode;
using ir::Value;

// Nothing in the function can write memory or leave the frame: no
// WritesMemory instruction (stores, calls, thread ops, writing libcalls and
// intrinsics), malloc or free.
bool IsPureLeaf(const ir::Function& f) {
  for (const auto& bb : f.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      if (WritesMemory(inst) || inst->op() == Opcode::kMalloc || inst->op() == Opcode::kFree) {
        return false;
      }
    }
  }
  return true;
}

class SealElisionPass final : public Pass {
 public:
  const char* name() const override { return "seal-elision"; }

  bool Run(ir::Module& module, PipelineContext& ctx, PassStats& stats) override {
    if (!module.protection().ptrenc) {
      return false;
    }
    bool changed = false;
    for (const auto& f : module.functions()) {
      std::unordered_set<const Instruction*> dead;
      // Built on demand, for the use-before-def guard on rewires.
      std::unique_ptr<Cfg> cfg;
      std::unique_ptr<DominatorTree> dt;
      for (const auto& bb : f->blocks()) {
        // addr value -> funcaddr value sealed into that slot by the latest
        // tracked kSealStore.
        std::unordered_map<const Value*, Value*> tracked;
        for (Instruction* inst : bb->instructions()) {
          if (inst->op() == Opcode::kIntrinsic &&
              inst->intrinsic() == IntrinsicId::kSealStore) {
            // A seal store to one slot may alias every tracked slot (two
            // address values can coincide at run time): drop everything,
            // then track this store if its value qualifies. Qualifying also
            // requires the FuncAddr to have executed by the time the store
            // reads its register (use-before-def IR is verifier-legal:
            // pre-definition the register holds a plain zero and the store
            // seals nothing), which per-block tracking alone cannot see
            // when the definition lives in another block.
            tracked.clear();
            Value* v = inst->operand(1);
            if (v->value_kind() == ir::ValueKind::kInstruction &&
                static_cast<Instruction*>(v)->op() == Opcode::kFuncAddr) {
              if (dt == nullptr) {
                cfg = std::make_unique<Cfg>(*f);
                dt = std::make_unique<DominatorTree>(*cfg);
              }
              auto* fa = static_cast<Instruction*>(v);
              if (dt->BlockOf(fa) != nullptr && dt->BlockOf(inst) != nullptr &&
                  dt->Dominates(fa, inst)) {
                tracked[inst->operand(0)] = v;
              }
            }
            continue;
          }
          if (inst->op() == Opcode::kIntrinsic &&
              inst->intrinsic() == IntrinsicId::kSealLoad) {
            auto it = tracked.find(inst->operand(0));
            if (it != tracked.end()) {
              if (dt == nullptr) {
                cfg = std::make_unique<Cfg>(*f);
                dt = std::make_unique<DominatorTree>(*cfg);
              }
              // A use-before-def user would read the load's register before
              // the load ran; rewiring it would change that read
              // (verifier-legal IR).
              if (dt->DominatesAllReachableUses(inst)) {
                inst->ReplaceAllUsesWith(it->second);
                ctx.RecordOperands(inst);
                inst->DropOperandUses();
                dead.insert(inst);
                ++stats.removed_instructions;
                ++stats.eliminated_seal_ops;  // the elided authenticate
                ++stats.forwarded_loads;
              }
            }
            continue;  // reads don't invalidate tracking
          }
          if (WritesMemory(inst)) {
            tracked.clear();
            continue;
          }
          // A (re)definition of a tracked address or value register breaks
          // the slot/value association for subsequent loads. This can only
          // happen with use-before-def IR (the verifier does not enforce
          // dominance; a register may be read before its defining
          // instruction runs, holding a previous block-execution's value),
          // but such IR is legal, so the guard stays.
          for (auto it = tracked.begin(); it != tracked.end();) {
            if (it->first == inst || it->second == inst) {
              it = tracked.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
      changed = changed || !dead.empty();
      EraseInstructions(*f, dead);

      if (!f->blocks().empty() && !f->ret_token_elidable() && IsPureLeaf(*f)) {
        f->set_ret_token_elidable(true);
        ++stats.leaf_ret_elisions;
        changed = true;
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> CreateSealElisionPass() {
  return std::make_unique<SealElisionPass>();
}

}  // namespace cpi::opt
