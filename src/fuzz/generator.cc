#include "src/fuzz/generator.h"

#include <algorithm>
#include <deque>
#include <string>

#include "src/ir/builder.h"
#include "src/support/check.h"
#include "src/support/rng.h"

namespace cpi::fuzz {

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::Function;
using ir::GlobalVariable;
using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Value;

constexpr uint64_t kBufBytes = 64;   // global char buffers
constexpr int kMaxSpawnsTotal = 6;   // well under vm::kMaxThreads

uint32_t Clamp(uint32_t v, uint32_t lo, uint32_t hi) {
  return std::min(std::max(v, lo), hi);
}

// Materialization state: the straight-line op trace lets the generator track
// the exact runtime state of every cell and worker statically, which is how
// hazard windows stay *chosen* rather than accidental.
enum class CellState { kNone, kLive, kFreed };

// Builds the module for one plan. A plain struct (not a class with an Rng):
// everything is a deterministic function of the plan.
struct Builder {
  const Plan& plan;
  std::unique_ptr<Module> m;
  ir::TypeContext* t = nullptr;
  IRBuilder b;

  const ir::FunctionType* fn_ty = nullptr;
  GlobalVariable* table = nullptr;
  GlobalVariable* acc = nullptr;
  GlobalVariable* buf_a = nullptr;
  GlobalVariable* buf_b = nullptr;
  StructType* box_ty = nullptr;

  std::vector<Function*> leaves;   // mutate acc; main-thread only
  std::vector<Function*> pures;    // arithmetic only; worker-safe
  std::vector<Function*> mids;     // call leaves (nested call graph)
  std::vector<Function*> workers;  // self-contained thread bodies
  Function* shared_reader = nullptr;  // cross-shard reader worker
  Value* shared_cell = nullptr;       // main-homed code-pointer cell it reads

  Function* main_fn = nullptr;
  std::vector<Value*> slots;      // i64 allocas
  std::vector<Value*> cell_ptrs;  // i64* allocas holding cell addresses
  std::vector<CellState> cells;
  Value* the_box = nullptr;

  std::vector<Value*> tid_slots;    // one alloca per executed spawn
  std::deque<size_t> outstanding;   // indices into tid_slots, FIFO
  int spawns_total = 0;

  uint32_t num_slots, num_leaves, num_pure, num_cells, num_workers;

  explicit Builder(const Plan& p)
      : plan(p),
        m(std::make_unique<Module>("fuzz")),
        b(m.get()),
        num_slots(Clamp(p.num_slots, 1, 8)),
        num_leaves(Clamp(p.num_leaves, 1, 6)),
        num_pure(Clamp(p.num_pure, 1, 4)),
        num_cells(Clamp(p.num_cells, 1, 8)),
        num_workers(std::min(p.num_workers, 4u)) {
    t = &m->types();
  }

  Value* Slot(uint32_t raw) { return slots[raw % num_slots]; }
  Value* LoadSlot(uint32_t raw) { return b.Load(Slot(raw)); }
  void FoldInto(uint32_t raw, Value* v) { b.Store(b.Add(b.Load(Slot(raw)), v), Slot(raw)); }

  void BuildCallees() {
    for (uint32_t k = 0; k < num_leaves; ++k) {
      Function* fn = m->CreateFunction("leaf" + std::to_string(k), fn_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      Value* x = fn->arg(0);
      Value* g = b.Load(b.GlobalAddr(acc));
      Value* r;
      switch (k % 4) {
        case 0: r = b.Add(x, g); break;
        case 1: r = b.Xor(b.Mul(x, b.I64(3)), g); break;
        case 2: r = b.Sub(g, x); break;
        default: r = b.Binary(BinOp::kOr, x, b.I64(0x55)); break;
      }
      b.Store(r, b.GlobalAddr(acc));
      b.Ret(r);
      leaves.push_back(fn);
    }
    // Pure leaves never touch globals or shared memory: a worker calling one
    // concurrently with main is race-free by construction.
    for (uint32_t k = 0; k < num_pure; ++k) {
      Function* fn = m->CreateFunction("pure" + std::to_string(k), fn_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      Value* x = fn->arg(0);
      Value* r = k % 2 == 0 ? b.Add(b.Mul(x, b.I64(5 + k)), b.I64(17))
                            : b.Xor(b.Binary(BinOp::kShl, x, b.I64(1)), b.I64(0x2a + k));
      b.Ret(r);
      pures.push_back(fn);
    }
    // Mid-level functions give call chains depth: main -> mid -> leaf.
    for (uint32_t k = 0; k < 2; ++k) {
      Function* fn = m->CreateFunction("mid" + std::to_string(k), fn_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      Value* x = fn->arg(0);
      Value* r1 = b.Call(leaves[k % num_leaves], {b.Add(x, b.I64(k))});
      Value* r2 = b.Call(leaves[(k + 1) % num_leaves], {b.Xor(x, b.I64(3))});
      b.Ret(b.Add(r1, r2));
      mids.push_back(fn);
    }
  }

  // A worker is entirely self-contained: its own allocas (per-thread stacks),
  // its own heap cell (per-thread arena + free lists), indirect calls through
  // a private pointer table into pure leaves. It never reads or writes state
  // main (or another worker) mutates, so any interleaving yields the same
  // result — the property that keeps the quantum sweep a counter-identity
  // check even for threaded plans.
  void BuildWorkers() {
    for (uint32_t w = 0; w < num_workers; ++w) {
      Function* fn = m->CreateFunction("worker" + std::to_string(w), fn_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      Value* x = fn->arg(0);
      Value* h = b.Malloc(b.I64(8), t->PointerTo(t->I64()));
      b.Store(b.Add(x, b.I64(w)), h);
      Value* tbl = b.Alloca(t->ArrayOf(t->PointerTo(fn_ty), 2), "wtbl");
      b.Store(b.FuncAddr(pures[w % num_pure]), b.IndexAddr(tbl, b.I64(0)));
      b.Store(b.FuncAddr(pures[(w + 1) % num_pure]), b.IndexAddr(tbl, b.I64(1)));

      Value* s_slot = b.Alloca(t->I64(), "ws");
      Value* i_slot = b.Alloca(t->I64(), "wi");
      b.Store(b.I64(0), s_slot);
      b.Store(b.I64(0), i_slot);
      const uint64_t iters = 3 + w % 4;
      BasicBlock* header = fn->CreateBlock("w.h");
      BasicBlock* body = fn->CreateBlock("w.b");
      BasicBlock* exit = fn->CreateBlock("w.e");
      b.Br(header);
      b.SetInsertPoint(header);
      b.CondBr(b.ICmpSLt(b.Load(i_slot), b.I64(iters)), body, exit);
      b.SetInsertPoint(body);
      Value* i = b.Load(i_slot);
      Value* fp = b.Load(b.IndexAddr(tbl, b.And(i, b.I64(1))));
      Value* r = b.IndirectCall(fp, {b.Add(x, i)});
      b.Store(b.Add(b.Load(s_slot), r), s_slot);
      b.Store(b.Add(b.Load(h), r), h);
      if (w % 2 == 1) {
        b.Yield();
      }
      b.Store(b.Add(i, b.I64(1)), i_slot);
      b.Br(header);
      b.SetInsertPoint(exit);
      Value* v = b.Load(h);
      b.Free(h);
      b.Ret(b.Add(b.Load(s_slot), v));
      workers.push_back(fn);
    }
    // The shared-reader worker generates cross-shard safe-store traffic by
    // construction: its only input is a main-homed heap cell holding a code
    // pointer. Every iteration re-reads that cell (under CPI, a safe-store
    // load homed to another thread's shard) and republishes the pointer
    // through a private arena cell before the indirect call. Race-free: the
    // shared cell is written once in the prologue and never mutated again.
    if (num_workers > 0) {
      const auto* sreader_ty =
          t->FunctionTy(t->I64(), {t->PointerTo(t->PointerTo(fn_ty))});
      Function* fn = m->CreateFunction("shared_reader", sreader_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      Value* src = fn->arg(0);
      Value* mine = b.Malloc(b.I64(8), t->PointerTo(t->PointerTo(fn_ty)));
      Value* s_slot = b.Alloca(t->I64(), "srs");
      Value* i_slot = b.Alloca(t->I64(), "sri");
      b.Store(b.I64(0), s_slot);
      b.Store(b.I64(0), i_slot);
      BasicBlock* header = fn->CreateBlock("sr.h");
      BasicBlock* body = fn->CreateBlock("sr.b");
      BasicBlock* exit = fn->CreateBlock("sr.e");
      b.Br(header);
      b.SetInsertPoint(header);
      b.CondBr(b.ICmpSLt(b.Load(i_slot), b.I64(5)), body, exit);
      b.SetInsertPoint(body);
      Value* fp = b.Load(src);
      b.Store(fp, mine);
      Value* i = b.Load(i_slot);
      Value* r = b.IndirectCall(b.Load(mine), {i});
      b.Store(b.Add(b.Load(s_slot), r), s_slot);
      b.Store(b.Add(i, b.I64(1)), i_slot);
      b.Br(header);
      b.SetInsertPoint(exit);
      Value* v = b.Load(s_slot);
      b.Free(mine);
      b.Ret(v);
      shared_reader = fn;
    }
  }

  void BuildMainPrologue() {
    main_fn = m->CreateFunction("main", t->FunctionTy(t->I64(), {}));
    b.SetInsertPoint(main_fn->CreateBlock("entry"));

    for (uint32_t i = 0; i < num_slots; ++i) {
      Value* s = b.Alloca(t->I64(), "l" + std::to_string(i));
      // Seed values come from the plan trace indirectly: the (i*2654435761)
      // mix keeps them distinct without consuming randomness here.
      b.Store(b.I64((plan.seed + i * 2654435761ULL) % 1000), s);
      slots.push_back(s);
    }
    for (int i = 0; i < 4; ++i) {
      b.Store(b.FuncAddr(leaves[i % num_leaves]),
              b.IndexAddr(b.GlobalAddr(table), b.I64(static_cast<uint64_t>(i))));
    }
    the_box = b.Malloc(b.I64(box_ty->SizeInBytes()), t->PointerTo(box_ty));
    b.Store(b.FuncAddr(leaves[0]), b.FieldAddr(the_box, "fp"));
    b.Store(b.I64(7), b.FieldAddr(the_box, "data"));
    Value* cell = b.Malloc(b.I64(8), t->PointerTo(t->I64()));
    b.Store(b.I64(11), cell);
    b.Store(b.Bitcast(cell, t->VoidPtrTy()), b.FieldAddr(the_box, "any"));

    if (shared_reader != nullptr) {
      shared_cell = b.Malloc(b.I64(8), t->PointerTo(t->PointerTo(fn_ty)));
      b.Store(b.FuncAddr(pures[0]), shared_cell);
    }

    const ir::PointerType* cell_ty = t->PointerTo(t->I64());
    for (uint32_t c = 0; c < num_cells; ++c) {
      Value* p = b.Alloca(cell_ty, "cell" + std::to_string(c));
      b.Store(b.Null(cell_ty), p);
      cell_ptrs.push_back(p);
      cells.push_back(CellState::kNone);
    }
  }

  // Degraded form for ops whose preconditions don't hold at this point of
  // the trace (e.g. kOpJoin with nothing outstanding): plain arithmetic, so
  // every trace position still does *something* observable.
  void EmitArith(const PlannedOp& op) {
    static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kAnd,
                                 BinOp::kOr,  BinOp::kXor, BinOp::kShl};
    Value* a = LoadSlot(op.a);
    Value* c = LoadSlot(op.b);
    Value* r = b.Binary(kOps[op.d % 7], a, b.And(c, b.I64(63)));
    b.Store(r, Slot(op.c));
  }

  void EmitOp(size_t index, const PlannedOp& op) {
    switch (static_cast<OpKind>(op.kind % kNumOpKinds)) {
      case kOpArith:
        EmitArith(op);
        break;
      case kOpDiv: {
        Value* divisor = b.Binary(BinOp::kOr, LoadSlot(op.b), b.I64(1));
        b.Store(b.Binary(BinOp::kUDiv, LoadSlot(op.a), divisor), Slot(op.c));
        break;
      }
      case kOpTableCall: {
        Value* idx = b.And(LoadSlot(op.a), b.I64(3));
        Value* fp = b.Load(b.IndexAddr(b.GlobalAddr(table), idx));
        b.Store(b.IndirectCall(fp, {LoadSlot(op.b)}), Slot(op.c));
        break;
      }
      case kOpTableRotate: {
        Value* idx = b.And(LoadSlot(op.a), b.I64(3));
        Value* jdx = b.And(LoadSlot(op.b), b.I64(3));
        Value* fi = b.Load(b.IndexAddr(b.GlobalAddr(table), idx));
        b.Store(fi, b.IndexAddr(b.GlobalAddr(table), jdx));
        break;
      }
      case kOpBoxCall: {
        Value* fp = b.Load(b.FieldAddr(the_box, "fp"));
        Value* r = b.IndirectCall(fp, {LoadSlot(op.a)});
        b.Store(b.Add(r, b.Load(b.FieldAddr(the_box, "data"))),
                b.FieldAddr(the_box, "data"));
        break;
      }
      case kOpAnyRoundTrip: {
        Value* any = b.Load(b.FieldAddr(the_box, "any"));
        Value* as_int = b.Bitcast(any, t->PointerTo(t->I64()));
        b.Store(b.Add(b.Load(as_int), b.I64(1)), as_int);
        break;
      }
      case kOpLoop: {
        Value* n = b.And(LoadSlot(op.a), b.I64(15));
        Value* i_slot = b.Alloca(t->I64(), "fi");
        b.Store(b.I64(0), i_slot);
        const std::string tag = std::to_string(index);
        BasicBlock* header = main_fn->CreateBlock("f.h" + tag);
        BasicBlock* body = main_fn->CreateBlock("f.b" + tag);
        BasicBlock* exit = main_fn->CreateBlock("f.e" + tag);
        b.Br(header);
        b.SetInsertPoint(header);
        b.CondBr(b.ICmpSLt(b.Load(i_slot), n), body, exit);
        b.SetInsertPoint(body);
        b.Store(b.Add(b.Load(b.GlobalAddr(acc)), b.Load(i_slot)), b.GlobalAddr(acc));
        b.Store(b.Add(b.Load(i_slot), b.I64(1)), i_slot);
        b.Br(header);
        b.SetInsertPoint(exit);
        break;
      }
      case kOpSelect: {
        Value* a = LoadSlot(op.a);
        Value* c = LoadSlot(op.b);
        Value* r = b.Select(b.ICmpSLt(a, c), b.Add(a, b.I64(1)), b.Sub(c, b.I64(1)));
        b.Store(r, Slot(op.c));
        break;
      }
      case kOpCellAlloc: {
        const size_t c = op.a % num_cells;
        if (cells[c] == CellState::kLive) {
          EmitArith(op);
          break;
        }
        // Re-allocating a previously freed cell draws from the thread's free
        // list: the recycled address makes earlier stale pointers alias the
        // new object — the classic reuse window temporal defenses target.
        Value* p = b.Malloc(b.I64(8), t->PointerTo(t->I64()));
        b.Store(b.I64(100 + op.b % 97), p);
        b.Store(p, cell_ptrs[c]);
        cells[c] = CellState::kLive;
        break;
      }
      case kOpCellUse: {
        const size_t c = op.a % num_cells;
        if (cells[c] != CellState::kLive) {
          EmitArith(op);
          break;
        }
        Value* p = b.Load(cell_ptrs[c]);
        b.Store(b.Add(b.Load(p), b.I64(1 + op.b % 7)), p);
        break;
      }
      case kOpCellFree: {
        const size_t c = op.a % num_cells;
        if (cells[c] != CellState::kLive) {
          EmitArith(op);
          break;
        }
        // The stale pointer intentionally stays in the cell slot.
        b.Free(b.Load(cell_ptrs[c]));
        cells[c] = CellState::kFreed;
        break;
      }
      case kOpUafRead: {
        const size_t c = op.a % num_cells;
        if (cells[c] != CellState::kFreed) {
          EmitArith(op);
          break;
        }
        // Freed heap stays mapped, so the stale read is deterministic (it
        // sees the old value, or the recycled object after a kOpCellAlloc
        // reuse) and identical for every scheme with temporal checks off.
        FoldInto(op.b, b.Load(b.Load(cell_ptrs[c])));
        break;
      }
      case kOpDoubleFree: {
        const size_t c = op.a % num_cells;
        // Only fire with no worker outstanding: the crash ends the run
        // immediately, and in-flight workers' partial progress at that
        // instant would make counters quantum-dependent.
        if (cells[c] != CellState::kFreed || !outstanding.empty()) {
          EmitArith(op);
          break;
        }
        // Deterministic crash ("invalid or double free") in every scheme and
        // engine; the trace's remaining ops are emitted but never execute.
        b.Free(b.Load(cell_ptrs[c]));
        break;
      }
      case kOpNestedCall: {
        Value* r = b.Call(mids[op.a % mids.size()], {LoadSlot(op.b)});
        b.Store(r, Slot(op.c));
        break;
      }
      case kOpStrTraffic: {
        const uint64_t n = 1 + op.a % (kBufBytes / 2 - 1);
        const uint64_t fill = 'a' + op.b % 26;
        Value* pa = b.IndexAddr(b.GlobalAddr(buf_a), b.I64(0));
        b.LibCall(ir::LibFunc::kMemset, {pa, b.I64(fill), b.I64(n)});
        b.Store(b.Char(0), b.IndexAddr(b.GlobalAddr(buf_a), b.I64(n)));
        Value* len = b.LibCall(ir::LibFunc::kStrlen, {pa});
        Value* pb = b.IndexAddr(b.GlobalAddr(buf_b), b.I64(0));
        b.LibCall(ir::LibFunc::kStrcpy, {pb, pa});
        Value* cmp = b.LibCall(ir::LibFunc::kStrcmp, {pb, pa});
        FoldInto(op.c, b.Add(len, cmp));
        break;
      }
      case kOpMemCopy: {
        const uint64_t off = op.a % 16;
        const uint64_t n = 8 + op.b % 17;  // off + n <= 40 < kBufBytes
        Value* pa = b.IndexAddr(b.GlobalAddr(buf_a), b.I64(0));
        Value* pb = b.IndexAddr(b.GlobalAddr(buf_b), b.I64(off));
        b.LibCall(ir::LibFunc::kMemcpy, {pb, pa, b.I64(n)});
        Value* byte = b.Load(b.IndexAddr(b.GlobalAddr(buf_b), b.I64(off + op.c % n)));
        FoldInto(op.d, b.Cast(ir::CastKind::kZExt, byte, t->I64()));
        break;
      }
      case kOpSpawn: {
        if (workers.empty() || spawns_total >= kMaxSpawnsTotal) {
          EmitArith(op);
          break;
        }
        Value* tid = b.Spawn(workers[op.a % workers.size()], {LoadSlot(op.b)});
        Value* slot = b.Alloca(t->I64(), "tid" + std::to_string(tid_slots.size()));
        b.Store(tid, slot);
        outstanding.push_back(tid_slots.size());
        tid_slots.push_back(slot);
        ++spawns_total;
        break;
      }
      case kOpJoin: {
        if (outstanding.empty()) {
          EmitArith(op);
          break;
        }
        const size_t idx = outstanding.front();
        outstanding.pop_front();
        Value* r = b.Join(b.Load(tid_slots[idx]));
        FoldInto(op.b, r);
        break;
      }
      case kOpYield:
        b.Yield();
        break;
      case kOpSpawnShared: {
        if (shared_reader == nullptr || spawns_total >= kMaxSpawnsTotal) {
          EmitArith(op);
          break;
        }
        Value* tid = b.Spawn(shared_reader, {shared_cell});
        Value* slot = b.Alloca(t->I64(), "tid" + std::to_string(tid_slots.size()));
        b.Store(tid, slot);
        outstanding.push_back(tid_slots.size());
        tid_slots.push_back(slot);
        ++spawns_total;
        break;
      }
      case kOpWorkerChurn: {
        // Worker churn in one op: spawn the shared reader, join it, spawn a
        // replacement, join that too. Under epoch migration every join
        // retires the worker's home group and every spawn re-publishes
        // ownership with the replacement inheriting the group — the server
        // worker-pool pattern, exercised at fuzz scale. Both workers are
        // fully reaped inside the op, so the outstanding set is unchanged.
        if (shared_reader == nullptr || spawns_total + 2 > kMaxSpawnsTotal) {
          EmitArith(op);
          break;
        }
        for (int g = 0; g < 2; ++g) {
          Value* tid = b.Spawn(shared_reader, {shared_cell});
          FoldInto(g == 0 ? op.b : op.c, b.Join(tid));
          ++spawns_total;
        }
        break;
      }
      case kNumOpKinds:
        break;
    }
  }

  void EmitEpilogue() {
    // Every spawned thread is joined before main returns; otherwise worker
    // progress at process exit — and with it the counters — would depend on
    // the scheduling quantum.
    while (!outstanding.empty()) {
      const size_t idx = outstanding.front();
      outstanding.pop_front();
      Value* r = b.Join(b.Load(tid_slots[idx]));
      b.Store(b.Add(b.Load(b.GlobalAddr(acc)), r), b.GlobalAddr(acc));
    }
    for (Value* s : slots) {
      b.Output(b.Load(s));
    }
    b.Output(b.Load(b.GlobalAddr(acc)));
    b.Output(b.Load(b.FieldAddr(the_box, "data")));
    Value* any = b.Load(b.FieldAddr(the_box, "any"));
    b.Output(b.Load(b.Bitcast(any, t->PointerTo(t->I64()))));
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c] == CellState::kLive) {
        b.Output(b.Load(b.Load(cell_ptrs[c])));
      } else {
        // State marker so a shrunk plan that flips a cell's fate still
        // changes the output vector.
        b.Output(b.I64(0xdead0000 + c * 16 + (cells[c] == CellState::kFreed ? 1 : 0)));
      }
    }
    b.Ret(b.I64(0));
  }

  std::unique_ptr<Module> Build() {
    fn_ty = t->FunctionTy(t->I64(), {t->I64()});
    table = m->CreateGlobal("table", t->ArrayOf(t->PointerTo(fn_ty), 4));
    acc = m->CreateGlobal("acc", t->I64());
    buf_a = m->CreateGlobal("buf_a", t->ArrayOf(t->CharTy(), kBufBytes));
    buf_b = m->CreateGlobal("buf_b", t->ArrayOf(t->CharTy(), kBufBytes));
    box_ty = t->GetOrCreateStruct("box");
    box_ty->SetBody({{"fp", t->PointerTo(fn_ty), 0},
                     {"data", t->I64(), 0},
                     {"any", t->VoidPtrTy(), 0}});
    BuildCallees();
    BuildWorkers();
    BuildMainPrologue();
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      EmitOp(i, plan.ops[i]);
    }
    EmitEpilogue();
    return std::move(m);
  }
};

}  // namespace

Plan MakePlan(uint64_t seed, const GenOptions& options) {
  Rng rng(seed);
  Plan plan;
  plan.seed = seed;
  plan.num_slots = 3 + static_cast<uint32_t>(rng.NextBelow(4));
  plan.num_leaves = 3 + static_cast<uint32_t>(rng.NextBelow(3));
  plan.num_pure = 2 + static_cast<uint32_t>(rng.NextBelow(2));
  plan.num_cells = 2 + static_cast<uint32_t>(rng.NextBelow(4));
  plan.num_workers = options.threads ? static_cast<uint32_t>(rng.NextBelow(3)) : 0;

  // Weighted grammar: hazards are rare (a double free ends the program) and
  // thread ops moderate; plain data/control/pointer traffic dominates.
  std::vector<OpKind> bag;
  auto add = [&bag](OpKind k, int weight) { bag.insert(bag.end(), weight, k); };
  add(kOpArith, 6);
  add(kOpDiv, 3);
  add(kOpTableCall, 5);
  add(kOpTableRotate, 3);
  add(kOpBoxCall, 4);
  add(kOpAnyRoundTrip, 3);
  add(kOpLoop, 3);
  add(kOpSelect, 3);
  add(kOpCellAlloc, 5);
  add(kOpCellUse, 4);
  add(kOpCellFree, 4);
  add(kOpNestedCall, 3);
  add(kOpStrTraffic, 2);
  add(kOpMemCopy, 2);
  if (options.hazards) {
    add(kOpUafRead, 3);
    add(kOpDoubleFree, 1);
  }
  if (options.threads && plan.num_workers > 0) {
    add(kOpSpawn, 3);
    add(kOpJoin, 2);
    add(kOpYield, 1);
    add(kOpSpawnShared, 2);
    add(kOpWorkerChurn, 2);
  }

  CPI_CHECK(options.min_ops >= 1 && options.max_ops >= options.min_ops);
  const int num_ops =
      options.min_ops +
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(options.max_ops - options.min_ops) + 1));
  plan.ops.reserve(static_cast<size_t>(num_ops));
  for (int i = 0; i < num_ops; ++i) {
    PlannedOp op;
    op.kind = static_cast<uint8_t>(bag[rng.NextBelow(bag.size())]);
    op.a = static_cast<uint32_t>(rng.NextU64());
    op.b = static_cast<uint32_t>(rng.NextU64());
    op.c = static_cast<uint32_t>(rng.NextU64());
    op.d = static_cast<uint32_t>(rng.NextU64());
    plan.ops.push_back(op);
  }
  return plan;
}

std::unique_ptr<ir::Module> Materialize(const Plan& plan) {
  return Builder(plan).Build();
}

}  // namespace cpi::fuzz
