// The C++-language SPEC CPU2006 workload models (7 of Table 2's 19 rows).
//
// C++ here means the vtable pattern: every object embeds a pointer to a
// struct of function pointers, which makes every pointer to such an object
// *sensitive* under CPI ("abundant use of pointers to C++ objects that
// contain virtual function tables", §5.2) — these are the workloads where CPI
// is most expensive and CPS's relaxation pays off.
#include "src/workloads/common.h"
#include "src/workloads/workloads.h"

namespace cpi::workloads {
namespace {

using ir::Function;
using ir::GlobalVariable;
using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Value;

// A miniature class hierarchy: one object layout, N concrete classes, each
// with its own vtable global filled at startup (the compiler/runtime-created
// code pointers §3.2.1 lists as implicitly sensitive).
struct Hierarchy {
  StructType* obj = nullptr;    // { vt: VTable*, a: i64, b: i64, x: f64 }
  StructType* vtable = nullptr; // { m0: Method*, m1: Method* }
  const ir::FunctionType* method_ty = nullptr;
  std::vector<GlobalVariable*> vtables;              // one per class
  std::vector<std::vector<Function*>> methods;       // [class][method]
};

// Builds the types and per-class method stubs; `emit_method` fills each
// method body (receives `self` and must Ret an i64).
Hierarchy MakeHierarchy(
    Module& m, IRBuilder& b, const std::string& prefix, int num_classes,
    const std::function<void(IRBuilder&, Function*, int cls, int method, Value* self)>&
        emit_method) {
  Hierarchy h;
  auto& t = m.types();
  h.obj = t.GetOrCreateStruct(prefix + "_obj");
  h.vtable = t.GetOrCreateStruct(prefix + "_vtable");
  h.method_ty = t.FunctionTy(t.I64(), {t.PointerTo(h.obj)});
  h.vtable->SetBody({{"m0", t.PointerTo(h.method_ty), 0},
                     {"m1", t.PointerTo(h.method_ty), 0}});
  h.obj->SetBody({{"vt", t.PointerTo(h.vtable), 0},
                  {"a", t.I64(), 0},
                  {"b", t.I64(), 0},
                  {"x", t.FloatTy(), 0}});
  for (int c = 0; c < num_classes; ++c) {
    h.vtables.push_back(
        m.CreateGlobal(prefix + "_vt_" + std::to_string(c), h.vtable));
    std::vector<Function*> ms;
    for (int k = 0; k < 2; ++k) {
      Function* fn = m.CreateFunction(
          prefix + "_c" + std::to_string(c) + "_m" + std::to_string(k), h.method_ty);
      b.SetInsertPoint(fn->CreateBlock("entry"));
      emit_method(b, fn, c, k, fn->arg(0));
      ms.push_back(fn);
    }
    h.methods.push_back(ms);
  }
  return h;
}

// Emits vtable initialisation into the current insert point (runs once in
// main): vt_c.m_k = &method.
void InitVtables(IRBuilder& b, const Hierarchy& h) {
  for (size_t c = 0; c < h.vtables.size(); ++c) {
    Value* vt = b.GlobalAddr(h.vtables[c]);
    b.Store(b.FuncAddr(h.methods[c][0]), b.FieldAddr(vt, "m0"));
    b.Store(b.FuncAddr(h.methods[c][1]), b.FieldAddr(vt, "m1"));
  }
}

// obj->vt->m_k(obj): the two sensitive loads plus the protected indirect call
// of a C++ virtual dispatch.
Value* EmitVCall(IRBuilder& b, Value* obj, const std::string& method) {
  Value* vt = b.Load(b.FieldAddr(obj, "vt"));
  Value* fn = b.Load(b.FieldAddr(vt, method));
  return b.IndirectCall(fn, {obj});
}

// Allocates and initialises one object of class `cls`.
Value* EmitNewObject(IRBuilder& b, const Hierarchy& h, int cls, Value* a, Value* bv) {
  Value* obj = b.Malloc(b.I64(h.obj->SizeInBytes()),
                        b.module()->types().PointerTo(h.obj));
  b.Store(b.GlobalAddr(h.vtables[cls]), b.FieldAddr(obj, "vt"));
  b.Store(a, b.FieldAddr(obj, "a"));
  b.Store(bv, b.FieldAddr(obj, "b"));
  b.Store(b.F64(1.0), b.FieldAddr(obj, "x"));
  return obj;
}

void EmitArithMethod(IRBuilder& b, Function* fn, int cls, int method, Value* self) {
  Value* a = b.Load(b.FieldAddr(self, "a"));
  Value* bv = b.Load(b.FieldAddr(self, "b"));
  // Virtual methods in the modelled benchmarks do real work between the
  // dispatch points; without this ballast the sensitive-op fraction (and so
  // the measured overhead) would be unrealistically high.
  Value* r = a;
  for (int step = 0; step < 10; ++step) {
    switch ((cls * 2 + method + step) % 4) {
      case 0: r = b.Add(r, bv); break;
      case 1: r = b.Mul(r, b.I64(3)); break;
      case 2: r = b.Xor(r, b.Binary(ir::BinOp::kLShr, r, b.I64(5))); break;
      default: r = b.Sub(b.Mul(r, b.I64(5)), bv); break;
    }
  }
  b.Store(r, b.FieldAddr(self, "a"));
  (void)fn;
  b.Ret(r);
}

}  // namespace

// --- 471.omnetpp --------------------------------------------------------------
// Discrete-event simulation: a ring of polymorphic event objects, constant
// virtual dispatch, frequent allocation/free. The highest MOCPI in Table 2.
std::unique_ptr<Module> BuildOmnetpp(int scale) {
  auto m = std::make_unique<Module>("471.omnetpp");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  Hierarchy h = MakeHierarchy(*m, b, "ev", 3, EmitArithMethod);
  const uint64_t ring_size = 64;
  GlobalVariable* ring =
      m->CreateGlobal("ring", t.ArrayOf(t.PointerTo(h.obj), ring_size));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* s_slot = b.Alloca(t.I64(), "step");
  InitVtables(b, h);

  // Fill the ring: stores of sensitive object pointers.
  LoopBlocks fill = BeginLoop(b, main, i_slot, b.I64(0), b.I64(ring_size), "fill");
  Value* o0 = EmitNewObject(b, h, 0, fill.index, b.I64(7));
  b.Store(o0, b.IndexAddr(b.GlobalAddr(ring), fill.index));
  EndLoop(b, fill);

  // Event loop: pop an event (sensitive load), dispatch, replace it with a
  // fresh one of a rotating class (alloc/free churn).
  LoopBlocks steps = BeginLoop(b, main, s_slot, b.I64(0), b.I64(6000 * scale), "step");
  Value* pos = b.Binary(ir::BinOp::kURem, steps.index, b.I64(ring_size));
  Value* slot = b.IndexAddr(b.GlobalAddr(ring), pos);
  Value* ev = b.Load(slot, "ev");
  Value* r = EmitVCall(b, ev, "m0");
  AccumulateChecksum(b, checksum, r);
  // Every 8th event is retired and replaced.
  ir::BasicBlock* replace = main->CreateBlock("replace");
  ir::BasicBlock* keep = main->CreateBlock("keep");
  Value* retire = b.ICmpEq(b.Binary(ir::BinOp::kAnd, steps.index, b.I64(7)), b.I64(0));
  b.CondBr(retire, replace, keep);
  b.SetInsertPoint(replace);
  Value* old = b.Load(slot);
  b.Free(old);
  Value* fresh = EmitNewObject(b, h, 1, r, steps.index);
  b.Store(fresh, slot);
  b.Br(keep);
  b.SetInsertPoint(keep);
  EndLoop(b, steps);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 447.dealII ----------------------------------------------------------------
// Finite elements: a heap array of polymorphic element objects; the assembly
// loop virtually dispatches into numeric method bodies.
std::unique_ptr<Module> BuildDealII(int scale) {
  auto m = std::make_unique<Module>("447.dealII");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  Hierarchy h = MakeHierarchy(
      *m, b, "el", 3,
      [](IRBuilder& bb, Function* fn, int cls, int method, Value* self) {
        (void)fn;
        Value* x = bb.Load(bb.FieldAddr(self, "x"));
        Value* a = bb.Load(bb.FieldAddr(self, "a"));
        Value* fa = bb.Cast(ir::CastKind::kIntToFloat, a, bb.module()->types().FloatTy());
        // Quadrature-style floating-point work per element.
        Value* y = x;
        for (int q = 0; q < 8; ++q) {
          y = bb.Binary(ir::BinOp::kFAdd, bb.Binary(ir::BinOp::kFMul, y, fa),
                        bb.F64(0.25 * (cls + q + 1)));
          y = bb.Binary(ir::BinOp::kFMul, y, bb.F64(0.5));
        }
        if (method == 1) {
          y = bb.Binary(ir::BinOp::kFMul, y, y);
        }
        bb.Store(y, bb.FieldAddr(self, "x"));
        bb.Ret(bb.Cast(ir::CastKind::kFloatToInt, y, bb.module()->types().I64()));
      });

  const uint64_t elems = 192;
  GlobalVariable* mesh = m->CreateGlobal("mesh", t.ArrayOf(t.PointerTo(h.obj), elems));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pass");
  InitVtables(b, h);

  LoopBlocks fill = BeginLoop(b, main, i_slot, b.I64(0), b.I64(elems), "fill");
  Value* cls_sel = b.Binary(ir::BinOp::kURem, fill.index, b.I64(3));
  Value* o0 = EmitNewObject(b, h, 0, fill.index, b.I64(2));
  // Overwrite vt for classes 1/2 via selects (keeps one allocation site).
  Value* vt1 = b.Select(b.ICmpEq(cls_sel, b.I64(1)), b.GlobalAddr(h.vtables[1]),
                        b.GlobalAddr(h.vtables[0]));
  Value* vt = b.Select(b.ICmpEq(cls_sel, b.I64(2)), b.GlobalAddr(h.vtables[2]), vt1);
  b.Store(vt, b.FieldAddr(o0, "vt"));
  b.Store(o0, b.IndexAddr(b.GlobalAddr(mesh), fill.index));
  EndLoop(b, fill);

  LoopBlocks passes = BeginLoop(b, main, p_slot, b.I64(0), b.I64(40 * scale), "pass");
  LoopBlocks each = BeginLoop(b, main, i_slot, b.I64(0), b.I64(elems), "elem");
  Value* obj = b.Load(b.IndexAddr(b.GlobalAddr(mesh), each.index), "el");
  Value* area = EmitVCall(b, obj, "m0");
  Value* integ = EmitVCall(b, obj, "m1");
  AccumulateChecksum(b, checksum, b.Add(area, integ));
  EndLoop(b, each);
  EndLoop(b, passes);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 444.namd -------------------------------------------------------------------
// Numeric force computation with large local arrays whose addresses escape to
// helpers: they must live on the unsafe stack (namd has Table 2's highest
// FNUStack, 75.8%), and moving them there is where the safe stack's locality
// benefit shows up (§5.2).
std::unique_ptr<Module> BuildNamd(int scale) {
  auto m = std::make_unique<Module>("444.namd");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  const uint64_t n = 1024;
  const ir::PointerType* f64p = t.PointerTo(t.FloatTy());

  Function* fill = m->CreateFunction("fill", t.FunctionTy(t.VoidTy(), {f64p, t.I64()}));
  {
    b.SetInsertPoint(fill->CreateBlock("entry"));
    Value* arr = fill->arg(0);
    Value* seed = fill->arg(1);
    Value* i_slot = b.Alloca(t.I64(), "i");
    LoopBlocks l = BeginLoop(b, fill, i_slot, b.I64(0), b.I64(n), "fill");
    Value* v = b.Cast(ir::CastKind::kIntToFloat, b.Add(l.index, seed), t.FloatTy());
    b.Store(b.Binary(ir::BinOp::kFMul, v, b.F64(0.001)), b.IndexAddr(arr, l.index));
    EndLoop(b, l);
    b.Ret();
  }

  Function* reduce = m->CreateFunction("reduce", t.FunctionTy(t.I64(), {f64p}));
  {
    b.SetInsertPoint(reduce->CreateBlock("entry"));
    Value* arr = reduce->arg(0);
    Value* acc = b.Alloca(t.FloatTy(), "acc");
    Value* i_slot = b.Alloca(t.I64(), "i");
    b.Store(b.F64(0.0), acc);
    LoopBlocks l = BeginLoop(b, reduce, i_slot, b.I64(0), b.I64(n), "sum");
    Value* v = b.Load(b.IndexAddr(arr, l.index));
    b.Store(b.Binary(ir::BinOp::kFAdd, b.Load(acc), v), acc);
    EndLoop(b, l);
    b.Ret(b.Cast(ir::CastKind::kFloatToInt,
                 b.Binary(ir::BinOp::kFMul, b.Load(acc), b.F64(1000.0)), t.I64()));
  }

  Function* pass = m->CreateFunction("force_pass", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(pass->CreateBlock("entry"));
    Value* seed = pass->arg(0);
    // Two 8 KB local arrays; their addresses escape into fill/reduce.
    Value* pos = b.Alloca(t.ArrayOf(t.FloatTy(), n), "pos");
    Value* frc = b.Alloca(t.ArrayOf(t.FloatTy(), n), "frc");
    Value* i_slot = b.Alloca(t.I64(), "i");
    Value* pos0 = b.IndexAddr(pos, b.I64(0));
    Value* frc0 = b.IndexAddr(frc, b.I64(0));
    b.Call(fill, {pos0, seed});
    LoopBlocks l = BeginLoop(b, pass, i_slot, b.I64(0), b.I64(n), "force");
    Value* a = b.Load(b.IndexAddr(pos, l.index));
    Value* rev = b.Load(b.IndexAddr(pos, b.Sub(b.I64(n - 1), l.index)));
    Value* f = b.Binary(ir::BinOp::kFAdd, b.Binary(ir::BinOp::kFMul, a, b.F64(1.0001)),
                        b.Binary(ir::BinOp::kFMul, rev, b.F64(0.5)));
    b.Store(f, b.IndexAddr(frc, l.index));
    EndLoop(b, l);
    b.Ret(b.Call(reduce, {frc0}));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* r_slot = b.Alloca(t.I64(), "r");
  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(30 * scale), "round");
  AccumulateChecksum(b, checksum, b.Call(pass, {rounds.index}));
  EndLoop(b, rounds);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 450.soplex ------------------------------------------------------------------
// Sparse linear algebra with a polymorphic pricing strategy: mostly numeric,
// one virtual dispatch per pivot.
std::unique_ptr<Module> BuildSoplex(int scale) {
  auto m = std::make_unique<Module>("450.soplex");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  Hierarchy h = MakeHierarchy(*m, b, "pricer", 2, EmitArithMethod);
  const uint64_t n = 256;
  GlobalVariable* vals = m->CreateGlobal("vals", t.ArrayOf(t.FloatTy(), n));
  GlobalVariable* idxs = m->CreateGlobal("idxs", t.ArrayOf(t.I64(), n));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pivot");
  InitVtables(b, h);
  Value* pricer = EmitNewObject(b, h, 0, b.I64(11), b.I64(3));

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n), "init");
  b.Store(b.Cast(ir::CastKind::kIntToFloat, init.index, t.FloatTy()),
          b.IndexAddr(b.GlobalAddr(vals), init.index));
  b.Store(b.Binary(ir::BinOp::kURem, b.Mul(init.index, b.I64(7)), b.I64(n)),
          b.IndexAddr(b.GlobalAddr(idxs), init.index));
  EndLoop(b, init);

  LoopBlocks pivots = BeginLoop(b, main, p_slot, b.I64(0), b.I64(60 * scale), "pivot");
  // Sparse update sweep.
  LoopBlocks sweep = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n), "sweep");
  Value* j = b.Load(b.IndexAddr(b.GlobalAddr(idxs), sweep.index));
  Value* vj = b.Load(b.IndexAddr(b.GlobalAddr(vals), j));
  Value* vi = b.Load(b.IndexAddr(b.GlobalAddr(vals), sweep.index));
  b.Store(b.Binary(ir::BinOp::kFAdd, vi, b.Binary(ir::BinOp::kFMul, vj, b.F64(0.125))),
          b.IndexAddr(b.GlobalAddr(vals), sweep.index));
  EndLoop(b, sweep);
  AccumulateChecksum(b, checksum, EmitVCall(b, pricer, "m0"));
  EndLoop(b, pivots);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 453.povray -----------------------------------------------------------------
// Ray tracing: a linked list of polymorphic shapes (sensitive next pointers),
// virtual intersection tests, and char-buffer texture names (cookies/unsafe
// frames).
std::unique_ptr<Module> BuildPovray(int scale) {
  auto m = std::make_unique<Module>("453.povray");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* shape = t.GetOrCreateStruct("shape");
  const ir::FunctionType* isect_ty =
      t.FunctionTy(t.I64(), {t.PointerTo(shape), t.I64()});
  shape->SetBody({{"isect", t.PointerTo(isect_ty), 0},
                  {"next", t.PointerTo(shape), 0},
                  {"radius", t.FloatTy(), 0},
                  {"name", t.ArrayOf(t.CharTy(), 16), 0}});

  std::vector<Function*> isects;
  for (int k = 0; k < 2; ++k) {
    Function* fn = m->CreateFunction("isect_" + std::to_string(k), isect_ty);
    b.SetInsertPoint(fn->CreateBlock("entry"));
    Value* self = fn->arg(0);
    Value* ray = fn->arg(1);
    Value* r = b.Load(b.FieldAddr(self, "radius"));
    Value* fray = b.Cast(ir::CastKind::kIntToFloat, ray, t.FloatTy());
    Value* d = b.Binary(ir::BinOp::kFSub, b.Binary(ir::BinOp::kFMul, fray, b.F64(0.01)), r);
    Value* hit = k == 0 ? b.Binary(ir::BinOp::kFLt, d, b.F64(0.0))
                        : b.Binary(ir::BinOp::kFLe, b.Binary(ir::BinOp::kFMul, d, d),
                                   b.F64(4.0));
    b.Ret(hit);
    isects.push_back(fn);
  }

  GlobalVariable* name_src =
      m->CreateGlobal("name_src", t.ArrayOf(t.CharTy(), 8), /*is_const=*/true);
  name_src->set_initializer({'g', 'r', 'a', 'n', 'i', 't', 'e', 0});

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* head_slot = b.Alloca(t.PointerTo(shape), "head");
  Value* cur_slot = b.Alloca(t.PointerTo(shape), "cur");
  b.Store(b.Null(t.PointerTo(shape)), head_slot);

  LoopBlocks build = BeginLoop(b, main, i_slot, b.I64(0), b.I64(24), "scene");
  Value* s = b.Malloc(b.I64(shape->SizeInBytes()), t.PointerTo(shape));
  Value* which = b.Binary(ir::BinOp::kAnd, build.index, b.I64(1));
  Value* fn = b.Select(b.ICmpEq(which, b.I64(0)), b.FuncAddr(isects[0]),
                       b.FuncAddr(isects[1]));
  b.Store(fn, b.FieldAddr(s, "isect"));
  b.Store(b.Load(head_slot), b.FieldAddr(s, "next"));
  b.Store(b.Cast(ir::CastKind::kIntToFloat, build.index, t.FloatTy()),
          b.FieldAddr(s, "radius"));
  Value* name0 = b.IndexAddr(b.FieldAddr(s, "name"), b.I64(0));
  Value* src0 = b.IndexAddr(b.GlobalAddr(name_src), b.I64(0));
  b.LibCall(ir::LibFunc::kStrcpy, {name0, src0});
  b.Store(s, head_slot);
  EndLoop(b, build);

  LoopBlocks rays = BeginLoop(b, main, i_slot, b.I64(0), b.I64(3000 * scale), "ray");
  b.Store(b.Load(head_slot), cur_slot);
  ir::BasicBlock* wh = main->CreateBlock("walk.header");
  ir::BasicBlock* wb = main->CreateBlock("walk.body");
  ir::BasicBlock* we = main->CreateBlock("walk.exit");
  b.Br(wh);
  b.SetInsertPoint(wh);
  Value* cur = b.Load(cur_slot);
  b.CondBr(b.ICmpNe(b.PtrToInt(cur), b.I64(0)), wb, we);
  b.SetInsertPoint(wb);
  Value* cur2 = b.Load(cur_slot);
  Value* isect = b.Load(b.FieldAddr(cur2, "isect"));
  Value* hit = b.IndirectCall(isect, {cur2, rays.index});
  AccumulateChecksum(b, checksum, hit);
  b.Store(b.Load(b.FieldAddr(cur2, "next")), cur_slot);
  b.Br(wh);
  b.SetInsertPoint(we);
  EndLoop(b, rays);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 473.astar ------------------------------------------------------------------
// Grid pathfinding: plain data nodes (not sensitive) plus one heuristic
// function pointer.
std::unique_ptr<Module> BuildAstar(int scale) {
  auto m = std::make_unique<Module>("473.astar");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  const uint64_t dim = 64;

  const ir::FunctionType* heur_ty = t.FunctionTy(t.I64(), {t.I64(), t.I64()});
  GlobalVariable* heur_ptr = m->CreateGlobal("heur", t.PointerTo(heur_ty));
  Function* manhattan = m->CreateFunction("manhattan", heur_ty);
  {
    b.SetInsertPoint(manhattan->CreateBlock("entry"));
    Value* dx = b.Sub(b.I64(dim - 1), manhattan->arg(0));
    Value* dy = b.Sub(b.I64(dim - 1), manhattan->arg(1));
    Value* ax = b.Select(b.ICmpSLt(dx, b.I64(0)), b.Sub(b.I64(0), dx), dx);
    Value* ay = b.Select(b.ICmpSLt(dy, b.I64(0)), b.Sub(b.I64(0), dy), dy);
    b.Ret(b.Add(ax, ay));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* r_slot = b.Alloca(t.I64(), "round");
  Value* grid = b.Malloc(b.I64(dim * dim * 8), t.PointerTo(t.I64()), "grid");
  b.Store(b.FuncAddr(manhattan), b.GlobalAddr(heur_ptr));

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(dim * dim), "init");
  b.Store(b.Binary(ir::BinOp::kAnd, b.Mul(init.index, b.I64(2654435761)), b.I64(15)),
          b.IndexAddr(grid, init.index));
  EndLoop(b, init);

  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(30 * scale), "round");
  // Dijkstra-flavoured sweep: cost[i] = min(cost[i], cost[i-1] + w) + h().
  LoopBlocks sweep = BeginLoop(b, main, i_slot, b.I64(1), b.I64(dim * dim), "sweep");
  Value* prev = b.Load(b.IndexAddr(grid, b.Sub(sweep.index, b.I64(1))));
  Value* here = b.Load(b.IndexAddr(grid, sweep.index));
  Value* relax = b.Add(prev, b.I64(1));
  Value* best = b.Select(b.ICmpSLt(relax, here), relax, here);
  b.Store(best, b.IndexAddr(grid, sweep.index));
  EndLoop(b, sweep);
  Value* h_fn = b.Load(b.GlobalAddr(heur_ptr));
  Value* x = b.Binary(ir::BinOp::kAnd, rounds.index, b.I64(dim - 1));
  Value* est = b.IndirectCall(h_fn, {x, x});
  Value* goal = b.Load(b.IndexAddr(grid, b.I64(dim * dim - 1)));
  AccumulateChecksum(b, checksum, b.Add(goal, est));
  EndLoop(b, rounds);

  b.Free(grid);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 483.xalancbmk ----------------------------------------------------------------
// XML transformation: a polymorphic node tree with inline name buffers;
// recursive virtual traversal plus string comparisons — both MOCPS and MOCPI
// are high.
std::unique_ptr<Module> BuildXalanc(int scale) {
  auto m = std::make_unique<Module>("483.xalancbmk");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* node = t.GetOrCreateStruct("xml_node");
  const ir::FunctionType* visit_ty = t.FunctionTy(t.I64(), {t.PointerTo(node)});
  node->SetBody({{"visit", t.PointerTo(visit_ty), 0},
                 {"left", t.PointerTo(node), 0},
                 {"right", t.PointerTo(node), 0},
                 {"name", t.ArrayOf(t.CharTy(), 16), 0},
                 {"value", t.I64(), 0}});

  GlobalVariable* tag_a = m->CreateGlobal("tag_a", t.ArrayOf(t.CharTy(), 8), true);
  tag_a->set_initializer({'e', 'l', 'e', 'm', 0});
  GlobalVariable* tag_b = m->CreateGlobal("tag_b", t.ArrayOf(t.CharTy(), 8), true);
  tag_b->set_initializer({'a', 't', 't', 'r', 0});

  std::vector<Function*> visits;
  for (int k = 0; k < 2; ++k) {
    Function* fn = m->CreateFunction("visit_" + std::to_string(k), visit_ty);
    b.SetInsertPoint(fn->CreateBlock("entry"));
    Value* self = fn->arg(0);
    Value* name0 = b.IndexAddr(b.FieldAddr(self, "name"), b.I64(0));
    Value* tag0 = b.IndexAddr(b.GlobalAddr(k == 0 ? tag_a : tag_b), b.I64(0));
    Value* cmp = b.LibCall(ir::LibFunc::kStrcmp, {name0, tag0});
    Value* v = b.Load(b.FieldAddr(self, "value"));
    // Transformation work per node (xpath-evaluation stand-in).
    Value* r = v;
    for (int step = 0; step < 8; ++step) {
      r = b.Add(b.Mul(r, b.I64(k == 0 ? 3 : 7)),
                b.Xor(r, b.Binary(ir::BinOp::kLShr, r, b.I64(3))));
    }
    r = b.Add(r, b.Select(b.ICmpEq(cmp, b.I64(0)), b.I64(100), b.I64(1)));
    b.Store(r, b.FieldAddr(self, "value"));
    b.Ret(r);
    visits.push_back(fn);
  }

  // traverse(n): vcall n->visit(n), recurse left/right.
  Function* traverse = m->CreateFunction("traverse", visit_ty);
  {
    b.SetInsertPoint(traverse->CreateBlock("entry"));
    Value* n = traverse->arg(0);
    ir::BasicBlock* body = traverse->CreateBlock("body");
    ir::BasicBlock* null_bb = traverse->CreateBlock("null");
    b.CondBr(b.ICmpNe(b.PtrToInt(n), b.I64(0)), body, null_bb);
    b.SetInsertPoint(null_bb);
    b.Ret(b.I64(0));
    b.SetInsertPoint(body);
    Value* visit = b.Load(b.FieldAddr(n, "visit"));
    Value* r = b.IndirectCall(visit, {n});
    Value* left = b.Load(b.FieldAddr(n, "left"));
    Value* right = b.Load(b.FieldAddr(n, "right"));
    Value* rl = b.Call(traverse, {left});
    Value* rr = b.Call(traverse, {right});
    b.Ret(b.Add(r, b.Add(rl, rr)));
  }

  // build(depth, seed) -> node*
  Function* build = m->CreateFunction(
      "build", t.FunctionTy(t.PointerTo(node), {t.I64(), t.I64()}));
  {
    b.SetInsertPoint(build->CreateBlock("entry"));
    Value* depth = build->arg(0);
    Value* seed = build->arg(1);
    ir::BasicBlock* leaf = build->CreateBlock("leaf");
    ir::BasicBlock* inner = build->CreateBlock("inner");
    b.CondBr(b.ICmpSLt(depth, b.I64(1)), leaf, inner);
    b.SetInsertPoint(leaf);
    b.Ret(b.Null(t.PointerTo(node)));
    b.SetInsertPoint(inner);
    Value* n = b.Malloc(b.I64(node->SizeInBytes()), t.PointerTo(node));
    Value* which = b.Binary(ir::BinOp::kAnd, seed, b.I64(1));
    Value* fn = b.Select(b.ICmpEq(which, b.I64(0)), b.FuncAddr(visits[0]),
                         b.FuncAddr(visits[1]));
    b.Store(fn, b.FieldAddr(n, "visit"));
    Value* name0 = b.IndexAddr(b.FieldAddr(n, "name"), b.I64(0));
    Value* tag0 = b.IndexAddr(b.GlobalAddr(tag_a), b.I64(0));
    b.LibCall(ir::LibFunc::kStrcpy, {name0, tag0});
    b.Store(seed, b.FieldAddr(n, "value"));
    Value* d1 = b.Sub(depth, b.I64(1));
    Value* l = b.Call(build, {d1, b.Mul(seed, b.I64(3))});
    Value* r = b.Call(build, {d1, b.Add(b.Mul(seed, b.I64(3)), b.I64(1))});
    b.Store(l, b.FieldAddr(n, "left"));
    b.Store(r, b.FieldAddr(n, "right"));
    b.Ret(n);
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* r_slot = b.Alloca(t.I64(), "round");
  Value* root = b.Call(build, {b.I64(8), b.I64(1)});
  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(15 * scale), "round");
  AccumulateChecksum(b, checksum, b.Call(traverse, {root}));
  EndLoop(b, rounds);
  EmitChecksumAndRet(b, checksum);
  return m;
}

}  // namespace cpi::workloads
