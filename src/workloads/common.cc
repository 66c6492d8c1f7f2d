#include "src/workloads/common.h"

namespace cpi::workloads {

LoopBlocks BeginLoop(ir::IRBuilder& b, ir::Function* f, ir::Value* slot, ir::Value* start,
                     ir::Value* limit, const std::string& tag) {
  LoopBlocks loop;
  loop.slot = slot;
  loop.header = f->CreateBlock(tag + ".header");
  loop.body = f->CreateBlock(tag + ".body");
  loop.exit = f->CreateBlock(tag + ".exit");

  b.Store(start, slot);
  b.Br(loop.header);

  b.SetInsertPoint(loop.header);
  ir::Value* i = b.Load(slot, tag + ".i");
  b.CondBr(b.ICmpSLt(i, limit), loop.body, loop.exit);

  b.SetInsertPoint(loop.body);
  loop.index = b.Load(slot, tag + ".idx");
  return loop;
}

void EndLoop(ir::IRBuilder& b, const LoopBlocks& loop, uint64_t step) {
  ir::Value* i = b.Load(loop.slot);
  b.Store(b.Add(i, b.I64(step)), loop.slot);
  b.Br(loop.header);
  b.SetInsertPoint(loop.exit);
}

ir::GlobalVariable* MakeChecksumGlobal(ir::Module& m) {
  return m.CreateGlobal("checksum", m.types().I64());
}

void AccumulateChecksum(ir::IRBuilder& b, ir::GlobalVariable* checksum, ir::Value* value) {
  ir::Value* addr = b.GlobalAddr(checksum);
  ir::Value* old = b.Load(addr);
  b.Store(b.Add(b.Mul(old, b.I64(31)), value), addr);
}

void EmitChecksumAndRet(ir::IRBuilder& b, ir::GlobalVariable* checksum) {
  ir::Value* addr = b.GlobalAddr(checksum);
  b.Output(b.Load(addr));
  b.Ret(b.I64(0));
}

ir::GlobalVariable* MakeStaticPage(ir::Module& m) {
  auto& t = m.types();
  ir::GlobalVariable* page =
      m.CreateGlobal("page", t.ArrayOf(t.CharTy(), kStaticPageBytes), /*is_const=*/true);
  std::vector<uint8_t> content(kStaticPageBytes);
  for (uint64_t i = 0; i < kStaticPageBytes - 1; ++i) {
    content[i] = static_cast<uint8_t>('a' + (i * 17) % 25);
  }
  content[kStaticPageBytes - 1] = 0;
  page->set_initializer(std::move(content));
  return page;
}

std::vector<ir::Function*> EmitFormatHandlers(ir::Module& m, ir::IRBuilder& b,
                                              const ir::FunctionType* ty,
                                              const std::string& prefix, uint64_t len,
                                              uint64_t stride, uint64_t offset) {
  auto& t = m.types();
  std::vector<ir::Function*> handlers;
  for (uint64_t k = 0; k < 4; ++k) {
    ir::Function* h = m.CreateFunction(prefix + std::to_string(k), ty);
    b.SetInsertPoint(h->CreateBlock("entry"));
    ir::Value* buf = h->arg(0);
    ir::Value* req = h->arg(1);
    ir::Value* i_slot = b.Alloca(t.I64(), "i");
    LoopBlocks body = BeginLoop(b, h, i_slot, b.I64(0), b.I64(len), "fmt");
    ir::Value* c = b.Binary(ir::BinOp::kAnd,
                            b.Add(b.Mul(body.index, b.I64(stride * k + offset)), req), b.I64(63));
    b.Store(b.Cast(ir::CastKind::kTrunc, b.Add(c, b.I64('0')), t.CharTy()),
            b.IndexAddr(buf, body.index));
    EndLoop(b, body);
    b.Store(b.Char(0), b.IndexAddr(buf, b.I64(len)));
    b.Ret(b.LibCall(ir::LibFunc::kStrlen, {buf}));
    handlers.push_back(h);
  }
  return handlers;
}

ir::Value* SelectOfFour(ir::IRBuilder& b, ir::Value* index,
                        const std::vector<ir::Function*>& fns) {
  ir::Value* which = b.Binary(ir::BinOp::kAnd, index, b.I64(3));
  ir::Value* h01 =
      b.Select(b.ICmpEq(which, b.I64(0)), b.FuncAddr(fns[0]), b.FuncAddr(fns[1]));
  ir::Value* h23 =
      b.Select(b.ICmpEq(which, b.I64(2)), b.FuncAddr(fns[2]), b.FuncAddr(fns[3]));
  return b.Select(b.ICmpSLt(which, b.I64(2)), h01, h23);
}

BoxRuntime EmitBoxRuntime(ir::Module& m, ir::IRBuilder& b, uint64_t n_slots, uint64_t slice) {
  auto& t = m.types();
  ir::StructType* box = t.GetOrCreateStruct("pyobj");
  box->SetBody({{"tag", t.I64(), 0}, {"payload", t.VoidPtrTy(), 0}});

  const bool based = slice != 0;
  const uint64_t mask = (based ? slice : n_slots) - 1;
  const ir::FunctionType* op_ty =
      based ? t.FunctionTy(t.VoidTy(), {t.I64(), t.I64()}) : t.FunctionTy(t.VoidTy(), {t.I64()});
  BoxRuntime rt;
  rt.optable = m.CreateGlobal("optable", t.ArrayOf(t.PointerTo(op_ty), 16));
  rt.locals = m.CreateGlobal("locals", t.ArrayOf(t.PointerTo(box), n_slots));

  // box_new(tag, v): heap-allocate a box whose payload points at a heap i64.
  rt.box_new = m.CreateFunction("box_new", t.FunctionTy(t.PointerTo(box), {t.I64(), t.I64()}));
  {
    b.SetInsertPoint(rt.box_new->CreateBlock("entry"));
    ir::Value* obj = b.Malloc(b.I64(box->SizeInBytes()), t.PointerTo(box));
    ir::Value* cell = b.Malloc(b.I64(8), t.PointerTo(t.I64()));
    b.Store(rt.box_new->arg(1), cell);
    b.Store(rt.box_new->arg(0), b.FieldAddr(obj, "tag"));
    b.Store(b.Bitcast(cell, t.VoidPtrTy()), b.FieldAddr(obj, "payload"));
    b.Ret(obj);
  }

  // box_val(slot): unbox locals[slot] -> i64.
  rt.box_val = m.CreateFunction("box_val", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(rt.box_val->CreateBlock("entry"));
    ir::Value* obj = b.Load(b.IndexAddr(b.GlobalAddr(rt.locals), rt.box_val->arg(0)));
    ir::Value* payload = b.Load(b.FieldAddr(obj, "payload"));
    ir::Value* cell = b.Bitcast(payload, t.PointerTo(t.I64()));
    b.Ret(b.Load(cell));
  }

  // Opcode handlers over the locals table. Like CPython's eval loop, every
  // opcode is dominated by box traffic: loads/stores of object pointers
  // (sensitive: the box holds a void*) and of the void* payloads themselves
  // (universal) — with only occasional allocation.
  for (int k = 0; k < 4; ++k) {
    ir::Function* op = m.CreateFunction("pyop_" + std::to_string(k), op_ty);
    b.SetInsertPoint(op->CreateBlock("entry"));
    ir::Value* base = based ? op->arg(0) : nullptr;
    ir::Value* pc = op->arg(based ? 1 : 0);
    auto rebase = [&](ir::Value* s) { return based ? b.Add(base, s) : s; };
    ir::Value* s0 = rebase(b.Binary(ir::BinOp::kAnd, pc, b.I64(mask)));
    ir::Value* s1 = rebase(b.Binary(ir::BinOp::kAnd, b.Add(pc, b.I64(1)), b.I64(mask)));
    ir::Value* a = b.Call(rt.box_val, {s0});
    ir::Value* c = b.Call(rt.box_val, {s1});
    ir::Value* r;
    switch (k) {
      case 0: r = b.Add(a, c); break;
      case 1: r = b.Mul(a, b.I64(3)); break;
      case 2: r = b.Xor(a, c); break;
      default: r = b.Sub(c, a); break;
    }
    // In-place rebind: dst->tag = k; *(i64*)dst->payload = r — unboxing and
    // reboxing through the universal payload pointer.
    ir::Value* slot0 = b.IndexAddr(b.GlobalAddr(rt.locals), s0);
    ir::Value* slot1 = b.IndexAddr(b.GlobalAddr(rt.locals), s1);
    ir::Value* dst = b.Load(slot0);
    b.Store(b.I64(k), b.FieldAddr(dst, "tag"));
    ir::Value* payload = b.Load(b.FieldAddr(dst, "payload"));
    b.Store(r, b.Bitcast(payload, t.PointerTo(t.I64())));
    b.Store(payload, b.FieldAddr(dst, "payload"));  // refresh (INCREF-style)
    // Rotate the two locals (object-pointer shuffling, as bytecode stack
    // slots do).
    ir::Value* other = b.Load(slot1);
    b.Store(other, slot0);
    b.Store(dst, slot1);
    b.Ret();
    rt.ops.push_back(op);
  }
  return rt;
}

void EmitOpTableInit(ir::IRBuilder& b, ir::Function* f, ir::Value* i_slot,
                     const BoxRuntime& rt) {
  LoopBlocks opinit = BeginLoop(b, f, i_slot, b.I64(0), b.I64(4), "opinit");
  for (int k = 0; k < 4; ++k) {
    ir::Value* idx = b.Add(b.Mul(opinit.index, b.I64(4)), b.I64(k));
    b.Store(b.FuncAddr(rt.ops[k]), b.IndexAddr(b.GlobalAddr(rt.optable), idx));
  }
  EndLoop(b, opinit);
}

}  // namespace cpi::workloads
