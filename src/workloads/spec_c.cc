// The C-language SPEC CPU2006 workload models (12 of Table 2's 19 rows).
//
// Each generator reproduces the pointer-usage profile the paper attributes to
// that benchmark: perlbench's function-pointer opcode dispatch, gcc's structs
// with embedded handlers, mcf's pointer chasing with no code pointers, plain
// numeric kernels, etc.
#include "src/workloads/common.h"
#include "src/workloads/workloads.h"

namespace cpi::workloads {

using ir::Function;
using ir::GlobalVariable;
using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Value;

// --- 400.perlbench ----------------------------------------------------------
// Opcode dispatch through a table of function pointers, called one by one in
// the main loop (§3.3 discusses exactly this pattern: the reason perlbench is
// a CPS outlier).
std::unique_ptr<Module> BuildPerlbench(int scale) {
  auto m = std::make_unique<Module>("400.perlbench");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  GlobalVariable* vstack = m->CreateGlobal("vstack", t.ArrayOf(t.I64(), 64));
  GlobalVariable* vsp = m->CreateGlobal("vsp", t.I64());
  const ir::FunctionType* op_ty = t.FunctionTy(t.VoidTy(), {});
  const ir::PointerType* op_ptr_ty = t.PointerTo(op_ty);
  GlobalVariable* dispatch = m->CreateGlobal("dispatch", t.ArrayOf(op_ptr_ty, 256));

  // Eight opcode handlers operating on the value stack.
  std::vector<Function*> ops;
  for (int k = 0; k < 8; ++k) {
    Function* op = m->CreateFunction("op_" + std::to_string(k), op_ty);
    b.SetInsertPoint(op->CreateBlock("entry"));
    Value* sp_addr = b.GlobalAddr(vsp);
    Value* sp = b.Load(sp_addr);
    Value* idx = b.Binary(ir::BinOp::kAnd, sp, b.I64(63));
    Value* slot = b.IndexAddr(b.GlobalAddr(vstack), idx);
    Value* top = b.Load(slot);
    Value* result;
    switch (k) {
      case 0: result = b.Add(top, b.I64(17)); break;
      case 1: result = b.Sub(top, b.I64(5)); break;
      case 2: result = b.Mul(top, b.I64(3)); break;
      case 3: result = b.Xor(top, b.I64(0x5a5a)); break;
      case 4: result = b.Binary(ir::BinOp::kShl, top, b.I64(1)); break;
      case 5: result = b.Binary(ir::BinOp::kLShr, top, b.I64(1)); break;
      case 6: result = b.Binary(ir::BinOp::kOr, top, b.I64(0x101)); break;
      default: result = b.Add(b.Mul(top, b.I64(7)), b.I64(1)); break;
    }
    b.Store(result, slot);
    b.Store(b.Add(sp, b.I64(k % 3 == 0 ? 1 : 0)), sp_addr);
    b.Ret();
    ops.push_back(op);
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* pc_slot = b.Alloca(t.I64(), "pc");
  b.Store(b.I64(12345), pc_slot);

  // Fill the dispatch table (the "compiled program").
  LoopBlocks fill = BeginLoop(b, main, i_slot, b.I64(0), b.I64(32), "fill");
  for (int k = 0; k < 8; ++k) {
    Value* idx = b.Add(b.Mul(fill.index, b.I64(8)), b.I64(k));
    b.Store(b.FuncAddr(ops[k]), b.IndexAddr(b.GlobalAddr(dispatch), idx));
  }
  EndLoop(b, fill);

  // Main execution loop: load a handler pointer, call it.
  LoopBlocks run = BeginLoop(b, main, i_slot, b.I64(0), b.I64(20000 * scale), "run");
  Value* pc = b.Load(pc_slot);
  Value* next_pc = b.Add(b.Mul(pc, b.I64(1103515245)), b.I64(12345));
  b.Store(next_pc, pc_slot);
  Value* op_idx = b.Binary(ir::BinOp::kAnd, b.Binary(ir::BinOp::kLShr, next_pc, b.I64(16)),
                           b.I64(255));
  Value* handler = b.Load(b.IndexAddr(b.GlobalAddr(dispatch), op_idx), "handler");
  b.IndirectCall(handler, {});
  EndLoop(b, run);

  AccumulateChecksum(b, checksum, b.Load(b.IndexAddr(b.GlobalAddr(vstack), b.I64(0))));
  AccumulateChecksum(b, checksum, b.Load(b.GlobalAddr(vsp)));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 401.bzip2 ---------------------------------------------------------------
// Byte-oriented compression loops over char buffers: frequency counting,
// run-length detection, block moves. Almost no sensitive pointers, but char
// arrays everywhere (cookies / unsafe frames).
std::unique_ptr<Module> BuildBzip2(int scale) {
  auto m = std::make_unique<Module>("401.bzip2");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  GlobalVariable* freq = m->CreateGlobal("freq", t.ArrayOf(t.I64(), 256));
  GlobalVariable* block = m->CreateGlobal("block", t.ArrayOf(t.CharTy(), 4096));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* j_slot = b.Alloca(t.I64(), "j");
  Value* run_slot = b.Alloca(t.I64(), "run");

  // Seed the block deterministically.
  LoopBlocks seed = BeginLoop(b, main, i_slot, b.I64(0), b.I64(4096), "seed");
  Value* byte = b.Binary(ir::BinOp::kAnd,
                         b.Binary(ir::BinOp::kLShr, b.Mul(seed.index, b.I64(2654435761)),
                                  b.I64(24)),
                         b.I64(255));
  b.Store(b.Cast(ir::CastKind::kTrunc, byte, t.CharTy()),
          b.IndexAddr(b.GlobalAddr(block), seed.index));
  EndLoop(b, seed);

  LoopBlocks outer = BeginLoop(b, main, j_slot, b.I64(0), b.I64(20 * scale), "pass");
  // Frequency count + RLE length.
  b.Store(b.I64(0), run_slot);
  LoopBlocks scan = BeginLoop(b, main, i_slot, b.I64(0), b.I64(4095), "scan");
  Value* cur = b.Load(b.IndexAddr(b.GlobalAddr(block), scan.index));
  Value* cur64 = b.Cast(ir::CastKind::kZExt, cur, t.I64());
  Value* f_slot = b.IndexAddr(b.GlobalAddr(freq), cur64);
  b.Store(b.Add(b.Load(f_slot), b.I64(1)), f_slot);
  Value* nxt = b.Load(b.IndexAddr(b.GlobalAddr(block), b.Add(scan.index, b.I64(1))));
  Value* same = b.ICmpEq(cur64, b.Cast(ir::CastKind::kZExt, nxt, t.I64()));
  b.Store(b.Add(b.Load(run_slot), same), run_slot);
  EndLoop(b, scan);
  // Rotate the block by one (memmove-style shift).
  Value* block0 = b.IndexAddr(b.GlobalAddr(block), b.I64(0));
  Value* block1 = b.IndexAddr(b.GlobalAddr(block), b.I64(1));
  b.LibCall(ir::LibFunc::kMemmove, {block0, block1, b.I64(4095)});
  AccumulateChecksum(b, checksum, b.Load(run_slot));
  EndLoop(b, outer);

  AccumulateChecksum(b, checksum,
                     b.Load(b.IndexAddr(b.GlobalAddr(freq), b.I64(65))));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 403.gcc -----------------------------------------------------------------
// "gcc embeds function pointers in some of its data structures and then uses
// pointers to these structures frequently" (§5.2) — a heap-allocated insn
// chain whose nodes carry handler pointers.
std::unique_ptr<Module> BuildGcc(int scale) {
  auto m = std::make_unique<Module>("403.gcc");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* insn = t.GetOrCreateStruct("insn");
  const ir::FunctionType* handler_ty = t.FunctionTy(t.I64(), {t.PointerTo(insn)});
  insn->SetBody({{"op", t.I64(), 0},
                 {"next", t.PointerTo(insn), 0},
                 {"handler", t.PointerTo(handler_ty), 0}});

  std::vector<Function*> handlers;
  for (int k = 0; k < 4; ++k) {
    Function* h = m->CreateFunction("fold_" + std::to_string(k), handler_ty);
    b.SetInsertPoint(h->CreateBlock("entry"));
    Value* node = h->arg(0);
    Value* op = b.Load(b.FieldAddr(node, "op"));
    // Constant-folding-style integer work: real gcc does substantial
    // computation per insn between its pointer operations.
    Value* r = op;
    for (int step = 0; step < 56; ++step) {
      switch ((k + step) % 4) {
        case 0: r = b.Add(b.Mul(r, b.I64(33)), b.I64(step + 1)); break;
        case 1: r = b.Xor(r, b.Binary(ir::BinOp::kLShr, r, b.I64(7))); break;
        case 2: r = b.Sub(b.Binary(ir::BinOp::kShl, r, b.I64(1)), r); break;
        default: r = b.Binary(ir::BinOp::kOr, r, b.I64(0x11)); break;
      }
    }
    b.Store(r, b.FieldAddr(node, "op"));
    b.Ret(r);
    handlers.push_back(h);
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pass");
  Value* head_slot = b.Alloca(t.PointerTo(insn), "head");
  Value* cur_slot = b.Alloca(t.PointerTo(insn), "cur");
  b.Store(b.Null(t.PointerTo(insn)), head_slot);

  const uint64_t chain = 512;
  LoopBlocks build = BeginLoop(b, main, i_slot, b.I64(0), b.I64(chain), "build");
  Value* node = b.Malloc(b.I64(insn->SizeInBytes()), t.PointerTo(insn));
  b.Store(build.index, b.FieldAddr(node, "op"));
  b.Store(b.Load(head_slot), b.FieldAddr(node, "next"));
  // handler = handlers[i % 4], chosen with nested selects.
  Value* sel = b.Binary(ir::BinOp::kAnd, build.index, b.I64(3));
  Value* h01 = b.Select(b.ICmpEq(sel, b.I64(0)), b.FuncAddr(handlers[0]),
                        b.FuncAddr(handlers[1]));
  Value* h23 = b.Select(b.ICmpEq(sel, b.I64(2)), b.FuncAddr(handlers[2]),
                        b.FuncAddr(handlers[3]));
  Value* h = b.Select(b.ICmpSLt(sel, b.I64(2)), h01, h23);
  b.Store(h, b.FieldAddr(node, "handler"));
  b.Store(node, head_slot);
  EndLoop(b, build);

  // Walk the chain repeatedly, dispatching each node's handler — every
  // p->next load is a sensitive pointer load under CPI.
  LoopBlocks passes = BeginLoop(b, main, p_slot, b.I64(0), b.I64(30 * scale), "pass");
  b.Store(b.Load(head_slot), cur_slot);
  ir::BasicBlock* walk_header = main->CreateBlock("walk.header");
  ir::BasicBlock* walk_body = main->CreateBlock("walk.body");
  ir::BasicBlock* walk_exit = main->CreateBlock("walk.exit");
  b.Br(walk_header);
  b.SetInsertPoint(walk_header);
  Value* cur = b.Load(cur_slot);
  b.CondBr(b.ICmpNe(b.PtrToInt(cur), b.I64(0)), walk_body, walk_exit);
  b.SetInsertPoint(walk_body);
  Value* cur2 = b.Load(cur_slot);
  Value* handler = b.Load(b.FieldAddr(cur2, "handler"));
  Value* res = b.IndirectCall(handler, {cur2});
  AccumulateChecksum(b, checksum, res);
  b.Store(b.Load(b.FieldAddr(cur2, "next")), cur_slot);
  b.Br(walk_header);
  b.SetInsertPoint(walk_exit);
  EndLoop(b, passes);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 429.mcf -------------------------------------------------------------------
// Pointer chasing over heap nodes that contain NO code pointers: CPI leaves
// the hot loop untouched (MOCPI is tiny for mcf in Table 2).
std::unique_ptr<Module> BuildMcf(int scale) {
  auto m = std::make_unique<Module>("429.mcf");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* node = t.GetOrCreateStruct("node");
  node->SetBody({{"next", t.PointerTo(node), 0}, {"dist", t.I64(), 0},
                 {"cost", t.I64(), 0}});

  // mcf-style codes stash pointers in integer fields (packed arc arrays);
  // this round-trip through integer memory is exactly the unsafe idiom that
  // makes benchmarks "terminate with an error when instrumented by
  // SoftBound" (§5.2) while CPI, instrumenting only sensitive pointers, is
  // unaffected.
  GlobalVariable* stash = m->CreateGlobal("packed_head", t.I64());

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pass");
  Value* head_slot = b.Alloca(t.PointerTo(node), "head");
  Value* cur_slot = b.Alloca(t.PointerTo(node), "cur");
  b.Store(b.Null(t.PointerTo(node)), head_slot);

  const uint64_t count = 2048;
  LoopBlocks build = BeginLoop(b, main, i_slot, b.I64(0), b.I64(count), "build");
  Value* n = b.Malloc(b.I64(node->SizeInBytes()), t.PointerTo(node));
  b.Store(b.Load(head_slot), b.FieldAddr(n, "next"));
  b.Store(b.I64(1) , b.FieldAddr(n, "dist"));
  b.Store(b.Binary(ir::BinOp::kAnd, b.Mul(build.index, b.I64(2654435761)), b.I64(1023)),
          b.FieldAddr(n, "cost"));
  b.Store(n, head_slot);
  EndLoop(b, build);

  // Relaxation passes: chase next pointers, update distances.
  LoopBlocks passes = BeginLoop(b, main, p_slot, b.I64(0), b.I64(40 * scale), "pass");
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
  Value* dist = b.Load(b.FieldAddr(cur2, "dist"));
  Value* cost = b.Load(b.FieldAddr(cur2, "cost"));
  b.Store(b.Add(dist, cost), b.FieldAddr(cur2, "dist"));
  b.Store(b.Load(b.FieldAddr(cur2, "next")), cur_slot);
  b.Br(wh);
  b.SetInsertPoint(we);
  Value* head = b.Load(head_slot);
  AccumulateChecksum(b, checksum, b.Load(b.FieldAddr(head, "dist")));
  EndLoop(b, passes);

  // The pointer-through-integer-memory round trip.
  b.Store(b.PtrToInt(b.Load(head_slot)), b.GlobalAddr(stash));
  Value* packed = b.Load(b.GlobalAddr(stash));
  Value* unpacked = b.IntToPtr(packed, t.PointerTo(node));
  AccumulateChecksum(b, checksum, b.Load(b.FieldAddr(unpacked, "cost")));

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- numeric kernels: 433.milc / 470.lbm / 482.sphinx3 / 462.libquantum /
// 456.hmmer — plain array crunching with essentially no sensitive pointers.
std::unique_ptr<Module> BuildNumericKernel(const std::string& name, int flavor, int scale) {
  auto m = std::make_unique<Module>(name);
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  const uint64_t n = 512;
  GlobalVariable* fa = m->CreateGlobal("fa", t.ArrayOf(t.FloatTy(), n));
  GlobalVariable* fb = m->CreateGlobal("fb", t.ArrayOf(t.FloatTy(), n));
  GlobalVariable* ia = m->CreateGlobal("ia", t.ArrayOf(t.I64(), n));

  // Even numeric codes have a sliver of sensitive activity: a progress
  // callback dispatched once per pass (this is what keeps the Table 1
  // medians slightly above zero).
  const ir::FunctionType* cb_ty = t.FunctionTy(t.VoidTy(), {t.I64()});
  GlobalVariable* progress_cb = m->CreateGlobal("progress_cb", t.PointerTo(cb_ty));
  Function* progress = m->CreateFunction("progress", cb_ty);
  {
    b.SetInsertPoint(progress->CreateBlock("entry"));
    // A local scratch line whose address escapes: this function needs an
    // unsafe frame, nudging FNUStack away from zero like real codebases.
    Value* scratch = b.Alloca(t.ArrayOf(t.CharTy(), 16), "scratch");
    Value* s0 = b.IndexAddr(scratch, b.I64(0));
    b.LibCall(ir::LibFunc::kMemset, {s0, b.I64(0), b.I64(16)});
    b.Ret();
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pass");
  b.Store(b.FuncAddr(progress), b.GlobalAddr(progress_cb));

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n), "init");
  Value* fi = b.Cast(ir::CastKind::kIntToFloat, init.index, t.FloatTy());
  b.Store(b.Binary(ir::BinOp::kFAdd, fi, b.F64(1.5)),
          b.IndexAddr(b.GlobalAddr(fa), init.index));
  b.Store(b.Binary(ir::BinOp::kFMul, fi, b.F64(0.75)),
          b.IndexAddr(b.GlobalAddr(fb), init.index));
  b.Store(b.Mul(init.index, b.I64(2654435761)), b.IndexAddr(b.GlobalAddr(ia), init.index));
  EndLoop(b, init);

  LoopBlocks passes = BeginLoop(b, main, p_slot, b.I64(0), b.I64(60 * scale), "pass");
  LoopBlocks inner = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n - 2), "sweep");
  if (flavor == 0 || flavor == 2) {  // float stencil / gaussian-style
    Value* a0 = b.Load(b.IndexAddr(b.GlobalAddr(fa), inner.index));
    Value* a1 = b.Load(b.IndexAddr(b.GlobalAddr(fa), b.Add(inner.index, b.I64(1))));
    Value* bb = b.Load(b.IndexAddr(b.GlobalAddr(fb), inner.index));
    Value* v = b.Binary(ir::BinOp::kFMul, b.Binary(ir::BinOp::kFAdd, a0, a1), bb);
    if (flavor == 2) {
      Value* d = b.Binary(ir::BinOp::kFSub, v, a0);
      v = b.Binary(ir::BinOp::kFMul, d, d);
    }
    b.Store(v, b.IndexAddr(b.GlobalAddr(fa), inner.index));
  } else {  // integer bit kernel (libquantum/hmmer-style)
    Value* x = b.Load(b.IndexAddr(b.GlobalAddr(ia), inner.index));
    Value* y = b.Load(b.IndexAddr(b.GlobalAddr(ia), b.Add(inner.index, b.I64(1))));
    Value* v = b.Xor(b.Binary(ir::BinOp::kShl, x, b.I64(1)), y);
    if (flavor == 3) {  // DP max-accumulate
      Value* keep = b.ICmpSLt(x, y);
      v = b.Select(keep, y, x);
      v = b.Add(v, b.I64(3));
    }
    b.Store(v, b.IndexAddr(b.GlobalAddr(ia), inner.index));
  }
  EndLoop(b, inner);
  Value* cb = b.Load(b.GlobalAddr(progress_cb));
  b.IndirectCall(cb, {passes.index});
  EndLoop(b, passes);

  Value* f0 = b.Load(b.IndexAddr(b.GlobalAddr(fa), b.I64(7)));
  AccumulateChecksum(b, checksum, b.Cast(ir::CastKind::kFloatToInt, f0, t.I64()));
  AccumulateChecksum(b, checksum, b.Load(b.IndexAddr(b.GlobalAddr(ia), b.I64(7))));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 445.gobmk / 458.sjeng ------------------------------------------------------
// Recursive game-tree search with board arrays handed down by pointer (unsafe
// stack frames) and a small evaluator function-pointer table.
std::unique_ptr<Module> BuildGameTree(const std::string& name, uint64_t board_bytes,
                                      int scale) {
  auto m = std::make_unique<Module>(name);
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  const ir::FunctionType* eval_ty =
      t.FunctionTy(t.I64(), {t.PointerTo(t.CharTy())});
  GlobalVariable* eval_table =
      m->CreateGlobal("eval_table", t.ArrayOf(t.PointerTo(eval_ty), 4));

  std::vector<Function*> evals;
  for (int k = 0; k < 2; ++k) {
    Function* e = m->CreateFunction("eval_" + std::to_string(k), eval_ty);
    b.SetInsertPoint(e->CreateBlock("entry"));
    Value* board = e->arg(0);
    Value* slot = b.Alloca(t.I64(), "acc");
    b.Store(b.I64(0), slot);
    Value* idx = b.Alloca(t.I64(), "i");
    LoopBlocks sum = BeginLoop(b, e, idx, b.I64(0), b.I64(board_bytes), "sum");
    Value* c = b.Load(b.IndexAddr(board, sum.index));
    Value* c64 = b.Cast(ir::CastKind::kZExt, c, t.I64());
    Value* acc = b.Load(slot);
    b.Store(k == 0 ? b.Add(acc, c64) : b.Xor(acc, b.Mul(c64, b.I64(3))), slot);
    EndLoop(b, sum);
    b.Ret(b.Load(slot));
    evals.push_back(e);
  }

  // search(depth, seed): fills a local board, recurses on two branches,
  // evaluates leaves via the table.
  Function* search =
      m->CreateFunction("search", t.FunctionTy(t.I64(), {t.I64(), t.I64()}));
  {
    b.SetInsertPoint(search->CreateBlock("entry"));
    Value* depth = search->arg(0);
    Value* seed = search->arg(1);
    Value* board = b.Alloca(t.ArrayOf(t.CharTy(), 64), "board");
    Value* i_slot = b.Alloca(t.I64(), "i");
    ir::BasicBlock* leaf = search->CreateBlock("leaf");
    ir::BasicBlock* rec = search->CreateBlock("rec");

    LoopBlocks fill = BeginLoop(b, search, i_slot, b.I64(0), b.I64(board_bytes), "fill");
    Value* v = b.Binary(ir::BinOp::kAnd, b.Mul(b.Add(seed, fill.index), b.I64(31)),
                        b.I64(255));
    b.Store(b.Cast(ir::CastKind::kTrunc, v, t.CharTy()),
            b.IndexAddr(board, fill.index));
    EndLoop(b, fill);

    b.CondBr(b.ICmpSLt(depth, b.I64(1)), leaf, rec);

    b.SetInsertPoint(leaf);
    Value* which = b.Binary(ir::BinOp::kAnd, seed, b.I64(1));
    Value* fn = b.Load(b.IndexAddr(b.GlobalAddr(eval_table), which));
    Value* board0 = b.IndexAddr(board, b.I64(0));
    Value* score = b.IndirectCall(fn, {board0});
    b.Ret(score);

    b.SetInsertPoint(rec);
    Value* d1 = b.Sub(depth, b.I64(1));
    Value* left = b.Call(search, {d1, b.Add(b.Mul(seed, b.I64(2)), b.I64(1))});
    Value* right = b.Call(search, {d1, b.Add(b.Mul(seed, b.I64(2)), b.I64(2))});
    Value* best = b.Select(b.ICmpSLt(left, right), right, left);
    b.Ret(b.Add(best, b.Cast(ir::CastKind::kZExt,
                             b.Load(b.IndexAddr(board, b.I64(3))), t.I64())));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* r_slot = b.Alloca(t.I64(), "round");
  b.Store(b.FuncAddr(evals[0]), b.IndexAddr(b.GlobalAddr(eval_table), b.I64(0)));
  b.Store(b.FuncAddr(evals[1]), b.IndexAddr(b.GlobalAddr(eval_table), b.I64(1)));
  b.Store(b.FuncAddr(evals[0]), b.IndexAddr(b.GlobalAddr(eval_table), b.I64(2)));
  b.Store(b.FuncAddr(evals[1]), b.IndexAddr(b.GlobalAddr(eval_table), b.I64(3)));
  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(scale), "round");
  Value* score = b.Call(search, {b.I64(9), rounds.index});
  AccumulateChecksum(b, checksum, score);
  EndLoop(b, rounds);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- 464.h264ref ---------------------------------------------------------------
// Frame-buffer block copies: memcpy-heavy, which is exactly the libc
// memory-function overhead source §5.2 discusses.
std::unique_ptr<Module> BuildH264(int scale) {
  auto m = std::make_unique<Module>("464.h264ref");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  const uint64_t frame = 8192;

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* p_slot = b.Alloca(t.I64(), "pass");
  Value* ref = b.Malloc(b.I64(frame), t.PointerTo(t.CharTy()), "ref");
  Value* cur = b.Malloc(b.I64(frame), t.PointerTo(t.CharTy()), "cur");

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(frame), "init");
  Value* v = b.Binary(ir::BinOp::kAnd, b.Mul(init.index, b.I64(37)), b.I64(255));
  b.Store(b.Cast(ir::CastKind::kTrunc, v, t.CharTy()), b.IndexAddr(ref, init.index));
  EndLoop(b, init);

  LoopBlocks passes = BeginLoop(b, main, p_slot, b.I64(0), b.I64(50 * scale), "pass");
  // Motion-compensation-style block copies at a sliding offset.
  Value* offset = b.Binary(ir::BinOp::kAnd, b.Mul(passes.index, b.I64(193)), b.I64(4095));
  Value* src = b.IndexAddr(ref, offset);
  b.LibCall(ir::LibFunc::kMemcpy, {cur, src, b.I64(4096)});
  // SAD over a 256-byte block.
  Value* sad_slot = b.Alloca(t.I64(), "sad");
  b.Store(b.I64(0), sad_slot);
  LoopBlocks sad = BeginLoop(b, main, i_slot, b.I64(0), b.I64(256), "sad");
  Value* a = b.Cast(ir::CastKind::kZExt, b.Load(b.IndexAddr(cur, sad.index)), t.I64());
  Value* r = b.Cast(ir::CastKind::kZExt, b.Load(b.IndexAddr(ref, sad.index)), t.I64());
  Value* d = b.Sub(a, r);
  Value* abs = b.Select(b.ICmpSLt(d, b.I64(0)), b.Sub(b.I64(0), d), d);
  b.Store(b.Add(b.Load(sad_slot), abs), sad_slot);
  EndLoop(b, sad);
  AccumulateChecksum(b, checksum, b.Load(sad_slot));
  EndLoop(b, passes);

  b.Free(ref);
  b.Free(cur);
  EmitChecksumAndRet(b, checksum);
  return m;
}

}  // namespace cpi::workloads
