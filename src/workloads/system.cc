// System-level workloads: the Phoronix-like "server setting" suite (Fig. 4)
// and the three web-server scenarios of Table 4.
//
// The dynamic-page workload deliberately models the boxed-value style of the
// Python interpreter (universal void* payloads everywhere): §5.3 singles this
// pattern out as the source of CPI's unusually high overhead on dynamic pages
// and pybench.
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

// --- static page -------------------------------------------------------------
// Copy a constant page into a response buffer, compute headers: almost pure
// memcpy/strlen over char data.
std::unique_ptr<Module> BuildStaticPage(int scale) {
  auto m = std::make_unique<Module>("server.static");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  GlobalVariable* page = MakeStaticPage(*m);

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* r_slot = b.Alloca(t.I64(), "req");
  Value* resp = b.Malloc(b.I64(kStaticPageBytes + 128), t.PointerTo(t.CharTy()), "resp");

  LoopBlocks reqs = BeginLoop(b, main, r_slot, b.I64(0), b.I64(400 * scale), "req");
  Value* page0 = b.IndexAddr(b.GlobalAddr(page), b.I64(0));
  Value* len = b.LibCall(ir::LibFunc::kStrlen, {page0});
  b.LibCall(ir::LibFunc::kMemcpy, {resp, page0, b.Add(len, b.I64(1))});
  AccumulateChecksum(b, checksum, len);
  EndLoop(b, reqs);

  b.Free(resp);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- wsgi page -----------------------------------------------------------------
// Route dispatch through a handler table (structs embedding function
// pointers) plus string formatting of the response.
std::unique_ptr<Module> BuildWsgiPage(int scale) {
  auto m = std::make_unique<Module>("server.wsgi");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  const ir::FunctionType* handler_ty =
      t.FunctionTy(t.I64(), {t.PointerTo(t.CharTy()), t.I64()});
  StructType* route = t.GetOrCreateStruct("route");
  route->SetBody({{"name", t.ArrayOf(t.CharTy(), 16), 0},
                  {"handler", t.PointerTo(handler_ty), 0}});
  const uint64_t n_routes = 8;
  GlobalVariable* routes = m->CreateGlobal("routes", t.ArrayOf(route, n_routes));

  const std::vector<Function*> handlers =
      EmitFormatHandlers(*m, b, handler_ty, "handler_", 64, 1, 3);

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* r_slot = b.Alloca(t.I64(), "req");
  Value* resp = b.Malloc(b.I64(256), t.PointerTo(t.CharTy()), "resp");

  // Register routes.
  LoopBlocks reg = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n_routes), "reg");
  Value* entry = b.IndexAddr(b.GlobalAddr(routes), reg.index);
  Value* h = SelectOfFour(b, reg.index, handlers);
  b.Store(h, b.FieldAddr(entry, "handler"));
  EndLoop(b, reg);

  LoopBlocks reqs = BeginLoop(b, main, r_slot, b.I64(0), b.I64(300 * scale), "req");
  Value* idx = b.Binary(ir::BinOp::kURem, reqs.index, b.I64(n_routes));
  Value* entry2 = b.IndexAddr(b.GlobalAddr(routes), idx);
  Value* handler = b.Load(b.FieldAddr(entry2, "handler"));
  Value* len = b.IndirectCall(handler, {resp, reqs.index});
  AccumulateChecksum(b, checksum, len);
  EndLoop(b, reqs);

  b.Free(resp);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- dynamic page ----------------------------------------------------------------
// Python-style template interpreter: boxed objects with void* payloads, a
// function-pointer opcode table, and string building. Universal pointers in
// the hot loop make this the worst case for CPI (138.8% in Table 4).
std::unique_ptr<Module> BuildDynamicPage(int scale) {
  auto m = std::make_unique<Module>("server.dynamic");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  // Boxed values with universal void* payloads: every access is
  // CPI-instrumented.
  const uint64_t n_slots = 32;
  const BoxRuntime rt = EmitBoxRuntime(*m, b, n_slots, /*slice=*/0);

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* r_slot = b.Alloca(t.I64(), "req");
  Value* pc_slot = b.Alloca(t.I64(), "pc");

  // Initialise locals and the opcode table.
  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n_slots), "init");
  Value* boxed = b.Call(rt.box_new, {b.I64(0), b.Mul(init.index, b.I64(7))});
  b.Store(boxed, b.IndexAddr(b.GlobalAddr(rt.locals), init.index));
  EndLoop(b, init);
  EmitOpTableInit(b, main, i_slot, rt);

  // Request loop: each request runs a short template program.
  LoopBlocks reqs = BeginLoop(b, main, r_slot, b.I64(0), b.I64(120 * scale), "req");
  LoopBlocks prog = BeginLoop(b, main, pc_slot, b.I64(0), b.I64(24), "op");
  Value* op_idx = b.Binary(ir::BinOp::kAnd, b.Mul(prog.index, b.I64(5)), b.I64(15));
  Value* op_fn = b.Load(b.IndexAddr(b.GlobalAddr(rt.optable), op_idx));
  b.IndirectCall(op_fn, {b.Add(prog.index, reqs.index)});
  EndLoop(b, prog);
  AccumulateChecksum(b, checksum, b.Call(rt.box_val, {b.I64(0)}));
  EndLoop(b, reqs);

  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- Phoronix-style workloads ----------------------------------------------------
// Mixes of the same building blocks with different emphases.

// openssl-like: big-integer style modular multiply-accumulate loops.
std::unique_ptr<Module> BuildOpenssl(int scale) {
  auto m = std::make_unique<Module>("phoronix.openssl");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  GlobalVariable* limbs = m->CreateGlobal("limbs", t.ArrayOf(t.I64(), 64));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* r_slot = b.Alloca(t.I64(), "round");

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(64), "init");
  b.Store(b.Add(b.Mul(init.index, b.I64(0x9e3779b9)), b.I64(1)),
          b.IndexAddr(b.GlobalAddr(limbs), init.index));
  EndLoop(b, init);

  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(1500 * scale), "round");
  LoopBlocks mul = BeginLoop(b, main, i_slot, b.I64(0), b.I64(63), "mul");
  Value* lo = b.Load(b.IndexAddr(b.GlobalAddr(limbs), mul.index));
  Value* hi = b.Load(b.IndexAddr(b.GlobalAddr(limbs), b.Add(mul.index, b.I64(1))));
  Value* prod = b.Add(b.Mul(lo, b.I64(0x10001)), b.Binary(ir::BinOp::kLShr, hi, b.I64(7)));
  b.Store(prod, b.IndexAddr(b.GlobalAddr(limbs), mul.index));
  EndLoop(b, mul);
  EndLoop(b, rounds);

  AccumulateChecksum(b, checksum, b.Load(b.IndexAddr(b.GlobalAddr(limbs), b.I64(5))));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// sqlite-like: ordered table with a function-pointer comparator (qsort
// style).
std::unique_ptr<Module> BuildSqlite(int scale) {
  auto m = std::make_unique<Module>("phoronix.sqlite");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);
  const uint64_t n = 256;
  GlobalVariable* table = m->CreateGlobal("table", t.ArrayOf(t.I64(), n));

  const ir::FunctionType* cmp_ty = t.FunctionTy(t.I64(), {t.I64(), t.I64()});
  GlobalVariable* cmp_ptr = m->CreateGlobal("cmp", t.PointerTo(cmp_ty));
  Function* cmp_asc = m->CreateFunction("cmp_asc", cmp_ty);
  {
    b.SetInsertPoint(cmp_asc->CreateBlock("entry"));
    b.Ret(b.ICmpSLt(cmp_asc->arg(0), cmp_asc->arg(1)));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* r_slot = b.Alloca(t.I64(), "round");
  b.Store(b.FuncAddr(cmp_asc), b.GlobalAddr(cmp_ptr));

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n), "init");
  b.Store(b.Binary(ir::BinOp::kAnd, b.Mul(init.index, b.I64(2654435761)), b.I64(0xffff)),
          b.IndexAddr(b.GlobalAddr(table), init.index));
  EndLoop(b, init);

  // Insertion passes: one bubble sweep per round using the comparator.
  LoopBlocks rounds = BeginLoop(b, main, r_slot, b.I64(0), b.I64(60 * scale), "round");
  LoopBlocks sweep = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n - 1), "sweep");
  Value* a_slot = b.IndexAddr(b.GlobalAddr(table), sweep.index);
  Value* b_slot = b.IndexAddr(b.GlobalAddr(table), b.Add(sweep.index, b.I64(1)));
  Value* av = b.Load(a_slot);
  Value* bv = b.Load(b_slot);
  Value* cmp_fn = b.Load(b.GlobalAddr(cmp_ptr));
  Value* lt = b.IndirectCall(cmp_fn, {bv, av});
  Value* new_a = b.Select(lt, bv, av);
  Value* new_b = b.Select(lt, av, bv);
  b.Store(new_a, a_slot);
  b.Store(new_b, b_slot);
  EndLoop(b, sweep);
  // Perturb so later rounds keep working.
  Value* mix = b.Xor(b.Load(b.IndexAddr(b.GlobalAddr(table), b.I64(0))), rounds.index);
  b.Store(mix, b.IndexAddr(b.GlobalAddr(table), b.I64(n / 2)));
  EndLoop(b, rounds);

  AccumulateChecksum(b, checksum, b.Load(b.IndexAddr(b.GlobalAddr(table), b.I64(1))));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// redis-like: open-addressing hash table of heap entries, no code pointers in
// the hot path.
std::unique_ptr<Module> BuildRedis(int scale) {
  auto m = std::make_unique<Module>("phoronix.redis");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* entry = t.GetOrCreateStruct("dict_entry");
  entry->SetBody({{"key", t.I64(), 0}, {"value", t.I64(), 0}});
  const uint64_t n = 512;
  GlobalVariable* dict = m->CreateGlobal("dict", t.ArrayOf(t.PointerTo(entry), n));

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");
  Value* o_slot = b.Alloca(t.I64(), "op");

  LoopBlocks init = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n), "init");
  Value* e = b.Malloc(b.I64(entry->SizeInBytes()), t.PointerTo(entry));
  b.Store(b.Mul(init.index, b.I64(11)), b.FieldAddr(e, "key"));
  b.Store(b.I64(0), b.FieldAddr(e, "value"));
  b.Store(e, b.IndexAddr(b.GlobalAddr(dict), init.index));
  EndLoop(b, init);

  LoopBlocks opsl = BeginLoop(b, main, o_slot, b.I64(0), b.I64(8000 * scale), "op");
  Value* h = b.Binary(ir::BinOp::kAnd,
                      b.Binary(ir::BinOp::kLShr, b.Mul(opsl.index, b.I64(2654435761)),
                               b.I64(13)),
                      b.I64(n - 1));
  Value* slot_e = b.Load(b.IndexAddr(b.GlobalAddr(dict), h));
  Value* v_slot = b.FieldAddr(slot_e, "value");
  b.Store(b.Add(b.Load(v_slot), b.I64(1)), v_slot);
  EndLoop(b, opsl);

  Value* probe = b.Load(b.IndexAddr(b.GlobalAddr(dict), b.I64(42)));
  AccumulateChecksum(b, checksum, b.Load(b.FieldAddr(probe, "value")));
  EmitChecksumAndRet(b, checksum);
  return m;
}

// apache-like: request parsing (string ops) + handler dispatch — the same
// profile as the wsgi scenario, run at double request volume.
std::unique_ptr<Module> BuildApache(int scale) { return BuildWsgiPage(scale * 2); }

}  // namespace

// C workload builders (defined in spec_c.cc).
std::unique_ptr<Module> SpecPerlbench(int scale);
std::unique_ptr<Module> SpecBzip2(int scale);
std::unique_ptr<Module> SpecGcc(int scale);
std::unique_ptr<Module> SpecMcf(int scale);
std::unique_ptr<Module> SpecMilc(int scale);
std::unique_ptr<Module> SpecGobmk(int scale);
std::unique_ptr<Module> SpecHmmer(int scale);
std::unique_ptr<Module> SpecSjeng(int scale);
std::unique_ptr<Module> SpecLibquantum(int scale);
std::unique_ptr<Module> SpecH264ref(int scale);
std::unique_ptr<Module> SpecLbm(int scale);
std::unique_ptr<Module> SpecSphinx3(int scale);
// C++ workload builders (defined in spec_cpp.cc).
std::unique_ptr<Module> SpecNamd(int scale);
std::unique_ptr<Module> SpecDealII(int scale);
std::unique_ptr<Module> SpecSoplex(int scale);
std::unique_ptr<Module> SpecPovray(int scale);
std::unique_ptr<Module> SpecOmnetpp(int scale);
std::unique_ptr<Module> SpecAstar(int scale);
std::unique_ptr<Module> SpecXalancbmk(int scale);

const std::vector<Workload>& SpecCpu2006() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"400.perlbench", "C", SpecPerlbench, {}},
      {"401.bzip2", "C", SpecBzip2, {}},
      {"403.gcc", "C", SpecGcc, {}},
      {"429.mcf", "C", SpecMcf, {}},
      {"433.milc", "C", SpecMilc, {}},
      {"444.namd", "C++", SpecNamd, {}},
      {"445.gobmk", "C", SpecGobmk, {}},
      {"447.dealII", "C++", SpecDealII, {}},
      {"450.soplex", "C++", SpecSoplex, {}},
      {"453.povray", "C++", SpecPovray, {}},
      {"456.hmmer", "C", SpecHmmer, {}},
      {"458.sjeng", "C", SpecSjeng, {}},
      {"462.libquantum", "C", SpecLibquantum, {}},
      {"464.h264ref", "C", SpecH264ref, {}},
      {"470.lbm", "C", SpecLbm, {}},
      {"471.omnetpp", "C++", SpecOmnetpp, {}},
      {"473.astar", "C++", SpecAstar, {}},
      {"482.sphinx3", "C", SpecSphinx3, {}},
      {"483.xalancbmk", "C++", SpecXalancbmk, {}},
  };
  return *workloads;
}

const std::vector<Workload>& Phoronix() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"compress-gzip", "C", SpecBzip2, {}},
      {"openssl", "C", BuildOpenssl, {}},
      {"sqlite", "C", BuildSqlite, {}},
      {"apache", "C", BuildApache, {}},
      {"redis", "C", BuildRedis, {}},
      {"ffmpeg", "C", SpecH264ref, {}},
      {"pybench", "C", BuildDynamicPage, {}},
      {"encode-mp3", "C", SpecSphinx3, {}},
  };
  return *workloads;
}

const std::vector<Workload>& WebServer() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"static-page", "C", BuildStaticPage, {}},
      {"wsgi-test-page", "C", BuildWsgiPage, {}},
      {"dynamic-page", "C", BuildDynamicPage, {}},
  };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const auto* list :
       {&SpecCpu2006(), &Phoronix(), &WebServer(), &ConcurrentServer(), &EventLoop(),
        &ChurnServer()}) {
    for (const Workload& w : *list) {
      if (w.name == name) {
        return &w;
      }
    }
  }
  return nullptr;
}

}  // namespace cpi::workloads
