// Concurrent workloads: the Table 4 web-server scenarios re-run as
// multi-worker servers on the VM's simulated thread scheduler, plus a
// producer/consumer pointer-chasing pair.
//
// Every workload here is race-free by construction: workers operate on
// disjoint request shards / locals slices / private heap allocations, share
// only read-only tables (routes, opcode tables, the static page) and the
// safe pointer store, and report partial checksums through join. That is
// what makes the tables deterministic not just across --jobs and engines but
// across *scheduler quanta*: each thread's instruction stream is independent
// of how the round-robin interleaves it (tests/sched_test.cc sweeps the
// quantum and asserts bit-identical counters).
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

constexpr uint64_t kWorkers = 4;

// Spawns worker(shard) for shards 0 .. kWorkers-1, folds their partial
// checksums into the checksum global in spawn order, and emits the standard
// epilogue.
void RunWorkersAndFinish(IRBuilder& b, Function* worker, GlobalVariable* checksum) {
  std::vector<Value*> tids;
  for (uint64_t w = 0; w < kWorkers; ++w) {
    tids.push_back(b.Spawn(worker, {b.I64(w)}, "w" + std::to_string(w)));
  }
  for (Value* tid : tids) {
    AccumulateChecksum(b, checksum, b.Join(tid));
  }
  EmitChecksumAndRet(b, checksum);
}

// --- mt static page ----------------------------------------------------------
// The Table 4 static-page scenario sharded across kWorkers threads: each
// worker strlen+memcpys the shared constant page into its own response
// buffer and yields between requests (a worker waiting for the next
// connection).
std::unique_ptr<Module> BuildMtStaticPage(int scale) {
  auto m = std::make_unique<Module>("server.mt-static");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  GlobalVariable* page = MakeStaticPage(*m);

  Function* worker = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(worker->CreateBlock("entry"));
    Value* shard = worker->arg(0);
    Value* r_slot = b.Alloca(t.I64(), "req");
    Value* acc_slot = b.Alloca(t.I64(), "acc");
    b.Store(shard, acc_slot);
    Value* resp = b.Malloc(b.I64(kStaticPageBytes + 128), t.PointerTo(t.CharTy()), "resp");

    LoopBlocks reqs = BeginLoop(b, worker, r_slot, b.I64(0), b.I64(100 * scale), "req");
    Value* page0 = b.IndexAddr(b.GlobalAddr(page), b.I64(0));
    Value* len = b.LibCall(ir::LibFunc::kStrlen, {page0});
    b.LibCall(ir::LibFunc::kMemcpy, {resp, page0, b.Add(len, b.I64(1))});
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), len), acc_slot);
    b.Yield();
    EndLoop(b, reqs);

    b.Free(resp);
    b.Ret(b.Load(acc_slot));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  RunWorkersAndFinish(b, worker, checksum);
  return m;
}

// --- mt wsgi page ------------------------------------------------------------
// Route dispatch through a shared handler table (function pointers — the
// loads every worker performs go through the shared safe pointer store under
// CPI/CPS) with one private response buffer per worker.
std::unique_ptr<Module> BuildMtWsgiPage(int scale) {
  auto m = std::make_unique<Module>("server.mt-wsgi");
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

  // worker(shard): each request picks its route from the shared table and
  // runs the handler against the worker's own buffer.
  Function* worker = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(worker->CreateBlock("entry"));
    Value* shard = worker->arg(0);
    Value* r_slot = b.Alloca(t.I64(), "req");
    Value* acc_slot = b.Alloca(t.I64(), "acc");
    b.Store(b.I64(0), acc_slot);
    Value* resp = b.Malloc(b.I64(256), t.PointerTo(t.CharTy()), "resp");

    LoopBlocks reqs = BeginLoop(b, worker, r_slot, b.I64(0), b.I64(75 * scale), "req");
    Value* global_req = b.Add(b.Mul(reqs.index, b.I64(kWorkers)), shard);
    Value* idx = b.Binary(ir::BinOp::kURem, global_req, b.I64(n_routes));
    Value* entry = b.IndexAddr(b.GlobalAddr(routes), idx);
    Value* handler = b.Load(b.FieldAddr(entry, "handler"));
    Value* len = b.IndirectCall(handler, {resp, global_req});
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), len), acc_slot);
    b.Yield();
    EndLoop(b, reqs);

    b.Free(resp);
    b.Ret(b.Load(acc_slot));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");

  // Register routes before any worker exists; the table is read-only from
  // then on.
  LoopBlocks reg = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n_routes), "reg");
  Value* entry = b.IndexAddr(b.GlobalAddr(routes), reg.index);
  Value* h = SelectOfFour(b, reg.index, handlers);
  b.Store(h, b.FieldAddr(entry, "handler"));
  EndLoop(b, reg);

  RunWorkersAndFinish(b, worker, checksum);
  return m;
}

// --- mt dynamic page ---------------------------------------------------------
// The boxed-value interpreter of the dynamic-page scenario with one locals
// slice per worker: universal void* payloads in every hot loop (CPI's worst
// case, §5.3), now mutated by four threads against the shared safe store.
std::unique_ptr<Module> BuildMtDynamicPage(int scale) {
  auto m = std::make_unique<Module>("server.mt-dynamic");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  // The dynamic-page box runtime; its opcode handlers take (base, pc), where
  // `base` is the worker's first locals slot, so every box access stays
  // inside the worker's own slice.
  const uint64_t slice = 32;  // boxed locals per worker
  const BoxRuntime rt = EmitBoxRuntime(*m, b, kWorkers * slice, slice);

  // worker(shard): populate the shard's locals slice with its own boxes
  // (per-thread heap arenas keep the addresses schedule-independent), then
  // run the request loop against it.
  Function* worker = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(worker->CreateBlock("entry"));
    Value* shard = worker->arg(0);
    Value* i_slot = b.Alloca(t.I64(), "i");
    Value* r_slot = b.Alloca(t.I64(), "req");
    Value* pc_slot = b.Alloca(t.I64(), "pc");
    Value* base = b.Mul(shard, b.I64(slice));

    LoopBlocks init = BeginLoop(b, worker, i_slot, b.I64(0), b.I64(slice), "init");
    Value* boxed = b.Call(rt.box_new, {b.I64(0), b.Mul(b.Add(init.index, shard), b.I64(7))});
    b.Store(boxed, b.IndexAddr(b.GlobalAddr(rt.locals), b.Add(base, init.index)));
    EndLoop(b, init);

    LoopBlocks reqs = BeginLoop(b, worker, r_slot, b.I64(0), b.I64(30 * scale), "req");
    LoopBlocks prog = BeginLoop(b, worker, pc_slot, b.I64(0), b.I64(24), "op");
    Value* op_idx = b.Binary(ir::BinOp::kAnd, b.Mul(prog.index, b.I64(5)), b.I64(15));
    Value* op_fn = b.Load(b.IndexAddr(b.GlobalAddr(rt.optable), op_idx));
    b.IndirectCall(op_fn, {base, b.Add(prog.index, reqs.index)});
    EndLoop(b, prog);
    EndLoop(b, reqs);

    b.Ret(b.Call(rt.box_val, {base}));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  EmitOpTableInit(b, main, b.Alloca(t.I64(), "i"), rt);

  RunWorkersAndFinish(b, worker, checksum);
  return m;
}

// --- producer / consumer -----------------------------------------------------
// Cross-thread pointer flow: the producer thread builds a linked chain of
// heap nodes and hands the head pointer to the consumer thread (through the
// spawn-args / join-result channel), which chases the chain, folds the
// payloads and frees every node — cross-thread frees of blocks another
// thread's arena allocated.
std::unique_ptr<Module> BuildProducerConsumer(int scale) {
  auto m = std::make_unique<Module>("server.mt-prodcons");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  StructType* node = t.GetOrCreateStruct("chain_node");
  node->SetBody({{"next", t.VoidPtrTy(), 0}, {"val", t.I64(), 0}});

  // producer(n) -> head address: builds the chain front-to-back.
  Function* producer = m->CreateFunction("producer", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(producer->CreateBlock("entry"));
    Value* n = producer->arg(0);
    Value* i_slot = b.Alloca(t.I64(), "i");
    Value* head_slot = b.Alloca(t.VoidPtrTy(), "head");
    b.Store(b.Null(t.VoidPtrTy()), head_slot);

    LoopBlocks build = BeginLoop(b, producer, i_slot, b.I64(0), n, "build");
    Value* fresh = b.Malloc(b.I64(node->SizeInBytes()), t.PointerTo(node));
    b.Store(b.Load(head_slot), b.FieldAddr(fresh, "next"));
    b.Store(b.Mul(build.index, b.I64(17)), b.FieldAddr(fresh, "val"));
    b.Store(b.Bitcast(fresh, t.VoidPtrTy()), head_slot);
    b.Yield();
    EndLoop(b, build);

    b.Ret(b.PtrToInt(b.Load(head_slot)));
  }

  // consumer(head) -> folded sum: chases and frees the chain.
  Function* consumer = m->CreateFunction("consumer", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(consumer->CreateBlock("entry"));
    Value* cur_slot = b.Alloca(t.VoidPtrTy(), "cur");
    Value* acc_slot = b.Alloca(t.I64(), "acc");
    b.Store(b.IntToPtr(consumer->arg(0), t.VoidPtrTy()), cur_slot);
    b.Store(b.I64(0), acc_slot);

    ir::BasicBlock* header = consumer->CreateBlock("chase.header");
    ir::BasicBlock* body = consumer->CreateBlock("chase.body");
    ir::BasicBlock* exit = consumer->CreateBlock("chase.exit");
    b.Br(header);
    b.SetInsertPoint(header);
    Value* raw = b.Load(cur_slot);
    b.CondBr(b.ICmpNe(b.PtrToInt(raw), b.I64(0)), body, exit);
    b.SetInsertPoint(body);
    Value* cur = b.Bitcast(b.Load(cur_slot), t.PointerTo(node));
    Value* val = b.Load(b.FieldAddr(cur, "val"));
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), val), acc_slot);
    Value* next = b.Load(b.FieldAddr(cur, "next"));
    b.Store(next, cur_slot);
    b.Free(cur);
    b.Yield();
    b.Br(header);
    b.SetInsertPoint(exit);
    b.Ret(b.Load(acc_slot));
  }

  // Scale grows the chain, not the number of spawns: simulated thread ids
  // are never recycled, so a run spawns a bounded number of threads.
  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* head = b.Join(b.Spawn(producer, {b.I64(400 * scale)}, "prod"));
  Value* sum = b.Join(b.Spawn(consumer, {head}, "cons"));
  AccumulateChecksum(b, checksum, sum);
  EmitChecksumAndRet(b, checksum);
  return m;
}

// --- epoll-style event loop --------------------------------------------------
// The mt-* scenarios scaled to "millions of users" shape: each worker owns a
// disjoint slab of keep-alive connections (SO_REUSEPORT-style sharding) in
// its *own heap arena* — conn objects carry a handler function pointer, so
// every dispatch is a safe-store access homed to the worker's shard. Each
// epoch processes a pseudo-random ready batch (what epoll_wait would
// return, computed by index arithmetic so the program stays branch-free and
// race-free), then churns a few connections (close + fresh accept), which
// re-reads the shared handler table — the main-thread-homed accesses that
// set the contention floor the shard ablation levels off at.
std::unique_ptr<Module> BuildEventLoop(int scale) {
  auto m = std::make_unique<Module>("server.mt-epoll");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  constexpr uint64_t kConns = 512;   // per worker: kWorkers*512 live connections
  constexpr uint64_t kBatch = 64;    // connections per epoll_wait batch
  constexpr uint64_t kChurn = 8;     // closes + fresh accepts per epoch
  const uint64_t epochs = 3 * static_cast<uint64_t>(scale);

  const ir::FunctionType* handler_ty =
      t.FunctionTy(t.I64(), {t.PointerTo(t.CharTy()), t.I64()});
  StructType* conn = t.GetOrCreateStruct("conn");
  conn->SetBody({{"handler", t.PointerTo(handler_ty), 0},
                 {"state", t.I64(), 0},
                 {"reqs", t.I64(), 0}});

  // The shared handler table (read-only after main's registration loop).
  const uint64_t n_handlers = 4;
  GlobalVariable* handlers =
      m->CreateGlobal("handlers", t.ArrayOf(t.PointerTo(handler_ty), n_handlers));

  const std::vector<Function*> hfns =
      EmitFormatHandlers(*m, b, handler_ty, "ev_handler_", 16, 2, 3);

  // accept(conns, i, which, state): close any previous connection in slot i
  // and install a fresh one whose handler comes from the shared table.
  Function* accept_fn = m->CreateFunction(
      "ev_accept", t.FunctionTy(t.VoidTy(),
                                {t.PointerTo(t.PointerTo(conn)), t.I64(), t.I64(), t.I64()}));
  {
    b.SetInsertPoint(accept_fn->CreateBlock("entry"));
    Value* conns = accept_fn->arg(0);
    Value* idx = accept_fn->arg(1);
    Value* which = accept_fn->arg(2);
    Value* state = accept_fn->arg(3);
    Value* fresh = b.Malloc(b.I64(conn->SizeInBytes()), t.PointerTo(conn), "conn");
    Value* h = b.Load(b.IndexAddr(b.GlobalAddr(handlers),
                                  b.Binary(ir::BinOp::kAnd, which, b.I64(n_handlers - 1))));
    b.Store(h, b.FieldAddr(fresh, "handler"));
    b.Store(state, b.FieldAddr(fresh, "state"));
    b.Store(b.I64(0), b.FieldAddr(fresh, "reqs"));
    b.Store(fresh, b.IndexAddr(conns, idx));
    b.Ret();
  }

  // worker(shard): own connection slab, then the event loop.
  Function* worker = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64()}));
  {
    b.SetInsertPoint(worker->CreateBlock("entry"));
    Value* shard = worker->arg(0);
    Value* i_slot = b.Alloca(t.I64(), "i");
    Value* e_slot = b.Alloca(t.I64(), "epoch");
    Value* k_slot = b.Alloca(t.I64(), "k");
    Value* j_slot = b.Alloca(t.I64(), "j");
    Value* acc_slot = b.Alloca(t.I64(), "acc");
    b.Store(shard, acc_slot);
    Value* conns =
        b.Malloc(b.I64(kConns * 8), t.PointerTo(t.PointerTo(conn)), "conns");
    Value* resp = b.Malloc(b.I64(64), t.PointerTo(t.CharTy()), "resp");

    // Accept the initial keep-alive population.
    LoopBlocks init = BeginLoop(b, worker, i_slot, b.I64(0), b.I64(kConns), "init");
    b.Call(accept_fn, {conns, init.index, b.Add(init.index, shard),
                       b.Add(b.Mul(init.index, b.I64(7)), shard)});
    EndLoop(b, init);

    LoopBlocks ep = BeginLoop(b, worker, e_slot, b.I64(0), b.I64(epochs), "epoch");
    // Ready batch: the connections "epoll_wait" reported this epoch. The
    // stride is odd, so batch indices are distinct within an epoch.
    LoopBlocks batch = BeginLoop(b, worker, k_slot, b.I64(0), b.I64(kBatch), "batch");
    Value* ready = b.Binary(
        ir::BinOp::kAnd,
        b.Add(b.Mul(batch.index, b.I64(5)), b.Mul(ep.index, b.I64(3))),
        b.I64(kConns - 1));
    Value* cptr = b.Load(b.IndexAddr(conns, ready));
    Value* h = b.Load(b.FieldAddr(cptr, "handler"));
    Value* state = b.Load(b.FieldAddr(cptr, "state"));
    Value* len = b.IndirectCall(h, {resp, b.Add(state, ep.index)});
    b.Store(b.Add(b.Mul(state, b.I64(31)), len), b.FieldAddr(cptr, "state"));
    b.Store(b.Add(b.Load(b.FieldAddr(cptr, "reqs")), b.I64(1)),
            b.FieldAddr(cptr, "reqs"));
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), len), acc_slot);
    EndLoop(b, batch);

    // Keep-alive churn: a few connections close and fresh ones are accepted
    // in their slots (free + malloc in this worker's arena; handler re-read
    // from the shared table).
    LoopBlocks churn = BeginLoop(b, worker, j_slot, b.I64(0), b.I64(kChurn), "churn");
    Value* slot = b.Binary(
        ir::BinOp::kAnd,
        b.Add(b.Mul(churn.index, b.I64(11)), b.Mul(ep.index, b.I64(7))),
        b.I64(kConns - 1));
    b.Free(b.Load(b.IndexAddr(conns, slot)));
    b.Call(accept_fn, {conns, slot, b.Add(b.Add(slot, ep.index), shard),
                       b.Add(b.Mul(ep.index, b.I64(13)), slot)});
    EndLoop(b, churn);
    b.Yield();
    EndLoop(b, ep);

    // Drain: close every connection and fold the states.
    LoopBlocks drain = BeginLoop(b, worker, i_slot, b.I64(0), b.I64(kConns), "drain");
    Value* dptr = b.Load(b.IndexAddr(conns, drain.index));
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)),
                  b.Load(b.FieldAddr(dptr, "state"))),
            acc_slot);
    b.Free(dptr);
    EndLoop(b, drain);
    b.Free(resp);
    b.Free(conns);
    b.Ret(b.Load(acc_slot));
  }

  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");

  // Register handlers before any worker exists; read-only from then on.
  LoopBlocks reg = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n_handlers), "reg");
  Value* h = SelectOfFour(b, reg.index, hfns);
  b.Store(h, b.IndexAddr(b.GlobalAddr(handlers), reg.index));
  EndLoop(b, reg);

  RunWorkersAndFinish(b, worker, checksum);
  return m;
}

// --- epoll-style event loop with worker churn ---------------------------------
// The "millions of users" shape driving the epoch-ownership model
// (Config::migrate): a fixed pool of worker *slots* whose threads retire and
// respawn across generations, serving thousands of keep-alive connections
// that outlive the thread that accepted them. Generation 0's workers accept
// the population into their own heap arenas and publish the cells through a
// shared connection table; each later generation's worker inherits its
// predecessor's home slots at the spawn/join boundary and keeps serving the
// same cells — accesses static ownership charges as cross-thread forever,
// but that the epoch model re-homes after one migration. Requests
// flow through a bounded per-slot handoff queue with backpressure (overflow
// is counted and folded into the checksum, so dropping is observable
// behaviour), are served in batches, and a little keep-alive churn replaces
// cells with fresh ones from the serving thread's own arena. Main drains and
// closes everything at the end. Race-free by construction: generations are
// joined before their successors spawn, and concurrent workers touch
// disjoint table/queue regions.
std::unique_ptr<Module> BuildChurnServer(int scale) {
  auto m = std::make_unique<Module>("server.mt-epoll-churn");
  auto& t = m->types();
  IRBuilder b(m.get());
  GlobalVariable* checksum = MakeChecksumGlobal(*m);

  constexpr uint64_t kSlots = 3;       // worker-pool slots (concurrent threads)
  constexpr uint64_t kGens = 5;        // generations: kSlots*kGens spawns + main
                                       // == vm::kMaxThreads, tids never recycled
  constexpr uint64_t kConns = 384;     // per slot: 1152 keep-alive connections
  constexpr uint64_t kBatch = 48;      // requests produced per epoch
  constexpr uint64_t kQueueCap = 32;   // handoff-queue capacity (< kBatch:
                                       // every epoch exercises backpressure)
  constexpr uint64_t kChurn = 6;       // closes + fresh accepts per epoch
  const uint64_t epochs = 2 * static_cast<uint64_t>(scale);

  const ir::FunctionType* handler_ty =
      t.FunctionTy(t.I64(), {t.PointerTo(t.CharTy()), t.I64()});
  StructType* conn = t.GetOrCreateStruct("churn_conn");
  conn->SetBody({{"handler", t.PointerTo(handler_ty), 0},
                 {"state", t.I64(), 0},
                 {"reqs", t.I64(), 0}});

  const uint64_t n_handlers = 4;
  GlobalVariable* handlers = m->CreateGlobal(
      "churn_handlers", t.ArrayOf(t.PointerTo(handler_ty), n_handlers));
  // The shared connection-cell table: cells are allocated in worker arenas
  // but *published* here, so they survive their accepting thread.
  GlobalVariable* conn_table =
      m->CreateGlobal("conn_table", t.ArrayOf(t.PointerTo(conn), kSlots * kConns));
  // Per-slot bounded handoff queues (plain request tokens in regular
  // memory — the queue models the event-loop → worker-pool handoff, not
  // safe-region traffic).
  GlobalVariable* handoff =
      m->CreateGlobal("handoff", t.ArrayOf(t.I64(), kSlots * kQueueCap));

  const std::vector<Function*> hfns =
      EmitFormatHandlers(*m, b, handler_ty, "churn_handler_", 16, 2, 5);

  // accept(idx, which, state): install a fresh connection (allocated in the
  // *calling* thread's arena, handler from the shared table) into the shared
  // cell table at idx.
  Function* accept_fn = m->CreateFunction(
      "churn_accept", t.FunctionTy(t.VoidTy(), {t.I64(), t.I64(), t.I64()}));
  {
    b.SetInsertPoint(accept_fn->CreateBlock("entry"));
    Value* idx = accept_fn->arg(0);
    Value* which = accept_fn->arg(1);
    Value* state = accept_fn->arg(2);
    Value* fresh = b.Malloc(b.I64(conn->SizeInBytes()), t.PointerTo(conn), "conn");
    Value* h = b.Load(b.IndexAddr(b.GlobalAddr(handlers),
                                  b.Binary(ir::BinOp::kAnd, which, b.I64(n_handlers - 1))));
    b.Store(h, b.FieldAddr(fresh, "handler"));
    b.Store(state, b.FieldAddr(fresh, "state"));
    b.Store(b.I64(0), b.FieldAddr(fresh, "reqs"));
    b.Store(fresh, b.IndexAddr(b.GlobalAddr(conn_table), idx));
    b.Ret();
  }

  // worker(slot, gen): generation 0 accepts the slot's population; every
  // generation serves it through the handoff queue, churns a few cells into
  // its own arena, and returns its partial checksum (including the drop
  // count — backpressure is part of the observable behaviour).
  Function* worker = m->CreateFunction("worker", t.FunctionTy(t.I64(), {t.I64(), t.I64()}));
  {
    b.SetInsertPoint(worker->CreateBlock("entry"));
    Value* slot = worker->arg(0);
    Value* gen = worker->arg(1);
    Value* i_slot = b.Alloca(t.I64(), "i");
    Value* e_slot = b.Alloca(t.I64(), "epoch");
    Value* q_slot = b.Alloca(t.I64(), "q");
    Value* d_slot = b.Alloca(t.I64(), "d");
    Value* c_slot = b.Alloca(t.I64(), "c");
    Value* acc_slot = b.Alloca(t.I64(), "acc");
    Value* drops_slot = b.Alloca(t.I64(), "drops");
    b.Store(b.Add(slot, b.Mul(gen, b.I64(kSlots))), acc_slot);
    b.Store(b.I64(0), drops_slot);
    Value* resp = b.Malloc(b.I64(64), t.PointerTo(t.CharTy()), "resp");
    Value* base = b.Mul(slot, b.I64(kConns));
    Value* qbase = b.Mul(slot, b.I64(kQueueCap));

    ir::BasicBlock* boot = worker->CreateBlock("boot");
    ir::BasicBlock* serve = worker->CreateBlock("serve");
    b.CondBr(b.ICmpEq(gen, b.I64(0)), boot, serve);

    // Generation 0 only: accept the slot's keep-alive population.
    b.SetInsertPoint(boot);
    LoopBlocks init = BeginLoop(b, worker, i_slot, b.I64(0), b.I64(kConns), "init");
    b.Call(accept_fn, {b.Add(base, init.index), b.Add(init.index, slot),
                       b.Add(b.Mul(init.index, b.I64(7)), slot)});
    EndLoop(b, init);
    b.Br(serve);

    b.SetInsertPoint(serve);
    LoopBlocks ep = BeginLoop(b, worker, e_slot, b.I64(0), b.I64(epochs), "epoch");

    // Produce a request batch into the bounded handoff queue. kBatch >
    // kQueueCap, so the tail of every batch hits backpressure: rejected
    // tokens overwrite the last queue word and are counted as drops.
    LoopBlocks prod = BeginLoop(b, worker, q_slot, b.I64(0), b.I64(kBatch), "prod");
    Value* token = b.Binary(
        ir::BinOp::kAnd,
        b.Add(b.Mul(prod.index, b.I64(5)),
              b.Add(b.Mul(ep.index, b.I64(3)), b.Mul(gen, b.I64(11)))),
        b.I64(kConns - 1));
    Value* fits = b.ICmpSLt(prod.index, b.I64(kQueueCap));
    Value* qidx = b.Select(fits, prod.index, b.I64(kQueueCap - 1));
    b.Store(token, b.IndexAddr(b.GlobalAddr(handoff), b.Add(qbase, qidx)));
    b.Store(b.Add(b.Load(drops_slot), b.Select(fits, b.I64(0), b.I64(1))),
            drops_slot);
    EndLoop(b, prod);

    // Drain the queue: every accepted token dispatches one connection. On
    // generations > 0 these cells live in a *predecessor's* arena — the
    // accesses the epoch model re-homes to this thread and the static model
    // keeps charging forever.
    LoopBlocks drain = BeginLoop(b, worker, d_slot, b.I64(0), b.I64(kQueueCap), "drain");
    Value* req = b.Load(b.IndexAddr(b.GlobalAddr(handoff), b.Add(qbase, drain.index)));
    Value* cptr = b.Load(b.IndexAddr(b.GlobalAddr(conn_table), b.Add(base, req)));
    Value* h = b.Load(b.FieldAddr(cptr, "handler"));
    Value* state = b.Load(b.FieldAddr(cptr, "state"));
    Value* len = b.IndirectCall(h, {resp, b.Add(state, drain.index)});
    b.Store(b.Add(b.Mul(state, b.I64(31)), len), b.FieldAddr(cptr, "state"));
    b.Store(b.Add(b.Load(b.FieldAddr(cptr, "reqs")), b.I64(1)),
            b.FieldAddr(cptr, "reqs"));
    b.Store(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), len), acc_slot);
    EndLoop(b, drain);

    // Keep-alive churn: close a few connections and accept replacements in
    // this thread's own arena — cells genuinely change homes across
    // generations.
    LoopBlocks churn = BeginLoop(b, worker, c_slot, b.I64(0), b.I64(kChurn), "churn");
    Value* victim = b.Binary(
        ir::BinOp::kAnd,
        b.Add(b.Mul(churn.index, b.I64(13)),
              b.Add(b.Mul(ep.index, b.I64(7)), b.Mul(gen, b.I64(3)))),
        b.I64(kConns - 1));
    Value* vidx = b.Add(base, victim);
    b.Free(b.Load(b.IndexAddr(b.GlobalAddr(conn_table), vidx)));
    b.Call(accept_fn, {vidx, b.Add(victim, b.Add(gen, ep.index)),
                       b.Add(b.Mul(ep.index, b.I64(13)), victim)});
    EndLoop(b, churn);
    b.Yield();
    EndLoop(b, ep);

    b.Free(resp);
    b.Ret(b.Add(b.Mul(b.Load(acc_slot), b.I64(31)), b.Load(drops_slot)));
  }

  // Main: register handlers, run the worker-slot pool through kGens
  // generations (join generation g before spawning g+1 — the spawn/join
  // boundary where home slots are inherited and epochs publish), then drain
  // the surviving population.
  Function* main = m->CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* i_slot = b.Alloca(t.I64(), "i");

  LoopBlocks reg = BeginLoop(b, main, i_slot, b.I64(0), b.I64(n_handlers), "reg");
  Value* h = SelectOfFour(b, reg.index, hfns);
  b.Store(h, b.IndexAddr(b.GlobalAddr(handlers), reg.index));
  EndLoop(b, reg);

  for (uint64_t g = 0; g < kGens; ++g) {
    std::vector<Value*> tids;
    tids.reserve(kSlots);
    for (uint64_t w = 0; w < kSlots; ++w) {
      tids.push_back(b.Spawn(worker, {b.I64(w), b.I64(g)},
                             "g" + std::to_string(g) + "w" + std::to_string(w)));
    }
    for (Value* tid : tids) {
      AccumulateChecksum(b, checksum, b.Join(tid));
    }
  }

  LoopBlocks fin = BeginLoop(b, main, i_slot, b.I64(0), b.I64(kSlots * kConns), "fin");
  Value* cptr = b.Load(b.IndexAddr(b.GlobalAddr(conn_table), fin.index));
  AccumulateChecksum(b, checksum, b.Load(b.FieldAddr(cptr, "state")));
  b.Free(cptr);
  EndLoop(b, fin);

  EmitChecksumAndRet(b, checksum);
  return m;
}

}  // namespace

const std::vector<Workload>& EventLoop() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"mt-event-loop", "C", BuildEventLoop, {}},
  };
  return *workloads;
}

const std::vector<Workload>& ChurnServer() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"mt-epoll-churn", "C", BuildChurnServer, {}},
  };
  return *workloads;
}

const std::vector<Workload>& ConcurrentServer() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"mt-static-page", "C", BuildMtStaticPage, {}},
      {"mt-wsgi-page", "C", BuildMtWsgiPage, {}},
      {"mt-dynamic-page", "C", BuildMtDynamicPage, {}},
      {"mt-producer-consumer", "C", BuildProducerConsumer, {}},
  };
  return *workloads;
}

}  // namespace cpi::workloads
