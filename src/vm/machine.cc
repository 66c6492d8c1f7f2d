#include "src/vm/machine.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <new>
#include <unordered_map>
#include <utility>

#include "src/runtime/seal.h"
#include "src/support/rng.h"
#include "src/vm/bits.h"
#include "src/vm/cache.h"
#include "src/vm/decode.h"
#include "src/vm/layout.h"

namespace cpi::vm {

const char* RunStatusName(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kViolation: return "violation";
    case RunStatus::kCrash: return "crash";
    case RunStatus::kOutOfFuel: return "out-of-fuel";
  }
  CPI_UNREACHABLE();
}

const char* EngineKindName(EngineKind e) {
  switch (e) {
    case EngineKind::kReference: return "reference";
    case EngineKind::kDecoded: return "decoded";
    case EngineKind::kFused: return "fused";
  }
  CPI_UNREACHABLE();
}

namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::CastKind;
using ir::Function;
using ir::Instruction;
using ir::IntrinsicId;
using ir::LibFunc;
using ir::Opcode;
using ir::StackKind;
using ir::Type;
using ir::Value;
using ir::ValueKind;
using runtime::EntryKind;
using runtime::IsolationKind;
using runtime::RegMeta;
using runtime::SafeEntry;
using runtime::TouchList;
using runtime::Violation;

// --- cost model ------------------------------------------------------------
// One fixed table for every scheme; the protection ops' costs are charged
// only by the intrinsics a scheme's instrumentation emits.
constexpr uint64_t kBaseCycles = 1;
constexpr uint64_t kCallCycles = 3;
constexpr uint64_t kCheckCycles = 1;     // software bounds / code-pointer assert
constexpr uint64_t kCfiCheckCycles = 3;  // coarse-CFI valid-set membership test
constexpr uint64_t kSealCycles = 4;      // PAC-style sign (PtrEnc store / call setup)
constexpr uint64_t kAuthCycles = 4;      // PAC-style authenticate (PtrEnc load / return)
// Shard-crossing premium on a safe-pointer-store operation of a concurrent
// run (see RunOptions::shards) and on each shard an epoch publish migrates
// (RunOptions::migrate).
constexpr uint64_t kSyncCycles = 2;
constexpr uint64_t kAllocCycles = 24;
constexpr uint64_t kFloatExtraCycles = 2;
constexpr uint64_t kDivExtraCycles = 12;
constexpr uint64_t kSfiMaskCycles = 1;
constexpr uint64_t kLibCallSetupCycles = 8;
constexpr uint64_t kSpawnCycles = 200;  // clone+stack setup, amortised
constexpr uint64_t kJoinCycles = 24;    // futex-style wake handshake
constexpr uint64_t kSbShadowBase = 0x5000'0000'0000ULL;
constexpr uint64_t kMaxOutputWords = 1u << 22;

// MaskToWidth / SignExtend / TypeBits / BitsToDouble / DoubleToBits live in
// src/vm/bits.h, shared with the predecoder.

struct HeapBlock {
  uint64_t size = 0;
  uint64_t temporal_id = 0;
  bool live = false;
};

class Machine {
 public:
  // `decoded` is null on the reference tier; otherwise it is a decode of
  // `module` under `layout` for options.engine.
  Machine(const ir::Module& module, const ProgramLayout& layout, const DecodedModule* decoded,
          const RunOptions& options)
      : module_(module),
        options_(options),
        layout_(layout),
        decoded_(decoded),
        store_(options.use_safe_store
                   ? runtime::CreateSafeStore(options.store, options.shards, &ShardOfAddress)
                   : nullptr),
        sealer_(runtime::DeriveSealKey(options.seed)),
        shards_(std::max<uint32_t>(options.shards, 1)),
        migrate_(options.migrate && shards_ > 1) {
    // Epoch 0. With migration, only the main thread has ever lived, so only
    // its home is claimed; until the first spawn publishes epoch 1 nothing is
    // charged anyway (concurrent_ is false), which is what keeps
    // single-threaded migrate-on runs byte-identical at every shard count.
    // Without it, every home is claimed by its own thread and epoch 0 is
    // never republished: static ownership, a pure function of the shard
    // count — never of the schedule — so charges stay engine/quantum-
    // invariant. A shard is then write-local to t when t's home is the only
    // one hashing to it; with one shard every home does, so it is shared.
    for (uint64_t h = 0; h < kMaxThreads; ++h) {
      home_owner_[h] = migrate_ ? -1 : static_cast<int32_t>(h);
    }
    home_owner_[0] = 0;
    epochs_.push_back({DeriveEpochOwners(), std::vector<uint8_t>(shards_, 0)});
  }

  RunResult Run();

 private:
  struct Frame {
    const Function* func = nullptr;
    std::vector<uint64_t> regs;
    std::vector<RegMeta> meta;
    const BasicBlock* bb = nullptr;
    // Decoded engine: the function's micro-op array. `ip` then indexes into
    // it (the reference interpreter indexes bb->instructions() instead).
    const DecodedFunction* dfunc = nullptr;
    size_t ip = 0;
    const Instruction* pending_call = nullptr;
    uint64_t saved_sp = 0;
    uint64_t saved_safe_sp = 0;
    uint64_t ret_slot = 0;       // address of the saved-return-token word
    bool ret_slot_safe = false;  // token lives in the safe region
    uint64_t token = 0;
    // Chained return MACs (ProtectionFlags::ret_chain): the thread's chain
    // head at the moment this frame was pushed — the predecessor the saved
    // token was sealed over, restored as the head when this frame returns.
    uint64_t saved_chain = 0;
    uint64_t cookie_addr = 0;  // 0: no cookie
    bool no_continuation = false;
  };

  // One simulated thread. Thread 0 is the main thread; its regions coincide
  // with the classic single-thread layout, so a program that never spawns is
  // executed — and charged — byte-identically to the pre-scheduler VM.
  // Every thread owns: its call stack (frames), its unsafe-stack cursor in
  // shared regular memory, a private ByteMemory-backed safe stack (the
  // per-thread slice of Ms), a private L1 cache (threads model cores), a
  // private heap arena + free lists (schedule-independent malloc addresses),
  // and private ret-token/temporal-id sequences. Everything a thread shares
  // — regular memory, the safe pointer store, the heap block table — is
  // deterministic under the fixed-quantum round-robin below.
  struct ThreadContext {
    enum class State { kRunnable, kJoining, kDone };

    explicit ThreadContext(uint64_t id) : tid(id) {}

    uint64_t tid = 0;
    State state = State::kRunnable;
    uint64_t join_target = 0;  // valid while kJoining
    bool reaped = false;       // a finished thread may be joined exactly once
    uint64_t exit_value = 0;
    RegMeta exit_meta;

    std::vector<Frame> frames;
    uint64_t sp = 0;
    uint64_t safe_sp = 0;
    uint64_t token_counter = 0;
    // Chained return MACs: the sealed token of the innermost live frame (0
    // before the first call). Per-thread — each thread authenticates its own
    // chain, like PACStack's per-thread CR register.
    uint64_t ret_chain_head = 0;
    uint64_t temporal_counter = 0;  // spawned threads mint (tid<<48 | n) ids
    uint64_t heap_next = 0;
    uint64_t heap_limit = 0;
    std::unordered_map<uint64_t, std::vector<uint64_t>> free_lists;  // size -> addrs
    ByteMemory safe_stack;
    CacheModel cache;
    // Epoch-local ownership snapshot: index into epochs_ (always 0 without
    // RunOptions::migrate), adopted at this thread's birth and at its *own*
    // spawn/join ops only. A thread's contention charges are therefore a
    // pure function of its own operation stream plus happens-before-ordered
    // spawn/join events — never of how quanta interleaved the threads.
    uint32_t epoch = 0;
  };

  // --- setup ---------------------------------------------------------------
  void LoadProgram();
  // Run()'s body up to (but excluding) the result aggregation, so the
  // std::bad_alloc containment in Run() covers load + every engine loop
  // while aggregation still happens for contained-OOM runs.
  void RunToCompletion();

  // --- fault injection -----------------------------------------------------
  // Armed from RunOptions::faults. The loops compare the instruction counter
  // against fault_at_ (UINT64_MAX when no event is pending), so a run
  // without a plan pays one never-taken branch per dispatch and nothing
  // else. Fault actions charge no simulated cycles: they model an external
  // adversary / failing host, not program work.
  __attribute__((noinline, cold)) void ApplyPendingFaults();
  void InjectFault(const FaultEvent& e);

  // --- trap handling -------------------------------------------------------
  // Traps fire at most once per run; keeping them out of line keeps the
  // flattened fused loop's hot code small.
  __attribute__((noinline, cold)) void Trap(RunStatus status, Violation v,
                                            std::string message) {
    if (done_) {
      return;
    }
    done_ = true;
    result_.status = status;
    result_.violation = v;
    result_.message = std::move(message);
  }
  __attribute__((noinline, cold)) void Crash(std::string message) {
    Trap(RunStatus::kCrash, Violation::kNone, std::move(message));
  }
  __attribute__((noinline, cold)) void Abort(Violation v, std::string message) {
    Trap(RunStatus::kViolation, v, std::move(message));
  }

  // --- cost accounting -----------------------------------------------------
  __attribute__((always_inline)) void Cycles(uint64_t n) {
    result_.counters.cycles += n;
  }
  __attribute__((always_inline)) void ChargeAccess(uint64_t addr) {
    ++result_.counters.mem_accesses;
    Cycles(cur_->cache.Access(addr));
  }
  void ChargeRegularAccess(uint64_t addr) {
    ChargeAccess(addr);
    if (options_.isolation == IsolationKind::kSfi) {
      Cycles(kSfiMaskCycles);  // the SFI mask on every regular access
    }
  }

  // --- value plumbing ------------------------------------------------------
  uint64_t Eval(const Frame& f, const Value* v) const;
  RegMeta EvalMeta(const Frame& f, const Value* v) const;
  __attribute__((always_inline)) void SetRegId(Frame& f, uint32_t id,
                                               uint64_t value, const RegMeta& meta) {
    f.regs[id] = value;
    f.meta[id] = meta;
  }
  void SetReg(Frame& f, const Instruction* inst, uint64_t value, const RegMeta& meta) {
    SetRegId(f, inst->value_id(), value, meta);
  }
  // Decoded-operand plumbing: constants were masked at decode time.
  __attribute__((always_inline)) static uint64_t SlotVal(const Frame& f,
                                                         const OperandSlot& s) {
    return s.is_imm() ? s.imm() : f.regs[s.reg];
  }
  __attribute__((always_inline)) static RegMeta SlotMeta(const Frame& f,
                                                         const OperandSlot& s) {
    return s.is_imm() ? RegMeta::None() : f.meta[s.reg];
  }

  // Operand accessors bridging the two engines into the shared semantic
  // bodies (DoLibCall / DoIntrinsic / DoRet): InstOps re-evaluates IR
  // operands the way the reference interpreter always has; SlotOps reads
  // pre-resolved slots.
  struct InstOps {
    Machine& m;
    Frame& f;
    const Instruction* inst;
    uint64_t value(size_t i) const { return m.Eval(f, inst->operand(i)); }
    RegMeta meta(size_t i) const { return m.EvalMeta(f, inst->operand(i)); }
    void set(uint64_t v, const RegMeta& mt) const { m.SetReg(f, inst, v, mt); }
  };
  struct SlotOps {
    Machine& m;
    Frame& f;
    const DecodedOp& op;
    const OperandSlot& slot(size_t i) const { return i == 0 ? op.a : i == 1 ? op.b : op.c; }
    uint64_t value(size_t i) const { return SlotVal(f, slot(i)); }
    RegMeta meta(size_t i) const { return SlotMeta(f, slot(i)); }
    void set(uint64_t v, const RegMeta& mt) const { m.SetRegId(f, op.dest, v, mt); }
  };

  // --- routed memory access ------------------------------------------------
  // Resolve returns the backing memory for `addr` and the address to use in
  // it, enforcing safe-region isolation: only accesses whose provenance
  // (`meta`) proves a compiler-generated safe-stack object may touch the
  // safe region. Under SFI any other safe-region address is masked back
  // into the regular region. Resolve has no side effects and returns nullptr
  // when the isolation mechanism would fault; Route traps in that case.
  ByteMemory* Resolve(uint64_t addr, const RegMeta& meta, uint64_t* effective);
  ByteMemory* Route(uint64_t addr, const RegMeta& meta, uint64_t* effective);
  bool DataRead(uint64_t addr, uint64_t size, const RegMeta& addr_meta, uint64_t* out);
  bool DataWrite(uint64_t addr, uint64_t size, const RegMeta& addr_meta, uint64_t value);

  // One routed byte; false after trapping on a fault.
  bool ReadByteRouted(uint64_t addr, const RegMeta& meta, uint8_t* out);
  bool WriteByteRouted(uint64_t addr, const RegMeta& meta, uint8_t value);
  // The libc-style routines' byte movers. Each works one page run at a time
  // (ByteMemory::ReadView): a run never crosses a page of any operand, so it
  // resolves and translates once. A run whose route or page would fault
  // replays its first byte through the byte helpers, which trap there with
  // the message a byte loop gives. Each returns false after trapping.
  // memcpy/memmove order: forward, or backward from the last byte. Keeps a
  // byte loop's result when the operands overlap, including the pattern a
  // forward copy replicates when dst is just above src.
  bool CopyBytes(uint64_t dst, const RegMeta& dm, uint64_t src, const RegMeta& sm, uint64_t n,
                 bool backward);
  // Stores `data[0..n)`, or n copies of `fill` when data is null.
  bool StoreBytes(uint64_t dst, const RegMeta& dm, uint64_t n, const uint8_t* data, uint8_t fill);
  bool ScanStrlen(uint64_t addr, const RegMeta& meta, uint64_t* len);
  // strcmp: *at is the index of the first differing byte or of the NUL.
  bool CompareStrings(uint64_t a, const RegMeta& ma, uint64_t b, const RegMeta& mb, uint64_t* at,
                      int64_t* result);
  // Charges a transfer: one cache access per touched 8-byte chunk, issued a
  // cache line at a time.
  void ChargeChunked(uint64_t addr, uint64_t len);

  // --- frames ---------------------------------------------------------------
  bool PushFrame(const Function* callee, const std::vector<uint64_t>& args,
                 const std::vector<RegMeta>& arg_meta, bool no_continuation);
  void PopFrame();
  void ReturnToCaller(uint64_t value, const RegMeta& meta);

  // --- execution ------------------------------------------------------------
  void Step();
  void ExecBinOp(Frame& f, const Instruction* inst);
  void ExecCast(Frame& f, const Instruction* inst);
  void ExecLibCall(Frame& f, const Instruction* inst);
  void ExecIntrinsic(Frame& f, const Instruction* inst);
  void ExecRet(Frame& f, const Instruction* inst);
  void ExecCallCommon(Frame& f, const Instruction* inst, const Function* callee,
                      size_t first_arg_index);

  // Semantic bodies shared verbatim by both engines, parameterised over the
  // operand source (InstOps / SlotOps). Each advances f.ip exactly like the
  // reference switch arms did.
  template <typename Ops>
  void DoLibCall(Frame& f, LibFunc func, bool checked, const Ops& ops);
  template <typename Ops>
  void DoIntrinsic(Frame& f, IntrinsicId id, const Ops& ops);
  template <typename Ops>
  void DoRet(Frame& f, bool has_value, const Ops& ops);
  template <typename Ops>
  void DoBinOp(Frame& f, BinOp bop, int bits, int result_bits, const Ops& ops);
  template <typename Ops>
  void DoCast(Frame& f, CastKind kind, int src_bits, int dst_bits, const Ops& ops);
  void DoMalloc(Frame& f, uint64_t requested, uint32_t dest);
  void DoFree(Frame& f, uint64_t addr);
  // Thread ops, shared by both engines.
  void DoSpawn(Frame& f, const Function* callee, std::vector<uint64_t> args,
               std::vector<RegMeta> metas, uint32_t dest);
  void DoJoin(Frame& f, uint64_t tid, uint32_t dest);
  void DoYield(Frame& f);
  // Fresh allocation identifier for the current thread, written to *id.
  // Thread 0 draws from the classic shared sequence (1, 2, ...); spawned
  // threads mint from a private namespace so ids are schedule-independent.
  // Returns false (after trapping) if the minted id failed to register.
  bool AllocateTemporalId(uint64_t* id);
  // The argument slots of a decoded call or spawn: values and metadata.
  static std::pair<std::vector<uint64_t>, std::vector<RegMeta>> ReadArgSlots(
      const Frame& f, const DecodedOp& op);
  // Argument marshalling + frame push shared by direct and indirect decoded
  // calls.
  void DoCallSlots(Frame& f, const DecodedOp& op, const Function* callee);

  // --- decoded engine -------------------------------------------------------
  using Handler = void (*)(Machine&, Frame&, const DecodedOp&);
  static const Handler kDispatch[kNumOpcodes];
  void RunDecodedLoop();
  // Charges the dispatch-loop costs (fuel check, instruction count, base
  // cycles, quantum tick) for the next constituent of a fused sequence —
  // exactly what RunDecodedLoop's header would have charged had the
  // constituent been dispatched on its own. The quantum tick is clamped so
  // a macro never reschedules mid-sequence; the loop's own decrement fires
  // the (at most two ops deferred) context switch right after the macro,
  // which race-free programs cannot observe (tests/sched_test.cc sweeps the
  // quantum for exactly this invariance). Returns false when the macro must
  // stop (trap, including out-of-fuel between constituents).
  // Batched charging for a macro's tail constituents: one fuel-headroom
  // check, one counter update, one clamped quantum step — instead of a
  // FusedStep per tail. Returns false when fewer than `tails` steps of fuel
  // remain; the caller then falls back to per-constituent FusedStep
  // charging so an out-of-fuel trap lands on exactly the same constituent
  // as unfused dispatch would.
  __attribute__((always_inline)) bool PrechargeTails(uint64_t tails) {
    if (result_.counters.instructions + tails > options_.max_steps) {
      return false;
    }
    result_.counters.instructions += tails;
    Cycles(tails * kBaseCycles);
    // == applying FusedStep's clamped decrement `tails` times.
    const uint64_t dec = quantum_left_ - 1 < tails ? quantum_left_ - 1 : tails;
    quantum_left_ -= dec;
    return true;
  }
  // A constituent trapped after PrechargeTails: the constituents after it
  // never ran, so return their pre-charged costs — trap-time counters stay
  // bit-identical to unfused dispatch, where charging stops at the trap.
  __attribute__((always_inline)) void UnchargeTails(uint64_t not_run) {
    result_.counters.instructions -= not_run;
    result_.counters.cycles -= not_run * kBaseCycles;
  }
  __attribute__((always_inline)) bool FusedStep() {
    if (done_) {
      return false;
    }
    if (result_.counters.instructions >= options_.max_steps) {
      Trap(RunStatus::kOutOfFuel, Violation::kNone, "step budget exhausted");
      return false;
    }
    ++result_.counters.instructions;
    Cycles(kBaseCycles);
    if (quantum_left_ > 1) {
      --quantum_left_;
    }
    return true;
  }
  static void OpAlloca(Machine& m, Frame& f, const DecodedOp& op);
  static void OpLoad(Machine& m, Frame& f, const DecodedOp& op);
  static void OpStore(Machine& m, Frame& f, const DecodedOp& op);
  static void OpFieldAddr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpIndexAddr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpBinOp(Machine& m, Frame& f, const DecodedOp& op);
  static void OpCast(Machine& m, Frame& f, const DecodedOp& op);
  static void OpSelect(Machine& m, Frame& f, const DecodedOp& op);
  static void OpCall(Machine& m, Frame& f, const DecodedOp& op);
  static void OpIndirectCall(Machine& m, Frame& f, const DecodedOp& op);
  static void OpLibCall(Machine& m, Frame& f, const DecodedOp& op);
  static void OpMalloc(Machine& m, Frame& f, const DecodedOp& op);
  static void OpFree(Machine& m, Frame& f, const DecodedOp& op);
  static void OpFuncAddr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpGlobalAddr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpBr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpCondBr(Machine& m, Frame& f, const DecodedOp& op);
  static void OpRet(Machine& m, Frame& f, const DecodedOp& op);
  static void OpInput(Machine& m, Frame& f, const DecodedOp& op);
  static void OpOutput(Machine& m, Frame& f, const DecodedOp& op);
  static void OpIntrinsic(Machine& m, Frame& f, const DecodedOp& op);
  static void OpSpawn(Machine& m, Frame& f, const DecodedOp& op);
  static void OpJoin(Machine& m, Frame& f, const DecodedOp& op);
  static void OpYield(Machine& m, Frame& f, const DecodedOp& op);

  // --- fused engine (superinstruction handlers) -----------------------------
  // Each executes its constituents' micro semantics back to back, charging
  // the tails in one batch (PrechargeTails) so the simulated Counters match
  // the unfused dispatch bit for bit. Constituent ops still sit in the op
  // array after the head with their original opcodes; straight-line
  // constituents advance f.ip by exactly one, so tails are *(&op + k).
  //
  // FusePair/FuseTriple are instantiated once per macro opcode with the
  // constituent handlers as template arguments: every constituent is a
  // direct, statically-predictable call. kTraps* marks constituents that can
  // trap (loads, stores, binop division, intrinsics); only those pay a done_
  // check and a counter rollback path.
  static void OpCmpBr(Machine& m, Frame& f, const DecodedOp& op);
  template <Handler A, Handler B, bool kTrapsA>
  static void FusePair(Machine& m, Frame& f, const DecodedOp& op) {
    if (!m.PrechargeTails(1)) {  // out-of-fuel boundary: exact per-op charging
      A(m, f, op);
      if (!m.FusedStep()) return;
      B(m, f, f.dfunc->ops[f.ip]);
      return;
    }
    A(m, f, op);
    if (kTrapsA && m.done_) {
      m.UnchargeTails(1);
      return;
    }
    B(m, f, *(&op + 1));
  }
  template <Handler A, Handler B, Handler C, bool kTrapsA, bool kTrapsB>
  static void FuseTriple(Machine& m, Frame& f, const DecodedOp& op) {
    if (!m.PrechargeTails(2)) {  // out-of-fuel boundary: exact per-op charging
      A(m, f, op);
      if (!m.FusedStep()) return;
      B(m, f, f.dfunc->ops[f.ip]);
      if (!m.FusedStep()) return;
      C(m, f, f.dfunc->ops[f.ip]);
      return;
    }
    A(m, f, op);
    if (kTrapsA && m.done_) {
      m.UnchargeTails(2);
      return;
    }
    B(m, f, *(&op + 1));
    if (kTrapsB && m.done_) {
      m.UnchargeTails(1);
      return;
    }
    C(m, f, *(&op + 2));
  }

  // --- scheduler ------------------------------------------------------------
  // Rotates to the next runnable thread (round-robin by thread id, starting
  // after the current one) and refills the quantum. Context switches charge
  // no simulated cycles: with one runnable thread this is a no-op, which is
  // what keeps single-thread programs cycle-identical at any quantum.
  void Reschedule();

  // --- safe store helpers ---------------------------------------------------
  // A module whose instrumentation emits safe-store intrinsics must run with
  // a scheme whose runtime requirements include the store.
  void StoreSet(uint64_t addr, const SafeEntry& entry) {
    CPI_CHECK(store_ != nullptr);
    TouchList t;
    store_->Set(addr, entry, &t);
    ChargeStoreTouches(addr, t, /*is_read=*/false);
  }
  SafeEntry StoreGet(uint64_t addr) {
    CPI_CHECK(store_ != nullptr);
    TouchList t;
    SafeEntry e = store_->Get(addr, &t);
    ChargeStoreTouches(addr, t, /*is_read=*/true);
    return e;
  }
  void StoreClear(uint64_t addr) {
    CPI_CHECK(store_ != nullptr);
    TouchList t;
    store_->Clear(addr, &t);
    ChargeStoreTouches(addr, t, /*is_read=*/false);
  }
  // The shard-crossing rule (see kSyncCycles), judged against the accessing
  // thread's own epoch snapshot: an access is contended unless its key's
  // shard is write-local to the executing thread. Reads pay like writes —
  // validation against a shard another thread can write is conservatively
  // treated as a crossing (and with one shard, shared by every home, that
  // reproduces the flat model exactly) — except that *reads* of a shard its
  // owner froze at a publish boundary are free: RCU's grace-period
  // guarantee, the published data cannot change under a reader between its
  // adoption points. Writes always pay unless the shard is owned: a writer
  // must take the shard's lock no matter what snapshot it holds.
  bool ShardContended(uint64_t addr, bool is_read) const {
    const EpochTable& e = epochs_[cur_->epoch];
    const uint32_t s = ShardOfAddress(addr, shards_);
    if (e.owner[s] == static_cast<int32_t>(cur_->tid)) {
      return false;
    }
    return !(is_read && e.frozen[s]);
  }
  void ChargeStoreTouches(uint64_t addr, const TouchList& t, bool is_read) {
    ++result_.counters.safe_store_ops;
    if (concurrent_ && ShardContended(addr, is_read)) {
      ++result_.counters.store_contended_ops;
      Cycles(kSyncCycles);
    }
    for (int i = 0; i < t.count; ++i) {
      ChargeAccess(t.addrs[i]);
    }
  }
  // Bulk safe-store mutation (checked memcpy/memmove/clear): `ops` per-word
  // operations at 2 cycles each. The shard crossing is judged once for the
  // whole transfer by its destination base address — a checked memcpy
  // publishes into one region, so one epoch/ownership validation covers the
  // batch (documented accounting rule; ranges almost never straddle homes).
  // Bulk transfers mutate the destination shard, so under migration they are
  // writes: the frozen-read exemption never applies.
  void ChargeBulkStoreOps(uint64_t dst_addr, uint64_t ops) {
    result_.counters.safe_store_ops += ops;
    Cycles(ops * 2);
    if (concurrent_ && ShardContended(dst_addr, /*is_read=*/false)) {
      result_.counters.store_contended_ops += ops;
      Cycles(ops * kSyncCycles);
    }
  }
  // Owner of each shard under the current home->thread claim map: the one
  // thread owning every claimed home that hashes into the shard, -1 when no
  // claimed home does (nobody has lived there), -2 when claimed homes of
  // two different threads collide (genuinely shared). Unclaimed homes do
  // not poison a shard — that is the whole advantage of migration over
  // static ownership, which claims all kMaxThreads homes up front.
  std::vector<int32_t> DeriveEpochOwners() const {
    std::vector<int32_t> owner(shards_, -1);
    for (uint64_t h = 0; h < kMaxThreads; ++h) {
      const int32_t o = home_owner_[h];
      if (o < 0) {
        continue;
      }
      const uint32_t s = static_cast<uint32_t>(ShardHash(h) % shards_);
      if (owner[s] == -1) {
        owner[s] = o;
      } else if (owner[s] != o) {
        owner[s] = -2;  // mixed ownership: shared
      }
    }
    return owner;
  }

  // Re-derives shard ownership from the dynamic home→thread map and
  // publishes it as a new epoch. Called only at spawn/join boundaries (the
  // only points where the map changes), always by the thread executing the
  // spawn/join — in every shipped workload and generated program that is a
  // single coordinator thread, so the publish sequence is ordered by
  // happens-before and charges stay engine/quantum-invariant. Each shard
  // whose owner changed is a *migration*: it costs the publisher one
  // kSyncCycles (the release-store installing the new owner) and is
  // counted in Counters::shard_migrations. Shards the publisher owns come
  // out frozen — publish-then-spawn/join makes their current contents
  // visible to every thread adopting this epoch, so reads need no sync
  // until the owner changes again.
  void PublishEpoch() {
    const EpochTable& prev = epochs_.back();
    EpochTable next;
    next.owner = DeriveEpochOwners();
    next.frozen.assign(shards_, 0);
    uint64_t migrated = 0;
    for (uint32_t s = 0; s < shards_; ++s) {
      if (next.owner[s] != prev.owner[s]) {
        ++migrated;  // owner changed: any previous freeze is invalidated
      } else {
        next.frozen[s] = prev.frozen[s];
      }
      if (next.owner[s] >= 0 && next.owner[s] == static_cast<int32_t>(cur_->tid)) {
        next.frozen[s] = 1;
      }
    }
    if (migrated > 0) {
      result_.counters.shard_migrations += migrated;
      Cycles(migrated * kSyncCycles);
    }
    if (next.owner != prev.owner || next.frozen != prev.frozen) {
      epochs_.push_back(std::move(next));
    }
    cur_->epoch = static_cast<uint32_t>(epochs_.size() - 1);
  }
  void ChargeCheck() {
    ++result_.counters.checks;
    if (!options_.mpx_assist) {
      Cycles(kCheckCycles);
    }
  }
  // One PAC-style sign or authenticate operation (PtrEnc).
  void ChargeSeal() {
    ++result_.counters.seal_ops;
    Cycles(kSealCycles);
  }
  void ChargeAuth() {
    ++result_.counters.seal_ops;
    Cycles(kAuthCycles);
  }

  // Temporal liveness (only enforced when the module was instrumented with
  // the temporal extension).
  bool TemporallyLive(const RegMeta& meta) const {
    return !module_.protection().temporal || temporal_.IsLive(meta.temporal_id);
  }

  const Function* FunctionAtAddress(uint64_t addr) const {
    if (!IsCodeAddress(addr) || (addr - kCodeBase) % kCodeStride != 0) {
      return nullptr;
    }
    const uint64_t index = (addr - kCodeBase) / kCodeStride;
    if (index >= module_.functions().size()) {
      return nullptr;
    }
    return module_.functions()[index].get();
  }
  uint64_t CodeAddressOf(const Function* f) const { return layout_.CodeAddress(f); }

  // --- state ----------------------------------------------------------------
  const ir::Module& module_;
  RunOptions options_;
  const ProgramLayout& layout_;           // flat per-ordinal address vectors
  const DecodedModule* const decoded_;    // null when running the reference
  RunResult result_;
  bool done_ = false;

  ByteMemory regular_;     // Mu (shared by every thread)
  std::unique_ptr<runtime::SafePointerStore> store_;  // shared safe store
  runtime::PointerSealer sealer_;
  runtime::TemporalIdService temporal_;
  std::unordered_map<uint64_t, RegMeta> sb_shadow_;  // SoftBound baseline

  // Threads. Contexts live for the whole run (joins and cross-thread frees
  // consult finished threads); cur_ is the executing thread.
  std::vector<std::unique_ptr<ThreadContext>> threads_;
  ThreadContext* cur_ = nullptr;
  size_t cur_index_ = 0;
  uint64_t quantum_left_ = 1;
  bool resched_ = false;    // current thread yielded / blocked / finished
  bool concurrent_ = false; // a spawn has happened; sync costs now apply

  // Safe-store sharding (RunOptions::shards) and shard ownership.
  // home_owner_[h] is the thread currently owning static home slot h (see
  // the constructor for epoch 0). With migration (RunOptions::migrate, only
  // armed when shards_ > 1) a completed join retires the target's slots as
  // one FIFO group and the next spawn adopts the oldest group (worker-pool
  // slot reuse). epochs_ holds every published owner/frozen table; threads
  // index into it through their snapshot (ThreadContext::epoch).
  const uint32_t shards_;
  struct EpochTable {
    std::vector<int32_t> owner;
    std::vector<uint8_t> frozen;
  };
  const bool migrate_;
  int32_t home_owner_[kMaxThreads] = {};
  std::deque<std::vector<uint8_t>> retired_homes_;
  std::vector<EpochTable> epochs_;

  // Heap block table (shared; arenas and free lists are per-thread).
  std::map<uint64_t, HeapBlock> heap_blocks_;

  uint64_t cookie_value_ = 0;
  size_t input_word_pos_ = 0;
  size_t input_byte_pos_ = 0;

  // Fault plan, sorted by firing point; next_fault_ indexes the next unfired
  // event and fault_at_ caches its firing instruction count.
  std::vector<FaultEvent> fault_events_;
  size_t next_fault_ = 0;
  uint64_t fault_at_ = ~0ULL;
};

// ---------------------------------------------------------------------------
// Setup

void Machine::LoadProgram() {
  for (const auto& g : module_.globals()) {
    const uint64_t addr = layout_.GlobalAddress(g.get());
    const uint64_t size = g->type()->SizeInBytes();
    regular_.MapRange(addr, size, /*writable=*/!g->is_const());
    if (!g->initializer().empty()) {
      regular_.LoaderWrite(addr, g->initializer().data(),
                           std::min<uint64_t>(size, g->initializer().size()));
    }
  }

  // Main thread (tid 0) with the classic stack layout.
  threads_.push_back(std::make_unique<ThreadContext>(0));
  cur_ = threads_[0].get();
  cur_index_ = 0;
  cur_->sp = kStackTop - 16;
  cur_->safe_sp = kSafeStackTop - 16;
  cur_->heap_next = kHeapBase;
  cur_->heap_limit = kHeapLimit;
  regular_.MapRange(kStackTop - kStackRegionBytes, kStackRegionBytes, /*writable=*/true);
  cur_->safe_stack.MapRange(kSafeStackTop - kStackRegionBytes, kStackRegionBytes,
                            /*writable=*/true);

  cookie_value_ = Rng(options_.seed ^ 0xc00c1e).NextU64() | 1;
}

// ---------------------------------------------------------------------------
// Values

uint64_t Machine::Eval(const Frame& f, const Value* v) const {
  switch (v->value_kind()) {
    case ValueKind::kConstInt: {
      const auto* c = static_cast<const ir::ConstantInt*>(v);
      return MaskToWidth(c->value(), TypeBits(c->type()));
    }
    case ValueKind::kConstFloat:
      return DoubleToBits(static_cast<const ir::ConstantFloat*>(v)->value());
    case ValueKind::kConstNull:
      return 0;
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      CPI_CHECK(v->value_id() != ir::kInvalidValueId);
      return f.regs[v->value_id()];
  }
  CPI_UNREACHABLE();
}

RegMeta Machine::EvalMeta(const Frame& f, const Value* v) const {
  switch (v->value_kind()) {
    case ValueKind::kConstInt:
    case ValueKind::kConstFloat:
    case ValueKind::kConstNull:
      return RegMeta::None();
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      return f.meta[v->value_id()];
  }
  CPI_UNREACHABLE();
}

// ---------------------------------------------------------------------------
// Routed memory access: the isolation mechanism of §3.2.3.

ByteMemory* Machine::Resolve(uint64_t addr, const RegMeta& meta, uint64_t* effective) {
  *effective = addr;
  if (!IsInSafeRegion(addr)) {
    return &regular_;
  }
  // Compiler-generated access to a safe-stack object: the provenance of the
  // address proves it is based on an object that itself lives in the safe
  // region. Anything else — a forged or corrupted address — hits the
  // isolation mechanism. Safe stacks are per-thread ByteMemory instances;
  // the address (or, off the end of a region, the provenance base) selects
  // the owning thread, so pointers to safe-stack objects passed between
  // threads keep working — the safe region is one shared address space, as
  // in the paper. A derived address landing in no thread's region faults on
  // the base object's (or the current thread's) memory, exactly as an
  // out-of-region access faulted on the old single safe-stack instance.
  if (meta.IsSafeValue() && meta.kind == EntryKind::kData && meta.lower >= kSafeRegionBase &&
      meta.lower <= meta.upper) {
    uint64_t owner = SafeStackOwnerOf(addr);
    if (owner >= threads_.size()) {
      owner = SafeStackOwnerOf(meta.lower);
    }
    return owner < threads_.size() ? &threads_[owner]->safe_stack : &cur_->safe_stack;
  }
  if (options_.isolation != IsolationKind::kSfi) {
    return nullptr;
  }
  // SFI: the masked address falls back into the regular region.
  *effective = addr & (kSafeRegionBase - 1);
  return &regular_;
}

ByteMemory* Machine::Route(uint64_t addr, const RegMeta& meta, uint64_t* effective) {
  ByteMemory* mem = Resolve(addr, meta, effective);
  if (mem == nullptr) {
    // Segment limits fault immediately. Under information hiding the safe
    // region base is randomised in a 48-bit space and its address never
    // leaks to the regular region, so a guessed address is unmapped.
    Crash(options_.isolation == IsolationKind::kSegment
              ? "segment violation: regular access to the safe region"
              : "fault: access to unmapped address (safe region is hidden)");
  }
  return mem;
}

bool Machine::DataRead(uint64_t addr, uint64_t size, const RegMeta& addr_meta, uint64_t* out) {
  uint64_t effective = 0;
  ByteMemory* mem = Route(addr, addr_meta, &effective);
  if (mem == nullptr) {
    return false;
  }
  uint64_t raw = 0;
  const MemFault fault = mem->Read(effective, &raw, size);
  if (fault != MemFault::kNone) {
    Crash("fault: read of unmapped address");
    return false;
  }
  if (mem == &regular_) {
    ChargeRegularAccess(effective);
  } else {
    ChargeAccess(effective);
  }
  *out = raw;
  return true;
}

bool Machine::DataWrite(uint64_t addr, uint64_t size, const RegMeta& addr_meta, uint64_t value) {
  uint64_t effective = 0;
  ByteMemory* mem = Route(addr, addr_meta, &effective);
  if (mem == nullptr) {
    return false;
  }
  const MemFault fault = mem->Write(effective, &value, size);
  if (fault == MemFault::kUnmapped) {
    Crash("fault: write to unmapped address");
    return false;
  }
  if (fault == MemFault::kReadOnly) {
    Crash("fault: write to read-only memory");
    return false;
  }
  if (mem == &regular_) {
    ChargeRegularAccess(effective);
  } else {
    ChargeAccess(effective);
  }
  return true;
}

bool Machine::ReadByteRouted(uint64_t addr, const RegMeta& meta, uint8_t* out) {
  uint64_t effective = 0;
  ByteMemory* mem = Route(addr, meta, &effective);
  if (mem == nullptr) {
    return false;
  }
  if (mem->ReadByte(effective, out) != MemFault::kNone) {
    Crash("fault: read of unmapped address");
    return false;
  }
  return true;
}

bool Machine::WriteByteRouted(uint64_t addr, const RegMeta& meta, uint8_t value) {
  uint64_t effective = 0;
  ByteMemory* mem = Route(addr, meta, &effective);
  if (mem == nullptr) {
    return false;
  }
  const MemFault fault = mem->WriteByte(effective, value);
  if (fault != MemFault::kNone) {
    Crash(fault == MemFault::kReadOnly ? "fault: write to read-only memory"
                                       : "fault: write to unmapped address");
    return false;
  }
  return true;
}

bool Machine::CopyBytes(uint64_t dst, const RegMeta& dm, uint64_t src, const RegMeta& sm,
                        uint64_t n, bool backward) {
  auto page_head = [](uint64_t addr) { return (addr & (ByteMemory::kPageBytes - 1)) + 1; };
  for (uint64_t done = 0; done < n;) {
    // Forward runs start at offset `done`; backward ones end where the
    // remaining `left` bytes end.
    const uint64_t left = n - done;
    uint64_t len = backward ? std::min({left, page_head(src + left - 1), page_head(dst + left - 1)})
                            : std::min({left, ByteMemory::PageRest(src + done),
                                        ByteMemory::PageRest(dst + done)});
    const uint64_t off = backward ? left - len : done;
    uint64_t from_addr = 0;
    uint64_t to_addr = 0;
    ByteMemory* from_mem = Resolve(src + off, sm, &from_addr);
    ByteMemory* to_mem = Resolve(dst + off, dm, &to_addr);
    // A forward byte loop reads each source byte just before writing its
    // destination. When the destination lies k bytes above the source in
    // the same memory, a run longer than k would read bytes it writes
    // itself; cut to k, it reads them from earlier runs, which is how a
    // forward copy with dst just above src replicates a pattern. A backward
    // copy (memmove with dst above src) never reads a byte it wrote; the SFI
    // mask could only invert that over a span too large to complete.
    if (!backward && from_mem == to_mem && to_addr > from_addr) {
      len = std::min(len, to_addr - from_addr);
    }
    const uint8_t* from = from_mem == nullptr ? nullptr : from_mem->ReadView(from_addr);
    uint8_t* to = from == nullptr || to_mem == nullptr ? nullptr : to_mem->WriteView(to_addr);
    if (to == nullptr) {
      // The failed check traps on the run's first byte, as in a byte loop.
      const uint64_t first = backward ? off + len - 1 : off;
      uint8_t b = 0;
      if (!ReadByteRouted(src + first, sm, &b) || !WriteByteRouted(dst + first, dm, b)) {
        return false;
      }
      CPI_UNREACHABLE();
    }
    std::memmove(to, from, len);
    done += len;
  }
  return true;
}

bool Machine::StoreBytes(uint64_t dst, const RegMeta& dm, uint64_t n, const uint8_t* data,
                         uint8_t fill) {
  for (uint64_t off = 0; off < n;) {
    const uint64_t len = std::min(n - off, ByteMemory::PageRest(dst + off));
    uint64_t to_addr = 0;
    ByteMemory* to_mem = Resolve(dst + off, dm, &to_addr);
    uint8_t* to = to_mem == nullptr ? nullptr : to_mem->WriteView(to_addr);
    if (to == nullptr) {
      if (!WriteByteRouted(dst + off, dm, data == nullptr ? fill : data[off])) {
        return false;
      }
      CPI_UNREACHABLE();  // the failed check traps on the run's first byte
    }
    if (data == nullptr) {
      std::memset(to, fill, len);
    } else {
      std::memcpy(to, data + off, len);
    }
    off += len;
  }
  return true;
}

bool Machine::ScanStrlen(uint64_t addr, const RegMeta& meta, uint64_t* len) {
  // Unbounded, so a missing NUL faults eventually.
  for (uint64_t off = 0;;) {
    const uint64_t run = ByteMemory::PageRest(addr + off);
    uint64_t from_addr = 0;
    ByteMemory* from_mem = Resolve(addr + off, meta, &from_addr);
    const uint8_t* from = from_mem == nullptr ? nullptr : from_mem->ReadView(from_addr);
    if (from == nullptr) {
      uint8_t b = 0;
      if (!ReadByteRouted(addr + off, meta, &b)) {
        return false;
      }
      CPI_UNREACHABLE();  // the failed check traps on the run's first byte
    }
    if (const void* nul = std::memchr(from, 0, run); nul != nullptr) {
      *len = off + static_cast<uint64_t>(static_cast<const uint8_t*>(nul) - from);
      return true;
    }
    off += run;
  }
}

bool Machine::CompareStrings(uint64_t a, const RegMeta& ma, uint64_t b, const RegMeta& mb,
                             uint64_t* at, int64_t* result) {
  for (uint64_t off = 0;;) {
    const uint64_t run = std::min(ByteMemory::PageRest(a + off), ByteMemory::PageRest(b + off));
    uint64_t a_addr = 0;
    uint64_t b_addr = 0;
    ByteMemory* a_mem = Resolve(a + off, ma, &a_addr);
    ByteMemory* b_mem = Resolve(b + off, mb, &b_addr);
    const uint8_t* va = a_mem == nullptr ? nullptr : a_mem->ReadView(a_addr);
    const uint8_t* vb = va == nullptr || b_mem == nullptr ? nullptr : b_mem->ReadView(b_addr);
    if (vb == nullptr) {
      uint8_t ca = 0;
      uint8_t cb = 0;
      if (!ReadByteRouted(a + off, ma, &ca) || !ReadByteRouted(b + off, mb, &cb)) {
        return false;
      }
      CPI_UNREACHABLE();  // the failed check traps on the run's first byte
    }
    for (uint64_t i = 0; i < run; ++i) {
      if (va[i] != vb[i] || va[i] == 0) {
        *at = off + i;
        *result = va[i] == vb[i] ? 0 : va[i] < vb[i] ? -1 : 1;
        return true;
      }
    }
    off += run;
  }
}

void Machine::ChargeChunked(uint64_t addr, uint64_t len) {
  // One cache access per touched 8-byte chunk plus a cycle per 16 bytes of
  // work — the cost of a tuned memcpy loop. The chunks on one cache line are
  // back-to-back accesses to it, so they are charged together.
  const uint64_t end = addr + len;
  const uint64_t line = cur_->cache.line_bytes();
  uint64_t chunks = 0;
  for (uint64_t a = addr & ~7ULL; a < end;) {
    const uint64_t line_end = (a & ~(line - 1)) + line;
    const uint64_t n = (std::min(line_end, end) - a + 7) / 8;
    result_.counters.mem_accesses += n;
    Cycles(cur_->cache.AccessRepeated(a, n));
    chunks += n;
    a += 8 * n;
  }
  if (options_.isolation == IsolationKind::kSfi) {
    Cycles(chunks * kSfiMaskCycles);  // the SFI mask on every chunk
  }
  Cycles(len / 16 + 1);
}

// ---------------------------------------------------------------------------
// Frames

bool Machine::PushFrame(const Function* callee, const std::vector<uint64_t>& args,
                        const std::vector<RegMeta>& arg_meta, bool no_continuation) {
  if (cur_->frames.size() > 2000) {
    Crash("stack overflow: call depth limit");
    return false;
  }
  ++result_.counters.calls;
  Cycles(kCallCycles);

  Frame f;
  f.func = callee;
  f.regs.assign(callee->register_count(), 0);
  f.meta.assign(callee->register_count(), RegMeta::None());
  CPI_CHECK(args.size() == callee->args().size());
  for (size_t i = 0; i < args.size(); ++i) {
    f.regs[callee->args()[i]->value_id()] = args[i];
    f.meta[callee->args()[i]->value_id()] = arg_meta[i];
  }
  f.bb = callee->entry();
  if (decoded_ != nullptr) {
    f.dfunc = &decoded_->ForFunction(callee);
  }
  f.ip = 0;
  f.saved_sp = cur_->sp;
  f.saved_safe_sp = cur_->safe_sp;
  f.no_continuation = no_continuation;
  // Ret tokens are per-thread sequences: the thread id in the high bits
  // keeps tokens unique across threads while thread 0 reproduces the
  // classic single-thread values bit for bit.
  f.token = kRetTokenBase + (cur_->tid << 36) + (++cur_->token_counter << 4);

  const bool safe_stack = module_.protection().safe_stack;
  // Chained return MACs (ProtectionFlags::ret_chain): sign the saved token
  // over its slot XOR the thread's current chain head. The predecessor's
  // full sealed word enters the MAC's location domain, so every token
  // authenticates the entire chain suffix — and the sealed word becomes the
  // new head. Applies to safe-stack slots too (cpi+ptrenc-ret-chain layers
  // chain authentication over the isolated stack).
  const bool ret_chain = module_.protection().ret_chain;
  if (safe_stack) {
    cur_->safe_sp -= 8;
    f.ret_slot = cur_->safe_sp;
    f.ret_slot_safe = true;
    uint64_t slot_word = f.token;
    if (ret_chain) {
      f.saved_chain = cur_->ret_chain_head;
      slot_word = sealer_.Seal(f.token, f.ret_slot ^ f.saved_chain);
      ChargeSeal();
      cur_->ret_chain_head = slot_word;
    }
    if (cur_->safe_stack.WriteU64(f.ret_slot, slot_word) != MemFault::kNone) {
      Crash("stack overflow: safe stack exhausted");
      return false;
    }
    ChargeAccess(f.ret_slot);
  } else {
    cur_->sp -= 8;
    f.ret_slot = cur_->sp;
    f.ret_slot_safe = false;
    uint64_t slot_word = f.token;
    if (module_.protection().ptrenc) {
      // PAC-style prologue: sign the saved return token against its slot.
      // Always — even for ret_token_elidable leaves — so the frame image in
      // memory is byte-identical across opt levels; leaves elide only the
      // epilogue authenticate (see DoRet).
      slot_word = sealer_.Seal(f.token, f.ret_slot);
      ChargeSeal();
    } else if (ret_chain) {
      f.saved_chain = cur_->ret_chain_head;
      slot_word = sealer_.Seal(f.token, f.ret_slot ^ f.saved_chain);
      ChargeSeal();
      cur_->ret_chain_head = slot_word;
    }
    if (regular_.WriteU64(f.ret_slot, slot_word) != MemFault::kNone) {
      Crash("stack overflow: stack exhausted");
      return false;
    }
    ChargeRegularAccess(f.ret_slot);
    if (callee->has_stack_cookie()) {
      cur_->sp -= 8;
      f.cookie_addr = cur_->sp;
      regular_.WriteU64(f.cookie_addr, cookie_value_);
      ChargeRegularAccess(f.cookie_addr);
    }
  }

  cur_->frames.push_back(std::move(f));
  return true;
}

void Machine::PopFrame() {
  CPI_CHECK(!cur_->frames.empty());
  cur_->sp = cur_->frames.back().saved_sp;
  cur_->safe_sp = cur_->frames.back().saved_safe_sp;
  cur_->frames.pop_back();
}

void Machine::ReturnToCaller(uint64_t value, const RegMeta& meta) {
  PopFrame();
  if (cur_->frames.empty()) {
    if (cur_->tid == 0) {
      // Main returning ends the whole process, as exit() would.
      done_ = true;
      result_.status = RunStatus::kOk;
      result_.exit_code = value;
      return;
    }
    // A worker's root function returned: park the thread's result for join
    // and wake any thread already blocked on it.
    cur_->state = ThreadContext::State::kDone;
    cur_->exit_value = value;
    cur_->exit_meta = meta;
    for (auto& t : threads_) {
      if (t->state == ThreadContext::State::kJoining && t->join_target == cur_->tid) {
        t->state = ThreadContext::State::kRunnable;
      }
    }
    resched_ = true;
    return;
  }
  Frame& caller = cur_->frames.back();
  CPI_CHECK(caller.pending_call != nullptr);
  if (!caller.pending_call->type()->IsVoid()) {
    SetReg(caller, caller.pending_call, value, meta);
  }
  caller.pending_call = nullptr;
  ++caller.ip;
}

// ---------------------------------------------------------------------------
// Main loop

RunResult Machine::Run() {
  try {
    RunToCompletion();
  } catch (const std::bad_alloc& e) {
    // Allocation failure inside the simulated runtime — injected via a
    // FaultPlan or genuinely hit on the same paths — is contained as a
    // crashed *run*; the host process (and a fuzzing campaign) carries on.
    Trap(RunStatus::kCrash, Violation::kNone, std::string("out of memory: ") + e.what());
  }

  // Per-thread caches and safe stacks aggregate into the run totals; the
  // sums are order-independent, so they stay deterministic at any quantum.
  for (const auto& t : threads_) {
    result_.counters.cache_hits += t->cache.hits();
    result_.counters.cache_misses += t->cache.misses();
    result_.memory.safe_stack_bytes += t->safe_stack.mapped_bytes();
  }
  result_.memory.regular_bytes = regular_.mapped_bytes();
  result_.memory.safe_store_bytes = store_ != nullptr ? store_->MemoryBytes() : 0;
  result_.memory.safe_store_entries = store_ != nullptr ? store_->EntryCount() : 0;
  return result_;
}

void Machine::RunToCompletion() {
  LoadProgram();
  if (options_.faults != nullptr && !options_.faults->events.empty()) {
    fault_events_ = options_.faults->events;
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.at_instruction < b.at_instruction;
                     });
    fault_at_ = fault_events_.front().at_instruction;
  }

  // Frames index their registers by value id (Function::RenumberValues,
  // which core::Compiler runs). A function it never ran on has no
  // registers: stop here on every engine instead of indexing past them.
  for (const auto& fn : module_.functions()) {
    CPI_CHECK(fn->register_count() != 0);
  }
  const Function* main_fn = module_.FindFunction("main");
  CPI_CHECK(main_fn != nullptr);
  CPI_CHECK(main_fn->args().empty());
  PushFrame(main_fn, {}, {}, /*no_continuation=*/false);

  quantum_left_ = std::max<uint64_t>(options_.quantum, 1);
  switch (options_.engine) {
    case EngineKind::kReference:
      while (!done_) {
        if (result_.counters.instructions >= options_.max_steps) {
          Trap(RunStatus::kOutOfFuel, Violation::kNone, "step budget exhausted");
          break;
        }
        if (result_.counters.instructions >= fault_at_) {
          ApplyPendingFaults();
        }
        Step();
        if ((resched_ || --quantum_left_ == 0) && !done_) {
          Reschedule();
        }
      }
      break;
    case EngineKind::kDecoded:
    case EngineKind::kFused:
      RunDecodedLoop();
      break;
  }
}

void Machine::ApplyPendingFaults() {
  const uint64_t now = result_.counters.instructions;
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].at_instruction <= now) {
    InjectFault(fault_events_[next_fault_++]);
  }
  fault_at_ = next_fault_ < fault_events_.size()
                  ? fault_events_[next_fault_].at_instruction
                  : ~0ULL;
}

void Machine::InjectFault(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kCorruptSafeStack: {
      // Flip a byte of the current thread's live safe-stack data (the region
      // just above safe_sp: ret tokens, safe allocas, cookies). When the
      // scheme maps no safe stack the probe lands on unmapped memory and is
      // a no-op — exactly the §3.2.3 "guessing under information hiding"
      // situation.
      const uint64_t addr = cur_->safe_sp + e.arg % 64;
      uint8_t mask = static_cast<uint8_t>(e.arg >> 8);
      if (mask == 0) {
        mask = 0x80;
      }
      uint8_t byte = 0;
      if (cur_->safe_stack.ReadByte(addr, &byte) != MemFault::kNone) {
        return;
      }
      if (cur_->safe_stack.WriteByte(addr, byte ^ mask) != MemFault::kNone) {
        return;
      }
      break;
    }
    case FaultKind::kCorruptSafeStore: {
      if (store_ == nullptr || !store_->CorruptEntry(e.arg, (e.arg >> 8) | 1)) {
        return;
      }
      break;
    }
    case FaultKind::kOomSafeStore:
      if (store_ == nullptr) {
        return;
      }
      store_->InjectAllocFailure(e.arg % 4);
      break;
    case FaultKind::kOomHeapArena:
      // Collapse the current thread's arena: the next malloc that cannot be
      // served from a free list reports out-of-memory.
      cur_->heap_limit = cur_->heap_next;
      break;
    case FaultKind::kOomPageAlloc:
      regular_.ArmAllocFailure(e.arg % 4);
      break;
    case FaultKind::kForcePreempt:
      resched_ = true;
      break;
    case FaultKind::kCorruptShard: {
      // Corrupt a live entry of one shard only (arg picks the shard; the
      // containment contract is that every other shard's entries survive
      // intact). With the default single shard, that shard is the whole store.
      if (store_ == nullptr) {
        return;
      }
      const uint32_t shard = static_cast<uint32_t>(e.arg % store_->ShardCount());
      if (!store_->CorruptEntryInShard(shard, e.arg >> 4, (e.arg >> 8) | 1)) {
        return;
      }
      break;
    }
    case FaultKind::kOomShard:
      if (store_ == nullptr) {
        return;
      }
      store_->InjectShardAllocFailure(
          static_cast<uint32_t>(e.arg % store_->ShardCount()), e.arg % 4);
      break;
  }
  ++result_.faults_injected;
}

void Machine::Reschedule() {
  resched_ = false;
  quantum_left_ = std::max<uint64_t>(options_.quantum, 1);
  const size_t n = threads_.size();
  for (size_t step = 1; step <= n; ++step) {
    const size_t idx = (cur_index_ + step) % n;
    if (threads_[idx]->state == ThreadContext::State::kRunnable) {
      cur_index_ = idx;
      cur_ = threads_[idx].get();
      return;
    }
  }
  // Every live thread is blocked in join: the process can never progress.
  Crash("deadlock: all threads blocked");
}

void Machine::Step() {
  Frame& f = cur_->frames.back();
  CPI_CHECK(f.ip < f.bb->instructions().size());
  const Instruction* inst = f.bb->instructions()[f.ip];
  ++result_.counters.instructions;
  Cycles(kBaseCycles);

  switch (inst->op()) {
    case Opcode::kAlloca: {
      const Type* t = inst->extra_type();
      const uint64_t size = std::max<uint64_t>(t->SizeInBytes(), 1);
      const uint64_t align = std::max<uint64_t>(ir::AlignmentOf(t), 1);
      const bool on_safe = module_.protection().safe_stack &&
                           inst->stack_kind() != StackKind::kUnsafe;
      uint64_t& sp = on_safe ? cur_->safe_sp : cur_->sp;
      sp -= size;
      sp &= ~(align - 1);
      const uint64_t addr = sp;
      SetReg(f, inst, addr, RegMeta::Data(addr, addr + size, runtime::TemporalIdService::kStaticId));
      ++f.ip;
      break;
    }
    case Opcode::kLoad: {
      const uint64_t addr = Eval(f, inst->operand(0));
      const RegMeta addr_meta = EvalMeta(f, inst->operand(0));
      const uint64_t size = inst->type()->SizeInBytes();
      uint64_t raw = 0;
      if (!DataRead(addr, size, addr_meta, &raw)) {
        return;
      }
      SetReg(f, inst, raw, RegMeta::None());
      ++f.ip;
      break;
    }
    case Opcode::kStore: {
      const uint64_t value = Eval(f, inst->operand(0));
      const uint64_t addr = Eval(f, inst->operand(1));
      const RegMeta addr_meta = EvalMeta(f, inst->operand(1));
      const Type* pointee =
          static_cast<const ir::PointerType*>(inst->operand(1)->type())->pointee();
      const uint64_t size =
          pointee->IsVoid() ? 8 : pointee->SizeInBytes();
      if (!DataWrite(addr, size, addr_meta, value)) {
        return;
      }
      ++f.ip;
      break;
    }
    case Opcode::kFieldAddr: {
      const uint64_t base = Eval(f, inst->operand(0));
      const RegMeta base_meta = EvalMeta(f, inst->operand(0));
      const auto* st = static_cast<const ir::StructType*>(
          static_cast<const ir::PointerType*>(inst->operand(0)->type())->pointee());
      const ir::StructField& field = st->fields()[inst->field_index()];
      const uint64_t addr = base + field.offset;
      RegMeta meta = RegMeta::None();
      if (base_meta.IsSafeValue() && base_meta.kind == EntryKind::kData) {
        // Sub-object narrowing: the field is its own target object (§3,
        // based-on case (iii)).
        meta = RegMeta::Data(addr, addr + field.type->SizeInBytes(), base_meta.temporal_id);
      }
      SetReg(f, inst, addr, meta);
      ++f.ip;
      break;
    }
    case Opcode::kIndexAddr: {
      const uint64_t base = Eval(f, inst->operand(0));
      const int64_t index = SignExtend(Eval(f, inst->operand(1)),
                                       TypeBits(inst->operand(1)->type()));
      const Type* pointee =
          static_cast<const ir::PointerType*>(inst->operand(0)->type())->pointee();
      const uint64_t elem_size = pointee->IsArray()
                                     ? static_cast<const ir::ArrayType*>(pointee)->element()
                                           ->SizeInBytes()
                                     : pointee->SizeInBytes();
      const uint64_t addr = base + static_cast<uint64_t>(index) * elem_size;
      // Array indexing stays based on the same target object: metadata
      // propagates unchanged (based-on case (iv)).
      SetReg(f, inst, addr, EvalMeta(f, inst->operand(0)));
      ++f.ip;
      break;
    }
    case Opcode::kBinOp:
      ExecBinOp(f, inst);
      break;
    case Opcode::kCast:
      ExecCast(f, inst);
      break;
    case Opcode::kSelect: {
      const uint64_t cond = Eval(f, inst->operand(0));
      const Value* chosen = cond != 0 ? inst->operand(1) : inst->operand(2);
      SetReg(f, inst, Eval(f, chosen), EvalMeta(f, chosen));
      ++f.ip;
      break;
    }
    case Opcode::kCall:
      ExecCallCommon(f, inst, inst->callee(), /*first_arg_index=*/0);
      break;
    case Opcode::kIndirectCall: {
      const uint64_t target = Eval(f, inst->operand(0));
      const Function* callee = FunctionAtAddress(target);
      if (callee == nullptr) {
        Crash("indirect call to a non-code address");
        return;
      }
      if (callee->type()->params().size() != inst->operands().size() - 1) {
        Crash("indirect call with mismatched signature");
        return;
      }
      ExecCallCommon(f, inst, callee, /*first_arg_index=*/1);
      break;
    }
    case Opcode::kLibCall:
      ExecLibCall(f, inst);
      break;
    case Opcode::kMalloc:
      DoMalloc(f, Eval(f, inst->operand(0)), inst->value_id());
      break;
    case Opcode::kFree:
      DoFree(f, Eval(f, inst->operand(0)));
      break;
    case Opcode::kFuncAddr: {
      const uint64_t addr = CodeAddressOf(inst->callee());
      SetReg(f, inst, addr, RegMeta::Code(addr));
      ++f.ip;
      break;
    }
    case Opcode::kGlobalAddr: {
      const uint64_t addr = layout_.GlobalAddress(inst->global());
      SetReg(f, inst, addr,
             RegMeta::Data(addr, addr + inst->global()->type()->SizeInBytes(),
                           runtime::TemporalIdService::kStaticId));
      ++f.ip;
      break;
    }
    case Opcode::kBr:
      f.bb = inst->successor(0);
      f.ip = 0;
      break;
    case Opcode::kCondBr: {
      const uint64_t cond = Eval(f, inst->operand(0));
      f.bb = inst->successor(cond != 0 ? 0 : 1);
      f.ip = 0;
      break;
    }
    case Opcode::kRet:
      ExecRet(f, inst);
      break;
    case Opcode::kInput: {
      uint64_t v = 0;
      if (input_word_pos_ < options_.input_words.size()) {
        v = options_.input_words[input_word_pos_++];
      }
      Cycles(2);
      SetReg(f, inst, v, RegMeta::None());
      ++f.ip;
      break;
    }
    case Opcode::kOutput: {
      if (result_.output.size() >= kMaxOutputWords) {
        Crash("output limit exceeded");
        return;
      }
      Cycles(2);
      result_.output.push_back(Eval(f, inst->operand(0)));
      ++f.ip;
      break;
    }
    case Opcode::kIntrinsic:
      ExecIntrinsic(f, inst);
      break;
    case Opcode::kSpawn: {
      std::vector<uint64_t> args;
      std::vector<RegMeta> metas;
      for (size_t i = 0; i < inst->operands().size(); ++i) {
        args.push_back(Eval(f, inst->operand(i)));
        metas.push_back(EvalMeta(f, inst->operand(i)));
      }
      DoSpawn(f, inst->callee(), std::move(args), std::move(metas), inst->value_id());
      break;
    }
    case Opcode::kJoin:
      DoJoin(f, Eval(f, inst->operand(0)), inst->value_id());
      break;
    case Opcode::kYield:
      DoYield(f);
      break;
  }
}

// ---------------------------------------------------------------------------
// Arithmetic

void Machine::ExecBinOp(Frame& f, const Instruction* inst) {
  DoBinOp(f, inst->binop(), TypeBits(inst->operand(0)->type()), TypeBits(inst->type()),
          InstOps{*this, f, inst});
}

template <typename Ops>
void Machine::DoBinOp(Frame& f, BinOp op, int bits, int result_bits, const Ops& ops) {
  const uint64_t x = ops.value(0);
  const uint64_t y = ops.value(1);
  uint64_t r = 0;

  if (op >= BinOp::kFAdd) {
    Cycles(kFloatExtraCycles);
    const double fx = BitsToDouble(x);
    const double fy = BitsToDouble(y);
    switch (op) {
      case BinOp::kFAdd: r = DoubleToBits(fx + fy); break;
      case BinOp::kFSub: r = DoubleToBits(fx - fy); break;
      case BinOp::kFMul: r = DoubleToBits(fx * fy); break;
      case BinOp::kFDiv:
        Cycles(kDivExtraCycles);
        r = DoubleToBits(fy == 0.0 ? 0.0 : fx / fy);
        break;
      case BinOp::kFEq: r = fx == fy; break;
      case BinOp::kFNe: r = fx != fy; break;
      case BinOp::kFLt: r = fx < fy; break;
      case BinOp::kFLe: r = fx <= fy; break;
      case BinOp::kFGt: r = fx > fy; break;
      case BinOp::kFGe: r = fx >= fy; break;
      default: CPI_UNREACHABLE();
    }
    ops.set(r, RegMeta::None());
    ++f.ip;
    return;
  }

  const int64_t sx = SignExtend(x, bits);
  const int64_t sy = SignExtend(y, bits);
  switch (op) {
    case BinOp::kAdd: r = x + y; break;
    case BinOp::kSub: r = x - y; break;
    case BinOp::kMul: r = x * y; break;
    case BinOp::kSDiv:
      Cycles(kDivExtraCycles);
      if (sy == 0) { Crash("division by zero"); return; }
      if (sx == INT64_MIN && sy == -1) { r = static_cast<uint64_t>(INT64_MIN); break; }
      r = static_cast<uint64_t>(sx / sy);
      break;
    case BinOp::kUDiv:
      Cycles(kDivExtraCycles);
      if (y == 0) { Crash("division by zero"); return; }
      r = x / y;
      break;
    case BinOp::kSRem:
      Cycles(kDivExtraCycles);
      if (sy == 0) { Crash("division by zero"); return; }
      if (sx == INT64_MIN && sy == -1) { r = 0; break; }
      r = static_cast<uint64_t>(sx % sy);
      break;
    case BinOp::kURem:
      Cycles(kDivExtraCycles);
      if (y == 0) { Crash("division by zero"); return; }
      r = x % y;
      break;
    case BinOp::kAnd: r = x & y; break;
    case BinOp::kOr: r = x | y; break;
    case BinOp::kXor: r = x ^ y; break;
    case BinOp::kShl: r = x << (y & 63); break;
    case BinOp::kLShr: r = x >> (y & 63); break;
    case BinOp::kAShr: r = static_cast<uint64_t>(sx >> (y & 63)); break;
    case BinOp::kEq: r = x == y; break;
    case BinOp::kNe: r = x != y; break;
    case BinOp::kSLt: r = sx < sy; break;
    case BinOp::kSLe: r = sx <= sy; break;
    case BinOp::kSGt: r = sx > sy; break;
    case BinOp::kSGe: r = sx >= sy; break;
    case BinOp::kULt: r = x < y; break;
    case BinOp::kULe: r = x <= y; break;
    default: CPI_UNREACHABLE();
  }
  r = MaskToWidth(r, result_bits);

  // Pointer arithmetic propagates the based-on metadata of the pointer
  // operand (based-on case (iv)).
  RegMeta meta = RegMeta::None();
  if (op == BinOp::kAdd || op == BinOp::kSub) {
    const RegMeta ma = ops.meta(0);
    const RegMeta mb = ops.meta(1);
    if (ma.IsSafeValue() && !mb.IsSafeValue()) {
      meta = ma;
    } else if (mb.IsSafeValue() && !ma.IsSafeValue() && op == BinOp::kAdd) {
      meta = mb;
    }
  }
  ops.set(r, meta);
  ++f.ip;
}

void Machine::ExecCast(Frame& f, const Instruction* inst) {
  DoCast(f, inst->cast_kind(), TypeBits(inst->operand(0)->type()), TypeBits(inst->type()),
         InstOps{*this, f, inst});
}

template <typename Ops>
void Machine::DoCast(Frame& f, CastKind kind, int src_bits, int dst_bits, const Ops& ops) {
  const uint64_t x = ops.value(0);
  const RegMeta meta = ops.meta(0);
  uint64_t r = x;
  RegMeta out = meta;  // Levee's relaxation: casts propagate metadata
  switch (kind) {
    case CastKind::kBitcast:
    case CastKind::kPtrToInt:
    case CastKind::kIntToPtr:
      break;
    case CastKind::kTrunc:
      r = MaskToWidth(x, dst_bits);
      if (dst_bits < 64) {
        out = RegMeta::None();  // a truncated pointer is no longer a pointer
      }
      break;
    case CastKind::kZExt:
      r = MaskToWidth(x, src_bits);
      break;
    case CastKind::kSExt:
      r = MaskToWidth(static_cast<uint64_t>(SignExtend(x, src_bits)), dst_bits);
      break;
    case CastKind::kIntToFloat:
      r = DoubleToBits(static_cast<double>(SignExtend(x, src_bits)));
      out = RegMeta::None();
      break;
    case CastKind::kFloatToInt:
      r = MaskToWidth(static_cast<uint64_t>(static_cast<int64_t>(BitsToDouble(x))), dst_bits);
      out = RegMeta::None();
      break;
  }
  ops.set(r, out);
  ++f.ip;
}

// ---------------------------------------------------------------------------
// Calls and returns

void Machine::ExecCallCommon(Frame& f, const Instruction* inst, const Function* callee,
                             size_t first_arg_index) {
  std::vector<uint64_t> args;
  std::vector<RegMeta> metas;
  for (size_t i = first_arg_index; i < inst->operands().size(); ++i) {
    args.push_back(Eval(f, inst->operand(i)));
    metas.push_back(EvalMeta(f, inst->operand(i)));
  }
  f.pending_call = inst;
  PushFrame(callee, args, metas, /*no_continuation=*/false);
}

// ---------------------------------------------------------------------------
// Heap

bool Machine::AllocateTemporalId(uint64_t* id) {
  if (cur_->tid == 0) {
    *id = temporal_.Allocate();
    return true;
  }
  *id = (cur_->tid << 48) | ++cur_->temporal_counter;
  if (!temporal_.Register(*id)) {
    // A collision means the per-thread namespace itself broke — fail as
    // loudly as a bad Free does, not with a delayed temporal violation.
    Crash("temporal: allocation id collision");
    return false;
  }
  return true;
}

void Machine::DoMalloc(Frame& f, uint64_t requested, uint32_t dest) {
  Cycles(kAllocCycles);
  // No block is larger than thread 0's whole arena, so neither a free list
  // nor a bump can serve a larger request. Checked before rounding, which
  // would wrap a request within 15 of 2^64 (malloc(-1)) into 16 bytes.
  if (requested > kHeapLimit - kHeapBase) {
    Crash("out of memory");
    return;
  }
  const uint64_t size = std::max<uint64_t>((requested + 15) & ~15ULL, 16);
  uint64_t addr = 0;
  auto& free_list = cur_->free_lists[size];
  if (!free_list.empty()) {
    addr = free_list.back();
    free_list.pop_back();
  } else {
    if (cur_->heap_next + size > cur_->heap_limit) {
      Crash("out of memory");
      return;
    }
    addr = cur_->heap_next;
    cur_->heap_next += size;
    regular_.MapRange(addr, size, /*writable=*/true);
  }
  uint64_t id = 0;
  if (!AllocateTemporalId(&id)) {
    return;
  }
  heap_blocks_[addr] = HeapBlock{size, id, true};
  SetRegId(f, dest, addr, RegMeta::Data(addr, addr + requested, id));
  ++f.ip;
}

void Machine::DoFree(Frame& f, uint64_t addr) {
  Cycles(kAllocCycles);
  if (addr == 0) {  // free(NULL) is a no-op
    ++f.ip;
    return;
  }
  auto it = heap_blocks_.find(addr);
  if (it == heap_blocks_.end() || !it->second.live) {
    Crash("invalid or double free");
    return;
  }
  it->second.live = false;
  if (!temporal_.Free(it->second.temporal_id)) {
    // The block table already filters double-frees, so a rejected id means
    // the allocation bookkeeping itself diverged — surface it loudly.
    Crash("temporal: free of a dead or static allocation id");
    return;
  }
  // Freed memory goes to the *freeing* thread's cache (tcmalloc-style):
  // every thread's allocator state — and with it every future malloc
  // address — is then a pure function of that thread's own operation
  // stream, never of when another thread's free happened to be scheduled.
  cur_->free_lists[it->second.size].push_back(addr);
  ++f.ip;
}

// ---------------------------------------------------------------------------
// Threads

void Machine::DoSpawn(Frame& f, const Function* callee, std::vector<uint64_t> args,
                      std::vector<RegMeta> metas, uint32_t dest) {
  if (threads_.size() >= kMaxThreads) {
    Crash("spawn: thread limit reached");
    return;
  }
  const uint64_t tid = threads_.size();
  const uint64_t arena_base = kHeapLimit - tid * kThreadHeapBytes;
  if (threads_[0]->heap_next > arena_base) {
    // Thread 0's bump pointer already grew past where this thread's arena
    // would start: carving it out would alias live allocations. Fail the
    // spawn loudly instead of silently overlapping heaps.
    Crash("spawn: heap arenas exhausted");
    return;
  }
  Cycles(kSpawnCycles);
  ++result_.counters.thread_spawns;
  concurrent_ = true;
  if (migrate_) {
    // The new thread claims its own home slot (tids are never reused, so
    // the slot is necessarily unclaimed) and inherits the oldest retired
    // home group (the homes of the earliest joined-and-unclaimed thread,
    // plus everything that thread had inherited in its turn), then the
    // spawner publishes the new ownership epoch before the thread can run.
    home_owner_[tid] = static_cast<int32_t>(tid);
    if (!retired_homes_.empty()) {
      for (uint8_t h : retired_homes_.front()) {
        home_owner_[h] = static_cast<int32_t>(tid);
      }
      retired_homes_.pop_front();
    }
    PublishEpoch();
  }

  threads_.push_back(std::make_unique<ThreadContext>(tid));
  ThreadContext* t = threads_.back().get();
  t->sp = UnsafeStackTopFor(tid) - 16;
  t->safe_sp = SafeStackTopFor(tid) - 16;
  t->heap_next = arena_base;
  t->heap_limit = arena_base + kThreadHeapBytes;
  // The new thread is born into the epoch its spawner just published (or
  // epoch 0 with migration off) — the publish happened-before the thread
  // exists, so the snapshot adoption is race-free by construction.
  t->epoch = cur_->epoch;
  // Thread 0 grows upward from kHeapBase; cap it below the lowest arena so
  // the regions can never interleave.
  threads_[0]->heap_limit = std::min(threads_[0]->heap_limit, arena_base);
  regular_.MapRange(UnsafeStackTopFor(tid) - kStackRegionBytes, kStackRegionBytes,
                    /*writable=*/true);
  t->safe_stack.MapRange(SafeStackTopFor(tid) - kStackRegionBytes, kStackRegionBytes,
                         /*writable=*/true);

  // The root frame is set up in the new thread's context (its token, its
  // stacks, its cache), then control returns to the spawner; the new thread
  // first runs when the scheduler rotates to it.
  ThreadContext* spawner = cur_;
  cur_ = t;
  const bool ok = PushFrame(callee, args, metas, /*no_continuation=*/false);
  cur_ = spawner;
  if (!ok) {
    return;
  }
  SetRegId(f, dest, tid, RegMeta::None());
  ++f.ip;
}

void Machine::DoJoin(Frame& f, uint64_t tid, uint32_t dest) {
  if (tid == 0 || tid == cur_->tid || tid >= threads_.size()) {
    Crash("join: invalid thread id");
    return;
  }
  ThreadContext& target = *threads_[tid];
  if (target.state != ThreadContext::State::kDone) {
    // Block and re-execute this join when the target finishes. The charge
    // the main loop already made is rolled back so a join costs exactly one
    // instruction no matter when (or whether) it had to wait — that is what
    // keeps counters identical across quanta.
    --result_.counters.instructions;
    result_.counters.cycles -= kBaseCycles;
    cur_->state = ThreadContext::State::kJoining;
    cur_->join_target = tid;
    resched_ = true;
    return;  // ip unchanged
  }
  if (target.reaped) {
    Crash("join: thread already joined");
    return;
  }
  target.reaped = true;
  Cycles(kJoinCycles);
  if (migrate_) {
    // Retire the joined thread's home slots as one FIFO group — the next
    // spawn inherits them wholesale — and publish the new epoch. This runs
    // only on the *completed* join path: the blocking path above rolled its
    // charge back and re-executes, so the publish (and its migration
    // charges) happens exactly once per join regardless of waiting.
    std::vector<uint8_t> group;
    for (uint64_t h = 0; h < kMaxThreads; ++h) {
      if (home_owner_[h] == static_cast<int32_t>(tid)) {
        group.push_back(static_cast<uint8_t>(h));
        home_owner_[h] = -1;
      }
    }
    if (!group.empty()) {
      retired_homes_.push_back(std::move(group));
    }
    PublishEpoch();
  }
  SetRegId(f, dest, target.exit_value, target.exit_meta);
  ++f.ip;
}

void Machine::DoYield(Frame& f) {
  resched_ = true;
  ++f.ip;
}

void Machine::ExecRet(Frame& f, const Instruction* inst) {
  DoRet(f, !inst->operands().empty(), InstOps{*this, f, inst});
}

template <typename Ops>
void Machine::DoRet(Frame& f, bool has_value, const Ops& ops) {
  // Stack-cookie baseline: validate the canary before using the return slot.
  if (f.cookie_addr != 0) {
    uint64_t cookie = 0;
    regular_.ReadU64(f.cookie_addr, &cookie);
    ChargeRegularAccess(f.cookie_addr);
    if (cookie != cookie_value_) {
      Abort(Violation::kStackCookieSmashed, "stack smashing detected");
      return;
    }
  }

  uint64_t token = 0;
  if (f.ret_slot_safe) {
    cur_->safe_stack.ReadU64(f.ret_slot, &token);
    ChargeAccess(f.ret_slot);
  } else {
    regular_.ReadU64(f.ret_slot, &token);
    ChargeRegularAccess(f.ret_slot);
    if (module_.protection().ptrenc) {
      // Leaf-frame elision (ir::Function::ret_token_elidable): a provably
      // pure leaf cannot have written memory while its frame was live, so
      // the slot must still hold the prologue's sealed word — verified by
      // recomputation, no authenticate charged. Anything else (including a
      // word this check unexpectedly rejects) takes the exact O0 path.
      if (f.func->ret_token_elidable() &&
          token == sealer_.Seal(f.token, f.ret_slot)) {
        token = f.token;
      } else {
        // PAC-style epilogue: authenticate before the token may steer
        // control.
        ChargeAuth();
        uint64_t stripped = 0;
        if (!sealer_.Auth(token, f.ret_slot, &stripped)) {
          Abort(Violation::kPointerAuthFailure,
                "ptrenc: saved return address failed authentication");
          return;
        }
        token = stripped;
      }
    }
  }

  if (module_.protection().ret_chain) {
    // Chain epilogue: the slot must still hold the thread's chain head, and
    // that word must authenticate over slot ⊕ predecessor. A genuine stale
    // token from elsewhere in the chain fails the head comparison; a forged
    // word fails the MAC. No leaf elision — the chain head moves on every
    // call, so every return pays the authenticate.
    ChargeAuth();
    uint64_t stripped = 0;
    if (token != cur_->ret_chain_head ||
        !sealer_.Auth(token, f.ret_slot ^ f.saved_chain, &stripped)) {
      Abort(Violation::kPointerAuthFailure,
            "ret-chain: saved return address broke the authentication chain");
      return;
    }
    token = stripped;
    cur_->ret_chain_head = f.saved_chain;
  }

  if (token == f.token) {
    if (f.no_continuation) {
      Crash("return from a hijacked context");
      return;
    }
    uint64_t value = 0;
    RegMeta meta = RegMeta::None();
    if (has_value) {
      value = ops.value(0);
      meta = ops.meta(0);
    }
    ReturnToCaller(value, meta);
    return;
  }

  // The saved return address was corrupted: transfer control to wherever it
  // points, exactly like the ret instruction would.
  const Function* target = FunctionAtAddress(token);
  if (target != nullptr) {
    ++result_.counters.hijack_transfers;
    PopFrame();
    if (!cur_->frames.empty()) {
      cur_->frames.back().pending_call = nullptr;
    }
    std::vector<uint64_t> args(target->args().size(), 0);
    std::vector<RegMeta> metas(target->args().size(), RegMeta::None());
    PushFrame(target, args, metas, /*no_continuation=*/true);
    return;
  }
  Crash("return to a non-code address");
}

// ---------------------------------------------------------------------------
// Libc-style routines

void Machine::ExecLibCall(Frame& f, const Instruction* inst) {
  DoLibCall(f, inst->lib_func(), inst->checked(), InstOps{*this, f, inst});
}

template <typename Ops>
void Machine::DoLibCall(Frame& f, LibFunc func, bool checked, const Ops& ops) {
  Cycles(kLibCallSetupCycles);
  const ir::ProtectionFlags& prot = module_.protection();

  auto value_of = [&](size_t i) { return ops.value(i); };
  auto meta_of = [&](size_t i) { return ops.meta(i); };

  // SoftBound baseline: a checked libcall validates the whole touched range
  // against the pointer's bounds before a single byte moves.
  auto sb_range_check = [&](const RegMeta& meta, uint64_t addr, uint64_t n) {
    if (!prot.softbound || !checked || n == 0) {
      // Zero-length transfers access no memory; a one-past-the-end pointer
      // (addr == upper, legal C) must not trip the exclusive-bound check.
      return true;
    }
    ChargeCheck();
    if (!meta.IsSafeValue() || !meta.InBounds(addr, n)) {
      Abort(Violation::kSoftBoundViolation, "softbound: libcall range check failed");
      return false;
    }
    return true;
  };

  // CPI/CPS checked variants move safe-store entries along with the bytes
  // (§3.2.2 type-specific memcpy); charge one store op per word.
  auto move_entries = [&](uint64_t dst, uint64_t src, uint64_t n, bool is_move) {
    if (!(prot.cpi || prot.cps) || !checked) {
      return;
    }
    if (is_move) {
      store_->MoveRange(dst, src, n);
    } else {
      store_->CopyRange(dst, src, n);
    }
    ChargeBulkStoreOps(dst, n / 8 + 1);
  };
  // PtrEnc checked variants re-seal moved pointers: the storage location is
  // part of the MAC domain, so a sealed word copied to a new address must be
  // authenticated against its old slot and signed for its new one. Words
  // that do not authenticate (plain data, or a byte-shifted pointer) are
  // left as-is — they simply never authenticate at their new home.
  auto reseal_entries = [&](uint64_t dst, uint64_t src, uint64_t n) {
    if (!prot.ptrenc || !checked || ((dst ^ src) & 7) != 0 || dst == src) {
      return;
    }
    const RegMeta dm = meta_of(0);
    for (uint64_t d = (dst + 7) & ~7ULL; d + 8 <= dst + n; d += 8) {
      uint64_t word = 0;
      if (!DataRead(d, 8, dm, &word)) {
        return;
      }
      uint64_t value = 0;
      ChargeAuth();
      if (sealer_.Auth(word, src + (d - dst), &value)) {
        ChargeSeal();
        if (!DataWrite(d, 8, dm, sealer_.Seal(value, d))) {
          return;
        }
      }
    }
  };
  auto clear_entries = [&](uint64_t dst, uint64_t n) {
    if (!(prot.cpi || prot.cps) || !checked) {
      return;
    }
    store_->ClearRange(dst, n);
    ChargeBulkStoreOps(dst, n / 8 + 1);
  };

  auto copy_bytes = [&](uint64_t dst, const RegMeta& dm, uint64_t src, const RegMeta& sm,
                        uint64_t n, bool backward) -> bool {
    if (!CopyBytes(dst, dm, src, sm, n, backward)) {
      return false;
    }
    ChargeChunked(src, n);
    ChargeChunked(dst, n);
    return true;
  };

  switch (func) {
    case LibFunc::kStrlen: {
      uint64_t len = 0;
      if (!ScanStrlen(value_of(0), meta_of(0), &len)) {
        return;
      }
      ChargeChunked(value_of(0), len + 1);
      ops.set(len, RegMeta::None());
      break;
    }
    case LibFunc::kStrcmp: {
      const uint64_t a = value_of(0);
      const uint64_t b = value_of(1);
      const RegMeta ma = meta_of(0);
      const RegMeta mb = meta_of(1);
      uint64_t i = 0;
      int64_t r = 0;
      if (!CompareStrings(a, ma, b, mb, &i, &r)) {
        return;
      }
      ChargeChunked(a, i + 1);
      ChargeChunked(b, i + 1);
      ops.set(static_cast<uint64_t>(r), RegMeta::None());
      break;
    }
    case LibFunc::kStrcpy: {
      const uint64_t dst = value_of(0);
      const uint64_t src = value_of(1);
      uint64_t len = 0;
      if (!ScanStrlen(src, meta_of(1), &len)) {
        return;
      }
      if (!sb_range_check(meta_of(0), dst, len + 1) ||
          !sb_range_check(meta_of(1), src, len + 1)) {
        return;
      }
      if (!copy_bytes(dst, meta_of(0), src, meta_of(1), len + 1, /*backward=*/false)) {
        return;
      }
      clear_entries(dst, len + 1);
      ops.set(dst, meta_of(0));
      break;
    }
    case LibFunc::kStrncpy: {
      const uint64_t dst = value_of(0);
      const uint64_t src = value_of(1);
      const uint64_t n = value_of(2);
      if (!sb_range_check(meta_of(0), dst, n)) {
        return;
      }
      uint64_t len = 0;
      if (!ScanStrlen(src, meta_of(1), &len)) {
        return;
      }
      const uint64_t copy = std::min(len, n);
      if (!copy_bytes(dst, meta_of(0), src, meta_of(1), copy, /*backward=*/false)) {
        return;
      }
      if (!StoreBytes(dst + copy, meta_of(0), n - copy, nullptr, 0)) {
        return;
      }
      clear_entries(dst, n);
      ops.set(dst, meta_of(0));
      break;
    }
    case LibFunc::kStrcat: {
      const uint64_t dst = value_of(0);
      const uint64_t src = value_of(1);
      uint64_t dst_len = 0;
      uint64_t src_len = 0;
      if (!ScanStrlen(dst, meta_of(0), &dst_len) || !ScanStrlen(src, meta_of(1), &src_len)) {
        return;
      }
      if (!sb_range_check(meta_of(0), dst, dst_len + src_len + 1)) {
        return;
      }
      if (!copy_bytes(dst + dst_len, meta_of(0), src, meta_of(1), src_len + 1,
                      /*backward=*/false)) {
        return;
      }
      clear_entries(dst + dst_len, src_len + 1);
      ops.set(dst, meta_of(0));
      break;
    }
    case LibFunc::kMemcpy:
    case LibFunc::kMemmove: {
      const uint64_t dst = value_of(0);
      const uint64_t src = value_of(1);
      const uint64_t n = value_of(2);
      if (!sb_range_check(meta_of(0), dst, n) || !sb_range_check(meta_of(1), src, n)) {
        return;
      }
      const bool backward = func == LibFunc::kMemmove && dst > src && dst < src + n;
      if (n > 0 && !copy_bytes(dst, meta_of(0), src, meta_of(1), n, backward)) {
        return;
      }
      move_entries(dst, src, n, func == LibFunc::kMemmove);
      reseal_entries(dst, src, n);
      ops.set(dst, meta_of(0));
      break;
    }
    case LibFunc::kMemset: {
      const uint64_t dst = value_of(0);
      const uint8_t byte = static_cast<uint8_t>(value_of(1));
      const uint64_t n = value_of(2);
      if (!sb_range_check(meta_of(0), dst, n)) {
        return;
      }
      if (!StoreBytes(dst, meta_of(0), n, nullptr, byte)) {
        return;
      }
      ChargeChunked(dst, n);
      clear_entries(dst, n);
      ops.set(dst, meta_of(0));
      break;
    }
    case LibFunc::kInputBytes: {
      const uint64_t dst = value_of(0);
      const uint64_t max = value_of(1);
      const uint64_t available = options_.input_bytes.size() - input_byte_pos_;
      const uint64_t n = std::min(max, available);
      if (!sb_range_check(meta_of(0), dst, n)) {
        return;
      }
      if (!StoreBytes(dst, meta_of(0), n, options_.input_bytes.data() + input_byte_pos_, 0)) {
        return;
      }
      input_byte_pos_ += n;
      ChargeChunked(dst, n);
      clear_entries(dst, n);
      ops.set(n, RegMeta::None());
      break;
    }
  }
  if (!done_) {
    ++f.ip;
  }
}

// ---------------------------------------------------------------------------
// Instrumentation intrinsics

void Machine::ExecIntrinsic(Frame& f, const Instruction* inst) {
  DoIntrinsic(f, inst->intrinsic(), InstOps{*this, f, inst});
}

template <typename Ops>
void Machine::DoIntrinsic(Frame& f, IntrinsicId id, const Ops& ops) {
  const ir::ProtectionFlags& prot = module_.protection();
  switch (id) {
    // --- CPI ---------------------------------------------------------------
    case IntrinsicId::kCpiStore: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      const RegMeta vm = ops.meta(1);
      SafeEntry entry;
      if (vm.kind == EntryKind::kCode) {
        entry = SafeEntry::Code(value);
      } else if (vm.IsSafeValue()) {
        entry = SafeEntry{value, vm.lower, vm.upper, vm.temporal_id, EntryKind::kData};
      } else {
        entry = SafeEntry::Invalid(value);  // e.g. storing NULL
      }
      StoreSet(addr, entry);
      // Debug mode (§3.2.2): mirror into the regular region too.
      if (prot.debug_mode && !DataWrite(addr, 8, ops.meta(0), value)) return;
      break;
    }
    case IntrinsicId::kCpiLoad:
    case IntrinsicId::kCpiLoadUni:
    case IntrinsicId::kCpsLoad: {
      // The safe entry if there is one; in debug mode (§3.2.2) its regular
      // mirror must still agree. A slot never stored through the safe store
      // yields its regular word, whose use in any checked context aborts.
      const uint64_t addr = ops.value(0);
      const SafeEntry e = StoreGet(addr);
      if (!e.IsPresent() || prot.debug_mode) {
        uint64_t raw = 0;
        if (!DataRead(addr, 8, ops.meta(0), &raw)) {
          return;
        }
        if (!e.IsPresent()) {
          ops.set(raw, RegMeta::None());
          break;
        }
        if (raw != e.value) {
          Abort(Violation::kDebugModeMismatch,
                "debug mode: regular copy of a protected pointer diverged");
          return;
        }
      }
      ops.set(e.value, RegMeta::FromEntry(e));
      break;
    }
    case IntrinsicId::kCpiStoreUni: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      const RegMeta vm = ops.meta(1);
      const bool safe_value = vm.IsSafeValue() && (vm.kind == EntryKind::kCode ||
                                                   vm.lower <= vm.upper);
      if (safe_value) {
        SafeEntry entry = vm.kind == EntryKind::kCode
                              ? SafeEntry::Code(value)
                              : SafeEntry{value, vm.lower, vm.upper, vm.temporal_id,
                                          EntryKind::kData};
        StoreSet(addr, entry);
        if (prot.debug_mode && !DataWrite(addr, 8, ops.meta(0), value)) return;
      } else {
        // A regular value: store to the regular region and kill any stale
        // protected entry for this slot.
        StoreClear(addr);
        if (!DataWrite(addr, 8, ops.meta(0), value)) {
          return;
        }
      }
      break;
    }
    case IntrinsicId::kCpiBoundsCheck: {
      const uint64_t addr = ops.value(0);
      const uint64_t size = ops.value(1);
      const RegMeta meta = ops.meta(0);
      ChargeCheck();
      if (!meta.IsSafeValue() || !meta.InBounds(addr, size)) {
        Abort(Violation::kSpatialOutOfBounds, "CPI: sensitive dereference out of bounds");
        return;
      }
      if (!TemporallyLive(meta)) {
        Abort(Violation::kTemporalUseAfterFree, "CPI: use after free of sensitive object");
        return;
      }
      break;
    }
    case IntrinsicId::kCpiAssertCode: {
      const uint64_t value = ops.value(0);
      const RegMeta meta = ops.meta(0);
      ChargeCheck();
      if (meta.kind != EntryKind::kCode || value != meta.lower) {
        Abort(Violation::kForgedCodePointer, "CPI: indirect call through unsafe code pointer");
        return;
      }
      ops.set(value, meta);
      break;
    }

    // --- CPS ---------------------------------------------------------------
    case IntrinsicId::kCpsStore: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      const RegMeta vm = ops.meta(1);
      StoreSet(addr, vm.kind == EntryKind::kCode ? SafeEntry::Code(value)
                                                 : SafeEntry::Invalid(value));
      if (prot.debug_mode && !DataWrite(addr, 8, ops.meta(0), value)) return;
      break;
    }
    case IntrinsicId::kCpsStoreUni: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      const RegMeta vm = ops.meta(1);
      if (vm.kind == EntryKind::kCode) {
        StoreSet(addr, SafeEntry::Code(value));
      } else {
        StoreClear(addr);
        if (!DataWrite(addr, 8, ops.meta(0), value)) {
          return;
        }
      }
      break;
    }
    case IntrinsicId::kCpsLoadUni: {
      const uint64_t addr = ops.value(0);
      const SafeEntry e = StoreGet(addr);
      if (e.IsPresent() && e.kind == EntryKind::kCode) {
        ops.set(e.value, RegMeta::FromEntry(e));
      } else {
        uint64_t raw = 0;
        if (!DataRead(addr, 8, ops.meta(0), &raw)) {
          return;
        }
        ops.set(raw, RegMeta::None());
      }
      break;
    }
    case IntrinsicId::kCpsAssertCode: {
      const uint64_t value = ops.value(0);
      const RegMeta meta = ops.meta(0);
      ChargeCheck();
      if (meta.kind != EntryKind::kCode) {
        Abort(Violation::kForgedCodePointer, "CPS: indirect call through unsafe code pointer");
        return;
      }
      ops.set(value, meta);
      break;
    }

    // --- SoftBound baseline --------------------------------------------------
    case IntrinsicId::kSbStore: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      if (!DataWrite(addr, 8, ops.meta(0), value)) {
        return;
      }
      sb_shadow_[addr] = ops.meta(1);
      ChargeAccess(kSbShadowBase + (addr >> 3) * 16);
      ChargeAccess(kSbShadowBase + (addr >> 3) * 16 + 8);
      break;
    }
    case IntrinsicId::kSbLoad: {
      const uint64_t addr = ops.value(0);
      uint64_t raw = 0;
      if (!DataRead(addr, 8, ops.meta(0), &raw)) {
        return;
      }
      RegMeta meta = RegMeta::None();
      auto it = sb_shadow_.find(addr);
      if (it != sb_shadow_.end()) {
        meta = it->second;
      }
      ChargeAccess(kSbShadowBase + (addr >> 3) * 16);
      ChargeAccess(kSbShadowBase + (addr >> 3) * 16 + 8);
      ops.set(raw, meta);
      break;
    }
    case IntrinsicId::kSbCheck: {
      const uint64_t addr = ops.value(0);
      const uint64_t size = ops.value(1);
      const RegMeta meta = ops.meta(0);
      // Full memory safety checks every dereference, and the bounds usually
      // have to be re-fetched from the disjoint metadata space (SoftBound's
      // dominant cost); CPI's checks, by contrast, ride on metadata already
      // loaded by the fused safe-store access.
      ChargeCheck();
      Cycles(2);
      ChargeAccess(kSbShadowBase + (addr >> 3) * 16);
      if (!meta.IsSafeValue() || !meta.InBounds(addr, size)) {
        Abort(Violation::kSoftBoundViolation, "softbound: dereference check failed");
        return;
      }
      if (!TemporallyLive(meta)) {
        Abort(Violation::kTemporalUseAfterFree, "softbound: use after free");
        return;
      }
      break;
    }

    // --- CFI baseline --------------------------------------------------------
    case IntrinsicId::kCfiCheck: {
      const uint64_t value = ops.value(0);
      ++result_.counters.checks;
      Cycles(kCfiCheckCycles);
      const Function* target = FunctionAtAddress(value);
      if (target == nullptr || !target->address_taken()) {
        Abort(Violation::kCfiBadTarget, "CFI: indirect call target not in the valid set");
        return;
      }
      ops.set(value, ops.meta(0));
      break;
    }

    // --- PtrEnc: in-place pointer sealing --------------------------------
    case IntrinsicId::kSealStore: {
      const uint64_t addr = ops.value(0);
      const uint64_t value = ops.value(1);
      const RegMeta vm = ops.meta(1);
      uint64_t word = value;
      if (vm.kind == EntryKind::kCode) {
        word = sealer_.Seal(value, addr);
        ChargeSeal();
      }
      if (!DataWrite(addr, 8, ops.meta(0), word)) {
        return;
      }
      break;
    }
    case IntrinsicId::kSealLoad: {
      const uint64_t addr = ops.value(0);
      uint64_t raw = 0;
      if (!DataRead(addr, 8, ops.meta(0), &raw)) {
        return;
      }
      // Authenticate unconditionally (the aut instruction runs either way).
      // A valid MAC strips to a usable code pointer; anything else — plain
      // data, or an attacker-corrupted slot — stays a regular value whose
      // use as a call target aborts at kSealAssertCode.
      ChargeAuth();
      uint64_t value = 0;
      if (sealer_.Auth(raw, addr, &value)) {
        ops.set(value, RegMeta::Code(value));
      } else {
        ops.set(raw, RegMeta::None());
      }
      break;
    }
    case IntrinsicId::kSealAssertCode: {
      const uint64_t value = ops.value(0);
      const RegMeta meta = ops.meta(0);
      ChargeAuth();
      ++result_.counters.checks;
      if (meta.kind != EntryKind::kCode) {
        Abort(Violation::kPointerAuthFailure,
              "ptrenc: indirect call through unauthenticated pointer");
        return;
      }
      ops.set(value, meta);
      break;
    }
  }
  if (!done_) {
    ++f.ip;
  }
}


// ---------------------------------------------------------------------------
// Decoded engine: one handler per micro-op, dispatched through a function-
// pointer table. Each handler is the corresponding Step() arm with operands
// and type-derived payloads pre-resolved at decode time; cost charging and
// trap behaviour are identical, instruction for instruction.

void Machine::OpAlloca(Machine& m, Frame& f, const DecodedOp& op) {
  uint64_t& sp = op.flag ? m.cur_->safe_sp : m.cur_->sp;
  sp -= op.imm;
  sp &= ~op.imm2;  // imm2 = alignment - 1
  const uint64_t addr = sp;
  m.SetRegId(f, op.dest, addr,
             RegMeta::Data(addr, addr + op.imm, runtime::TemporalIdService::kStaticId));
  ++f.ip;
}

void Machine::OpLoad(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t addr = SlotVal(f, op.a);
  uint64_t raw = 0;
  if (!m.DataRead(addr, op.imm, SlotMeta(f, op.a), &raw)) {
    return;
  }
  m.SetRegId(f, op.dest, raw, RegMeta::None());
  ++f.ip;
}

void Machine::OpStore(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t value = SlotVal(f, op.a);
  const uint64_t addr = SlotVal(f, op.b);
  if (!m.DataWrite(addr, op.imm, SlotMeta(f, op.b), value)) {
    return;
  }
  ++f.ip;
}

void Machine::OpFieldAddr(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t base = SlotVal(f, op.a);
  const RegMeta base_meta = SlotMeta(f, op.a);
  const uint64_t addr = base + op.imm;  // imm = field offset
  RegMeta meta = RegMeta::None();
  if (base_meta.IsSafeValue() && base_meta.kind == EntryKind::kData) {
    // Sub-object narrowing (based-on case (iii)); imm2 = field size.
    meta = RegMeta::Data(addr, addr + op.imm2, base_meta.temporal_id);
  }
  m.SetRegId(f, op.dest, addr, meta);
  ++f.ip;
}

void Machine::OpIndexAddr(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t base = SlotVal(f, op.a);
  const int64_t index = SignExtend(SlotVal(f, op.b), op.bits);
  const uint64_t addr = base + static_cast<uint64_t>(index) * op.imm;  // imm = elem size
  m.SetRegId(f, op.dest, addr, SlotMeta(f, op.a));
  ++f.ip;
}

void Machine::OpBinOp(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoBinOp(f, static_cast<BinOp>(op.aux), op.bits, op.bits2, SlotOps{m, f, op});
}

void Machine::OpCast(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoCast(f, static_cast<CastKind>(op.aux), op.bits, op.bits2, SlotOps{m, f, op});
}

void Machine::OpSelect(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t cond = SlotVal(f, op.a);
  const OperandSlot& chosen = cond != 0 ? op.b : op.c;
  m.SetRegId(f, op.dest, SlotVal(f, chosen), SlotMeta(f, chosen));
  ++f.ip;
}

std::pair<std::vector<uint64_t>, std::vector<RegMeta>> Machine::ReadArgSlots(
    const Frame& f, const DecodedOp& op) {
  std::vector<uint64_t> args(op.arg_count);
  std::vector<RegMeta> metas(op.arg_count);
  const OperandSlot* slots = f.dfunc->args.data() + op.arg_begin;
  for (uint32_t i = 0; i < op.arg_count; ++i) {
    args[i] = SlotVal(f, slots[i]);
    metas[i] = SlotMeta(f, slots[i]);
  }
  return {std::move(args), std::move(metas)};
}

void Machine::DoCallSlots(Frame& f, const DecodedOp& op, const Function* callee) {
  auto [args, metas] = ReadArgSlots(f, op);
  // The call instruction's identity lives in the cold side table, parallel
  // to the op array (return-value plumbing needs the ir::Instruction).
  f.pending_call = f.dfunc->insts[&op - f.dfunc->ops.data()];
  PushFrame(callee, args, metas, /*no_continuation=*/false);
}

void Machine::OpCall(Machine& m, Frame& f, const DecodedOp& op) {
  // imm = callee ordinal, baked at decode time.
  m.DoCallSlots(f, op, m.module_.functions()[op.imm].get());
}

void Machine::OpIndirectCall(Machine& m, Frame& f, const DecodedOp& op) {
  const uint64_t target = SlotVal(f, op.a);
  const Function* callee = m.FunctionAtAddress(target);
  if (callee == nullptr) {
    m.Crash("indirect call to a non-code address");
    return;
  }
  if (callee->type()->params().size() != op.arg_count) {
    m.Crash("indirect call with mismatched signature");
    return;
  }
  m.DoCallSlots(f, op, callee);
}

void Machine::OpLibCall(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoLibCall(f, static_cast<LibFunc>(op.aux), op.flag, SlotOps{m, f, op});
}

void Machine::OpMalloc(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoMalloc(f, SlotVal(f, op.a), op.dest);
}

void Machine::OpFree(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoFree(f, SlotVal(f, op.a));
}

void Machine::OpFuncAddr(Machine& m, Frame& f, const DecodedOp& op) {
  m.SetRegId(f, op.dest, op.imm, RegMeta::Code(op.imm));  // imm = code address
  ++f.ip;
}

void Machine::OpGlobalAddr(Machine& m, Frame& f, const DecodedOp& op) {
  // imm = global address, imm2 = global size.
  m.SetRegId(f, op.dest, op.imm,
             RegMeta::Data(op.imm, op.imm + op.imm2, runtime::TemporalIdService::kStaticId));
  ++f.ip;
}

void Machine::OpBr(Machine&, Frame& f, const DecodedOp& op) { f.ip = op.target; }

void Machine::OpCondBr(Machine&, Frame& f, const DecodedOp& op) {
  f.ip = SlotVal(f, op.a) != 0 ? op.target : op.target2;
}

void Machine::OpRet(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoRet(f, op.flag, SlotOps{m, f, op});
}

void Machine::OpInput(Machine& m, Frame& f, const DecodedOp& op) {
  uint64_t v = 0;
  if (m.input_word_pos_ < m.options_.input_words.size()) {
    v = m.options_.input_words[m.input_word_pos_++];
  }
  m.Cycles(2);
  m.SetRegId(f, op.dest, v, RegMeta::None());
  ++f.ip;
}

void Machine::OpOutput(Machine& m, Frame& f, const DecodedOp& op) {
  if (m.result_.output.size() >= kMaxOutputWords) {
    m.Crash("output limit exceeded");
    return;
  }
  m.Cycles(2);
  m.result_.output.push_back(SlotVal(f, op.a));
  ++f.ip;
}

void Machine::OpIntrinsic(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoIntrinsic(f, static_cast<IntrinsicId>(op.aux), SlotOps{m, f, op});
}

void Machine::OpSpawn(Machine& m, Frame& f, const DecodedOp& op) {
  auto [args, metas] = ReadArgSlots(f, op);
  m.DoSpawn(f, m.module_.functions()[op.imm].get(), std::move(args), std::move(metas),
            op.dest);
}

void Machine::OpJoin(Machine& m, Frame& f, const DecodedOp& op) {
  m.DoJoin(f, SlotVal(f, op.a), op.dest);
}

void Machine::OpYield(Machine& m, Frame& f, const DecodedOp&) { m.DoYield(f); }

// ---------------------------------------------------------------------------
// Fused engine: superinstruction handlers. The head op carries the macro
// opcode; its constituents follow it in the op array with their original
// micro opcodes and payloads. Almost every macro is a FusePair/FuseTriple
// template instantiation (declared in the class body): the pair matrix and
// the specialised triple shapes are expanded directly into the dispatch
// table below. OpCmpBr additionally inlines both constituent bodies.

void Machine::OpCmpBr(Machine& m, Frame& f, const DecodedOp& op) {
  // Head: integer compare (the planner only picks kCmpBr for these, and
  // only when the branch consumes the compare's destination register).
  const uint64_t x = SlotVal(f, op.a);
  const uint64_t y = SlotVal(f, op.b);
  const int64_t sx = SignExtend(x, op.bits);
  const int64_t sy = SignExtend(y, op.bits);
  uint64_t r = 0;
  switch (static_cast<BinOp>(op.aux)) {
    case BinOp::kEq: r = x == y; break;
    case BinOp::kNe: r = x != y; break;
    case BinOp::kSLt: r = sx < sy; break;
    case BinOp::kSLe: r = sx <= sy; break;
    case BinOp::kSGt: r = sx > sy; break;
    case BinOp::kSGe: r = sx >= sy; break;
    case BinOp::kULt: r = x < y; break;
    case BinOp::kULe: r = x <= y; break;
    default: CPI_UNREACHABLE();
  }
  r = MaskToWidth(r, op.bits2);
  m.SetRegId(f, op.dest, r, RegMeta::None());
  ++f.ip;
  // Tail: the conditional branch, on the value just computed. Neither
  // constituent can trap, so the batched charge never needs rolling back.
  if (!m.PrechargeTails(1)) {
    if (!m.FusedStep()) return;
  }
  const DecodedOp& t = *(&op + 1);
  f.ip = r != 0 ? t.target : t.target2;
}

// The pair matrix and triple shapes, expanded into FusePair/FuseTriple
// instantiations. Head/tail order MUST match kFuseHeadOps (tails = heads +
// kBr + kCondBr) and kTripleShapes in decode.h — the fuser computes the
// macro opcode as a matrix index. The bool after each head marks whether
// that constituent can trap (loads, stores, binop division, intrinsics).
#define CPI_FUSE_TAILS(P, H, HT)                                         \
  P(H, HT, Load) P(H, HT, Store) P(H, HT, FieldAddr) P(H, HT, IndexAddr) \
  P(H, HT, BinOp) P(H, HT, Cast) P(H, HT, Select) P(H, HT, FuncAddr)     \
  P(H, HT, GlobalAddr) P(H, HT, Intrinsic) P(H, HT, Br) P(H, HT, CondBr)
#define CPI_FUSE_PAIRS(P)                                                 \
  CPI_FUSE_TAILS(P, Load, true) CPI_FUSE_TAILS(P, Store, true)            \
  CPI_FUSE_TAILS(P, FieldAddr, false) CPI_FUSE_TAILS(P, IndexAddr, false) \
  CPI_FUSE_TAILS(P, BinOp, true) CPI_FUSE_TAILS(P, Cast, false)           \
  CPI_FUSE_TAILS(P, Select, false) CPI_FUSE_TAILS(P, FuncAddr, false)     \
  CPI_FUSE_TAILS(P, GlobalAddr, false) CPI_FUSE_TAILS(P, Intrinsic, true)
#define CPI_PAIR_ENTRY(H, HT, T) \
  &Machine::FusePair<&Machine::Op##H, &Machine::Op##T, HT>,
#define CPI_TRIPLE_ENTRY(A, AT, B, BT, C) \
  &Machine::FuseTriple<&Machine::Op##A, &Machine::Op##B, &Machine::Op##C, AT, BT>,

// Indexed by MicroOp then MacroOp; must match the enum orders in decode.h.
const Machine::Handler Machine::kDispatch[kNumOpcodes] = {
    &Machine::OpAlloca,   &Machine::OpLoad,         &Machine::OpStore,
    &Machine::OpFieldAddr, &Machine::OpIndexAddr,   &Machine::OpBinOp,
    &Machine::OpCast,     &Machine::OpSelect,       &Machine::OpCall,
    &Machine::OpIndirectCall, &Machine::OpLibCall,  &Machine::OpMalloc,
    &Machine::OpFree,     &Machine::OpFuncAddr,     &Machine::OpGlobalAddr,
    &Machine::OpBr,       &Machine::OpCondBr,       &Machine::OpRet,
    &Machine::OpInput,    &Machine::OpOutput,       &Machine::OpIntrinsic,
    &Machine::OpSpawn,    &Machine::OpJoin,         &Machine::OpYield,
    // Macro-ops (fused tier only; the decoded tier never emits them).
    &Machine::OpCmpBr,
    // kPairBase: the head x tail matrix.
    CPI_FUSE_PAIRS(CPI_PAIR_ENTRY)
    // kTripleBase: kTripleShapes order.
    CPI_TRIPLE_ENTRY(Load, true, BinOp, true, CondBr)
    CPI_TRIPLE_ENTRY(Load, true, GlobalAddr, false, IndexAddr)
    CPI_TRIPLE_ENTRY(Store, true, Load, true, BinOp)
    CPI_TRIPLE_ENTRY(BinOp, true, Store, true, Br)
    CPI_TRIPLE_ENTRY(Load, true, IndexAddr, false, Load)
    CPI_TRIPLE_ENTRY(Load, true, BinOp, true, GlobalAddr)
    CPI_TRIPLE_ENTRY(Load, true, BinOp, true, Store)
    CPI_TRIPLE_ENTRY(IndexAddr, false, Store, true, Load)
    CPI_TRIPLE_ENTRY(BinOp, true, Store, true, FieldAddr)
};
#undef CPI_FUSE_TAILS
#undef CPI_FUSE_PAIRS
#undef CPI_PAIR_ENTRY
#undef CPI_TRIPLE_ENTRY

// The dispatch loop of both predecoded tiers. A fused decode differs only in
// the macro-op heads it installed, whose handlers charge their tail
// constituents through PrechargeTails/FusedStep.
void Machine::RunDecodedLoop() {
  while (!done_) {
    if (result_.counters.instructions >= options_.max_steps) {
      Trap(RunStatus::kOutOfFuel, Violation::kNone, "step budget exhausted");
      break;
    }
    if (result_.counters.instructions >= fault_at_) {
      ApplyPendingFaults();
    }
    Frame& f = cur_->frames.back();
    // Same malformed-IR guard as the reference Step(): a block missing its
    // terminator must abort loudly, not fall through into the next block's
    // flattened ops.
    CPI_CHECK(f.ip < f.dfunc->ops.size());
    const DecodedOp& op = f.dfunc->ops[f.ip];
    ++result_.counters.instructions;
    Cycles(kBaseCycles);
    kDispatch[static_cast<size_t>(op.op)](*this, f, op);
    if ((resched_ || --quantum_left_ == 0) && !done_) {
      Reschedule();
    }
  }
}

}  // namespace

RunResult Execute(const ir::Module& module, const RunOptions& options) {
  if (options.engine == EngineKind::kReference) {
    const ProgramLayout layout = ComputeProgramLayout(module);
    return Machine(module, layout, nullptr, options).Run();
  }
  const DecodedModule decoded(module, ComputeProgramLayout(module),
                              options.engine == EngineKind::kFused);
  return Execute(decoded, options);
}

RunResult Execute(const DecodedModule& decoded, const RunOptions& options) {
  CPI_CHECK(decoded.engine() == options.engine);
  return Machine(decoded.module(), decoded.layout(), &decoded, options).Run();
}

ProgramLayout ComputeProgramLayout(const ir::Module& module) {
  ProgramLayout layout;
  layout.code.resize(module.functions().size());
  for (size_t i = 0; i < module.functions().size(); ++i) {
    CPI_CHECK(module.functions()[i]->ordinal() == i);
    layout.code[i] = kCodeBase + i * kCodeStride;
  }
  layout.globals.resize(module.globals().size());
  uint64_t ro = kRoGlobalBase;
  uint64_t rw = kRwGlobalBase;
  for (const auto& g : module.globals()) {
    const uint64_t size = g->type()->SizeInBytes();
    const uint64_t align = ir::AlignmentOf(g->type());
    uint64_t& cursor = g->is_const() ? ro : rw;
    cursor = (cursor + align - 1) / align * align;
    CPI_CHECK(g->ordinal() < layout.globals.size());
    layout.globals[g->ordinal()] = cursor;
    cursor += size;
  }
  return layout;
}

uint64_t FirstHeapAddress() { return kHeapBase; }

}  // namespace cpi::vm
