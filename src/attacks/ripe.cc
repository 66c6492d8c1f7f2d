#include "src/attacks/ripe.h"

#include "src/ir/builder.h"
#include "src/support/check.h"
#include "src/support/pool.h"
#include "src/vm/layout.h"

namespace cpi::attacks {

using ir::Function;
using ir::GlobalVariable;
using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Value;

const char* TechniqueName(Technique t) {
  switch (t) {
    case Technique::kDirectOverflow: return "direct-overflow";
    case Technique::kIndexedWrite: return "indexed-write";
    case Technique::kArbitraryWrite: return "arbitrary-write";
  }
  CPI_UNREACHABLE();
}

const char* LocationName(Location l) {
  switch (l) {
    case Location::kStack: return "stack";
    case Location::kHeap: return "heap";
    case Location::kGlobal: return "global";
  }
  CPI_UNREACHABLE();
}

const char* TargetName(Target t) {
  switch (t) {
    case Target::kReturnAddress: return "ret-addr";
    case Target::kFunctionPointer: return "func-ptr";
    case Target::kStructFuncPtr: return "struct-func-ptr";
    case Target::kLongjmpBuffer: return "longjmp-buf";
    case Target::kVtablePointer: return "vtable-ptr";
    case Target::kSafeStackSlot: return "safe-stack-slot";
  }
  CPI_UNREACHABLE();
}

const char* AttackOutcomeName(AttackOutcome o) {
  switch (o) {
    case AttackOutcome::kHijacked: return "HIJACKED";
    case AttackOutcome::kPrevented: return "prevented";
    case AttackOutcome::kCrashed: return "crashed";
    case AttackOutcome::kNoEffect: return "no-effect";
  }
  CPI_UNREACHABLE();
}

std::string AttackSpec::Name() const {
  std::string name = std::string(TechniqueName(technique)) + "/" + LocationName(location) +
                     "/" + TargetName(target);
  if (gadget_address_taken) {
    name += "/addr-taken";
  }
  if (cross_thread) {
    name += "/cross-thread";
  }
  return name;
}

std::vector<AttackSpec> GenerateAttackMatrix() {
  std::vector<AttackSpec> specs;
  const Technique techniques[] = {Technique::kDirectOverflow, Technique::kIndexedWrite,
                                  Technique::kArbitraryWrite};
  const Location locations[] = {Location::kStack, Location::kHeap, Location::kGlobal};
  const Target targets[] = {Target::kReturnAddress, Target::kFunctionPointer,
                            Target::kStructFuncPtr, Target::kLongjmpBuffer,
                            Target::kVtablePointer};
  for (Technique tech : techniques) {
    for (Location loc : locations) {
      for (Target target : targets) {
        // Validity rules, mirroring which RIPE exploits are possible.
        if (target == Target::kReturnAddress &&
            (loc != Location::kStack || tech == Technique::kArbitraryWrite)) {
          continue;  // return addresses live only in stack frames; their
                     // address is not assumed known (ASLR)
        }
        if (target == Target::kVtablePointer && loc == Location::kStack) {
          continue;  // the fake-vtable attack needs a predictable buffer addr
        }
        if (tech == Technique::kArbitraryWrite && loc == Location::kStack) {
          continue;  // stack addresses are not assumed known
        }
        for (bool taken : {false, true}) {
          specs.push_back(AttackSpec{tech, loc, target, taken});
        }
      }
    }
  }
  return specs;
}

std::vector<AttackSpec> GenerateCrossThreadMatrix() {
  // Both rows use the arbitrary-write primitive: unlike same-frame
  // overflows, thread stacks are reached by address, and the per-thread
  // stack layout is deterministic (vm::UnsafeStackTopFor /
  // vm::SafeStackTopFor), exactly like mmap-predictable thread stacks.
  return {
      AttackSpec{Technique::kArbitraryWrite, Location::kStack, Target::kReturnAddress,
                 /*gadget_address_taken=*/false, /*cross_thread=*/true},
      AttackSpec{Technique::kArbitraryWrite, Location::kStack, Target::kSafeStackSlot,
                 /*gadget_address_taken=*/false, /*cross_thread=*/true},
  };
}

namespace {

constexpr uint64_t kBufBytes = 32;

// Field/variable naming shared between the program builder and the payload
// crafter.
constexpr const char* kVictimStruct = "victim";
constexpr const char* kVtableStruct = "fake_vtbl_layout";

// The distance from the start of the buffer to the overwritten word, for the
// overflow techniques.
struct TargetOffsets {
  uint64_t target_offset = 0;      // from buffer start (overflow techniques)
  uint64_t target_addr = 0;        // absolute (arbitrary-write), 0 if unused
  uint64_t buffer_addr = 0;        // absolute buffer address, 0 if unknown
};

// Builds the vulnerable program. Structure:
//   gadget()         — outputs kGadgetMarker (the attacker's goal)
//   legit()          — outputs a benign marker; initial target value
//   vulnerable()     — owns/reaches the buffer, performs the attacker-
//                      controlled writes, then uses the code pointer
//   main()           — (optionally leaks gadget's address into the CFI set,)
//                      calls vulnerable, outputs kSurvivedMarker
class AttackProgramBuilder {
 public:
  explicit AttackProgramBuilder(const AttackSpec& spec) : spec_(spec) {}

  std::unique_ptr<Module> Build() {
    auto m = std::make_unique<Module>("ripe." + spec_.Name());
    module_ = m.get();
    auto& t = m->types();
    IRBuilder b(m.get());
    b_ = &b;

    const ir::FunctionType* void_fn_ty = t.FunctionTy(t.VoidTy(), {});
    void_fn_ptr_ty_ = t.PointerTo(void_fn_ty);

    if (spec_.cross_thread) {
      gadget_ = m->CreateFunction("gadget", void_fn_ty);
      b.SetInsertPoint(gadget_->CreateBlock("entry"));
      b.Output(b.I64(kGadgetMarker));
      b.Ret();
      BuildCrossThread(void_fn_ty);
      return m;
    }

    // The victim struct: buffer first, then the code-pointer-bearing fields.
    victim_ = t.GetOrCreateStruct(kVictimStruct);
    switch (spec_.target) {
      case Target::kStructFuncPtr:
        victim_->SetBody({{"buf", t.ArrayOf(t.CharTy(), kBufBytes), 0},
                          {"fp", void_fn_ptr_ty_, 0}});
        break;
      case Target::kLongjmpBuffer:
        victim_->SetBody({{"buf", t.ArrayOf(t.CharTy(), kBufBytes), 0},
                          {"saved_sp", t.I64(), 0},
                          {"pc", void_fn_ptr_ty_, 0}});
        break;
      case Target::kVtablePointer: {
        StructType* vtbl = t.GetOrCreateStruct(kVtableStruct);
        vtbl->SetBody({{"m", void_fn_ptr_ty_, 0}});
        victim_->SetBody({{"buf", t.ArrayOf(t.CharTy(), kBufBytes), 0},
                          {"vt", t.PointerTo(vtbl), 0}});
        break;
      }
      default:
        victim_->SetBody({{"buf", t.ArrayOf(t.CharTy(), kBufBytes), 0},
                          {"fp", void_fn_ptr_ty_, 0}});
        break;
    }

    gadget_ = m->CreateFunction("gadget", void_fn_ty);
    b.SetInsertPoint(gadget_->CreateBlock("entry"));
    b.Output(b.I64(kGadgetMarker));
    b.Ret();

    legit_ = m->CreateFunction("legit", void_fn_ty);
    b.SetInsertPoint(legit_->CreateBlock("entry"));
    b.Output(b.I64(0x1e617));
    b.Ret();

    // Globals for the kGlobal location (created in adjacency order).
    if (spec_.location == Location::kGlobal) {
      if (UsesSeparateTarget()) {
        g_buf_ = m->CreateGlobal("g_buf", t.ArrayOf(t.CharTy(), kBufBytes));
        g_fp_ = m->CreateGlobal("g_fp", void_fn_ptr_ty_);
      } else {
        g_victim_ = m->CreateGlobal("g_victim", victim_);
      }
    }

    BuildVulnerable();
    BuildMain();
    return m;
  }

  TargetOffsets Offsets(const vm::ProgramLayout& layout) const {
    TargetOffsets off;
    if (spec_.cross_thread) {
      // The victim is the first spawned thread (tid 1); its root frame's
      // saved-return slot sits 24 bytes below its stack top (16-byte bias +
      // one pushed word) — on the regular stack, or on the thread's safe
      // stack when the probe row asks for it.
      off.target_addr = (spec_.target == Target::kSafeStackSlot
                             ? vm::SafeStackTopFor(1)
                             : vm::UnsafeStackTopFor(1)) -
                        24;
      return off;
    }
    const uint64_t field_offset = UsesSeparateTarget() ? kBufBytes : TargetFieldOffset();
    off.target_offset = field_offset;
    switch (spec_.location) {
      case Location::kStack:
        break;  // overflow-only; absolute addresses unused
      case Location::kHeap:
        off.buffer_addr = vm::FirstHeapAddress();
        off.target_addr = off.buffer_addr + field_offset;
        break;
      case Location::kGlobal:
        if (UsesSeparateTarget()) {
          off.buffer_addr = layout.GlobalAddress(g_buf_);
          off.target_addr = layout.GlobalAddress(g_fp_);
        } else {
          off.buffer_addr = layout.GlobalAddress(g_victim_);
          off.target_addr = off.buffer_addr + field_offset;
        }
        break;
    }
    return off;
  }

  const Function* gadget() const { return gadget_; }

 private:
  // Plain function-pointer targets use two separate variables (buffer, then
  // pointer); the struct-based targets embed both in the victim struct.
  bool UsesSeparateTarget() const { return spec_.target == Target::kFunctionPointer; }

  uint64_t TargetFieldOffset() const {
    const std::string field = spec_.target == Target::kLongjmpBuffer ? "pc"
                              : spec_.target == Target::kVtablePointer ? "vt"
                                                                       : "fp";
    for (const ir::StructField& f : victim_->fields()) {
      if (f.name == field) {
        return f.offset;
      }
    }
    CPI_UNREACHABLE();
  }

  // Emits the attacker-controlled writes into `buf` (a char*).
  void EmitCorruption(Function* f, Value* buf) {
    IRBuilder& b = *b_;
    auto& t = module_->types();
    switch (spec_.technique) {
      case Technique::kDirectOverflow:
        // Unbounded copy of attacker bytes — strcpy/read-style.
        b.LibCall(ir::LibFunc::kInputBytes, {buf, b.I64(512)});
        break;
      case Technique::kIndexedWrite: {
        // for (i = 0; i < attacker_n; i++) buf[i] = attacker_byte;
        Value* n_slot = b.Alloca(t.I64(), "n");
        Value* i_slot = b.Alloca(t.I64(), "i");
        b.Store(b.Input(), n_slot);
        b.Store(b.I64(0), i_slot);
        ir::BasicBlock* header = f->CreateBlock("w.header");
        ir::BasicBlock* body = f->CreateBlock("w.body");
        ir::BasicBlock* exit = f->CreateBlock("w.exit");
        b.Br(header);
        b.SetInsertPoint(header);
        Value* i = b.Load(i_slot);
        b.CondBr(b.ICmpSLt(i, b.Load(n_slot)), body, exit);
        b.SetInsertPoint(body);
        Value* i2 = b.Load(i_slot);
        Value* v = b.Cast(ir::CastKind::kTrunc, b.Input(), t.CharTy());
        b.Store(v, b.IndexAddr(buf, i2));
        b.Store(b.Add(i2, b.I64(1)), i_slot);
        b.Br(header);
        b.SetInsertPoint(exit);
        break;
      }
      case Technique::kArbitraryWrite: {
        // n pairs of (address, value) — the format-string primitive.
        Value* n_slot = b.Alloca(t.I64(), "n");
        Value* i_slot = b.Alloca(t.I64(), "i");
        b.Store(b.Input(), n_slot);
        b.Store(b.I64(0), i_slot);
        ir::BasicBlock* header = f->CreateBlock("a.header");
        ir::BasicBlock* body = f->CreateBlock("a.body");
        ir::BasicBlock* exit = f->CreateBlock("a.exit");
        b.Br(header);
        b.SetInsertPoint(header);
        Value* i = b.Load(i_slot);
        b.CondBr(b.ICmpSLt(i, b.Load(n_slot)), body, exit);
        b.SetInsertPoint(body);
        Value* addr = b.Input();
        Value* val = b.Input();
        Value* p = b.IntToPtr(addr, t.PointerTo(t.I64()));
        b.Store(val, p);
        b.Store(b.Add(b.Load(i_slot), b.I64(1)), i_slot);
        b.Br(header);
        b.SetInsertPoint(exit);
        break;
      }
    }
  }

  // Emits the control transfer through the (possibly corrupted) pointer.
  void EmitUse(Value* target_holder) {
    IRBuilder& b = *b_;
    switch (spec_.target) {
      case Target::kReturnAddress:
      case Target::kSafeStackSlot:
        break;  // the use is the vulnerable function's own return
      case Target::kFunctionPointer: {
        Value* fp = b.Load(target_holder, "fp");
        b.IndirectCall(fp, {});
        break;
      }
      case Target::kStructFuncPtr: {
        Value* fp = b.Load(b.FieldAddr(target_holder, "fp"), "fp");
        b.IndirectCall(fp, {});
        break;
      }
      case Target::kLongjmpBuffer: {
        // longjmp: restore the saved context and jump through jb->pc.
        Value* pc = b.Load(b.FieldAddr(target_holder, "pc"), "pc");
        b.IndirectCall(pc, {});
        break;
      }
      case Target::kVtablePointer: {
        Value* vt = b.Load(b.FieldAddr(target_holder, "vt"), "vt");
        Value* m = b.Load(b.FieldAddr(vt, "m"), "m");
        b.IndirectCall(m, {});
        break;
      }
    }
  }

  void BuildVulnerable() {
    IRBuilder& b = *b_;
    auto& t = module_->types();
    Function* f = module_->CreateFunction(
        "vulnerable", t.FunctionTy(t.VoidTy(), {}));
    vulnerable_ = f;
    b.SetInsertPoint(f->CreateBlock("entry"));

    Value* buf = nullptr;            // char* to the vulnerable buffer
    Value* target_holder = nullptr;  // slot or struct pointer for EmitUse

    switch (spec_.location) {
      case Location::kStack: {
        if (spec_.target == Target::kReturnAddress) {
          Value* arr = b.Alloca(t.ArrayOf(t.CharTy(), kBufBytes), "buf");
          buf = b.IndexAddr(arr, b.I64(0));
        } else if (UsesSeparateTarget()) {
          // Target allocated first (higher address), buffer second: a
          // contiguous overflow from the buffer reaches the pointer.
          Value* fp_slot = b.Alloca(void_fn_ptr_ty_, "fp_slot");
          Value* arr = b.Alloca(t.ArrayOf(t.CharTy(), kBufBytes), "buf");
          b.Store(b.FuncAddr(legit_), fp_slot);
          buf = b.IndexAddr(arr, b.I64(0));
          target_holder = fp_slot;
        } else {
          Value* vic = b.Alloca(victim_, "victim");
          InitVictim(vic);
          buf = b.IndexAddr(b.FieldAddr(vic, "buf"), b.I64(0));
          target_holder = vic;
        }
        break;
      }
      case Location::kHeap: {
        if (UsesSeparateTarget()) {
          Value* heap_buf = b.Malloc(b.I64(kBufBytes), t.PointerTo(t.CharTy()));
          Value* fp_cell = b.Malloc(b.I64(8), t.PointerTo(void_fn_ptr_ty_));
          b.Store(b.FuncAddr(legit_), fp_cell);
          buf = heap_buf;
          target_holder = fp_cell;
        } else {
          Value* vic = b.Malloc(b.I64(victim_->SizeInBytes()), t.PointerTo(victim_));
          InitVictim(vic);
          buf = b.IndexAddr(b.FieldAddr(vic, "buf"), b.I64(0));
          target_holder = vic;
        }
        break;
      }
      case Location::kGlobal: {
        if (UsesSeparateTarget()) {
          b.Store(b.FuncAddr(legit_), b.GlobalAddr(g_fp_));
          buf = b.IndexAddr(b.GlobalAddr(g_buf_), b.I64(0));
          target_holder = b.GlobalAddr(g_fp_);
        } else {
          Value* vic = b.GlobalAddr(g_victim_);
          InitVictim(vic);
          buf = b.IndexAddr(b.FieldAddr(vic, "buf"), b.I64(0));
          target_holder = vic;
        }
        break;
      }
    }

    EmitCorruption(f, buf);
    EmitUse(target_holder);
    b.Ret();
  }

  void InitVictim(Value* vic) {
    IRBuilder& b = *b_;
    switch (spec_.target) {
      case Target::kStructFuncPtr:
        b.Store(b.FuncAddr(legit_), b.FieldAddr(vic, "fp"));
        break;
      case Target::kLongjmpBuffer:
        b.Store(b.I64(0), b.FieldAddr(vic, "saved_sp"));
        b.Store(b.FuncAddr(legit_), b.FieldAddr(vic, "pc"));
        break;
      case Target::kVtablePointer: {
        // A real vtable for `legit`, heap-allocated at startup.
        auto& t = module_->types();
        const StructType* vtbl = t.FindStruct(kVtableStruct);
        Value* vt = b.Malloc(b.I64(vtbl->SizeInBytes()),
                             t.PointerTo(vtbl));
        b.Store(b.FuncAddr(legit_), b.FieldAddr(vt, "m"));
        b.Store(vt, b.FieldAddr(vic, "vt"));
        break;
      }
      default:
        b.Store(b.FuncAddr(legit_), b.FieldAddr(vic, "fp"));
        break;
    }
  }

  // Cross-thread program:
  //   victim_thread()    — parks in a yield loop long enough for the
  //                        attacker to strike, then returns (the use)
  //   attacker_thread()  — arbitrary-write primitive against the victim's
  //                        deterministic stack slot
  //   main()             — spawn victim (tid 1), spawn attacker (tid 2),
  //                        join attacker then victim, output survival marker
  void BuildCrossThread(const ir::FunctionType* void_fn_ty) {
    (void)void_fn_ty;
    IRBuilder& b = *b_;
    auto& t = module_->types();

    Function* victim = module_->CreateFunction("victim_thread", t.FunctionTy(t.I64(), {}));
    {
      b.SetInsertPoint(victim->CreateBlock("entry"));
      Value* i_slot = b.Alloca(t.I64(), "i");
      b.Store(b.I64(0), i_slot);
      ir::BasicBlock* header = victim->CreateBlock("park.header");
      ir::BasicBlock* body = victim->CreateBlock("park.body");
      ir::BasicBlock* exit = victim->CreateBlock("park.exit");
      b.Br(header);
      b.SetInsertPoint(header);
      // Generous budget: the attacker needs only a few dozen instructions,
      // and every victim yield hands it a whole quantum.
      b.CondBr(b.ICmpSLt(b.Load(i_slot), b.I64(200)), body, exit);
      b.SetInsertPoint(body);
      b.Yield();
      b.Store(b.Add(b.Load(i_slot), b.I64(1)), i_slot);
      b.Br(header);
      b.SetInsertPoint(exit);
      b.Ret(b.I64(0));  // the victim's return is the hijacked control transfer
    }

    Function* attacker = module_->CreateFunction("attacker_thread", t.FunctionTy(t.I64(), {}));
    {
      b.SetInsertPoint(attacker->CreateBlock("entry"));
      EmitCorruption(attacker, /*buf=*/nullptr);  // arbitrary-write primitive
      b.Ret(b.I64(0));
    }

    Function* main = module_->CreateFunction("main", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(main->CreateBlock("entry"));
    Value* victim_tid = b.Spawn(victim, {}, "victim");
    Value* attacker_tid = b.Spawn(attacker, {}, "attacker");
    b.Join(attacker_tid);
    b.Join(victim_tid);
    b.Output(b.I64(kSurvivedMarker));
    b.Ret(b.I64(0));
  }

  void BuildMain() {
    IRBuilder& b = *b_;
    auto& t = module_->types();
    Function* main = module_->CreateFunction("main", t.FunctionTy(t.I64(), {}));
    b.SetInsertPoint(main->CreateBlock("entry"));
    if (spec_.gadget_address_taken) {
      // A benign address-of elsewhere in the program puts the gadget into
      // coarse CFI's valid target set.
      GlobalVariable* cb = module_->CreateGlobal("registered_cb", void_fn_ptr_ty_);
      b.Store(b.FuncAddr(gadget_), b.GlobalAddr(cb));
    }
    b.Call(vulnerable_, {});
    b.Output(b.I64(kSurvivedMarker));
    b.Ret(b.I64(0));
  }

  AttackSpec spec_;
  Module* module_ = nullptr;
  IRBuilder* b_ = nullptr;
  StructType* victim_ = nullptr;
  const ir::PointerType* void_fn_ptr_ty_ = nullptr;
  Function* gadget_ = nullptr;
  Function* legit_ = nullptr;
  Function* vulnerable_ = nullptr;
  GlobalVariable* g_buf_ = nullptr;
  GlobalVariable* g_fp_ = nullptr;
  GlobalVariable* g_victim_ = nullptr;
};

void AppendWordBytes(std::vector<uint8_t>* bytes, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    bytes->push_back(static_cast<uint8_t>(word >> (8 * i)));
  }
}

// Crafts the payload for one attack, given the built module's layout and
// whether the instrumented build carries stack cookies (a real attacker
// adapts the exploit to the target build: the return-address offset shifts
// past the canary slot).
core::Input CraftPayload(const AttackSpec& spec, const TargetOffsets& off,
                         uint64_t gadget_addr, bool stack_cookies) {
  const uint64_t target_offset =
      off.target_offset + (spec.target == Target::kReturnAddress && stack_cookies ? 8 : 0);
  core::Input input;
  switch (spec.technique) {
    case Technique::kDirectOverflow: {
      std::vector<uint8_t> bytes(target_offset, 0x41);  // 'A' filler
      if (spec.target == Target::kVtablePointer) {
        // The buffer itself doubles as the fake vtable: its first word is
        // the gadget address; the overwritten vt field points back at it.
        for (int i = 0; i < 8; ++i) {
          bytes[i] = static_cast<uint8_t>(gadget_addr >> (8 * i));
        }
        AppendWordBytes(&bytes, off.buffer_addr);
      } else {
        AppendWordBytes(&bytes, gadget_addr);
      }
      input.bytes = std::move(bytes);
      break;
    }
    case Technique::kIndexedWrite: {
      std::vector<uint8_t> bytes(target_offset, 0x41);
      if (spec.target == Target::kVtablePointer) {
        for (int i = 0; i < 8; ++i) {
          bytes[i] = static_cast<uint8_t>(gadget_addr >> (8 * i));
        }
        for (int i = 0; i < 8; ++i) {
          bytes.push_back(static_cast<uint8_t>(off.buffer_addr >> (8 * i)));
        }
      } else {
        for (int i = 0; i < 8; ++i) {
          bytes.push_back(static_cast<uint8_t>(gadget_addr >> (8 * i)));
        }
      }
      input.words.push_back(bytes.size());
      for (uint8_t byte : bytes) {
        input.words.push_back(byte);
      }
      break;
    }
    case Technique::kArbitraryWrite: {
      if (spec.target == Target::kVtablePointer) {
        // Two writes: plant the fake vtable in the buffer, then swing the
        // object's vt pointer onto it.
        input.words = {2, off.buffer_addr, gadget_addr, off.target_addr, off.buffer_addr};
      } else {
        input.words = {1, off.target_addr, gadget_addr};
      }
      break;
    }
  }
  return input;
}

}  // namespace

std::unique_ptr<Module> BuildAttackProgram(const AttackSpec& spec) {
  AttackProgramBuilder builder(spec);
  return builder.Build();
}

AttackResult RunAttack(const AttackSpec& spec, const core::Config& config) {
  AttackProgramBuilder builder(spec);
  std::unique_ptr<Module> module = builder.Build();
  const vm::ProgramLayout layout = vm::ComputeProgramLayout(*module);
  const TargetOffsets offsets = builder.Offsets(layout);
  const uint64_t gadget_addr = layout.CodeAddress(builder.gadget());

  core::Compiler(config).Instrument(*module);
  const core::Input payload =
      CraftPayload(spec, offsets, gadget_addr, module->protection().stack_cookies);
  const vm::RunResult run = core::Run(*module, config, payload);

  AttackResult result;
  result.spec = spec;
  result.status = run.status;
  result.violation = run.violation;
  result.message = run.message;
  if (run.OutputContains(kGadgetMarker)) {
    result.outcome = AttackOutcome::kHijacked;
  } else if (run.status == vm::RunStatus::kViolation) {
    result.outcome = AttackOutcome::kPrevented;
  } else if (run.status == vm::RunStatus::kCrash) {
    result.outcome = AttackOutcome::kCrashed;
  } else {
    result.outcome = AttackOutcome::kNoEffect;
  }
  return result;
}

namespace {

// Runs every spec under `config`, one result slot per spec.
std::vector<AttackResult> RunSpecs(const std::vector<AttackSpec>& specs,
                                   const core::Config& config, int jobs) {
  std::vector<AttackResult> results(specs.size());
  ParallelFor(jobs, specs.size(), [&](size_t i) { results[i] = RunAttack(specs[i], config); });
  return results;
}

}  // namespace

std::vector<AttackResult> RunAttackMatrix(const core::Config& config, int jobs) {
  return RunSpecs(GenerateAttackMatrix(), config, jobs);
}

std::vector<AttackResult> RunCrossThreadMatrix(const core::Config& config, int jobs) {
  return RunSpecs(GenerateCrossThreadMatrix(), config, jobs);
}

}  // namespace cpi::attacks
