// Unit tests for the IR: type interning and layout, universal-pointer
// classification, builder-produced structure, verifier diagnostics, and the
// printer.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/module.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace cpi::ir {
namespace {

TEST(TypeTest, InterningMakesStructurallyEqualTypesPointerEqual) {
  TypeContext ctx;
  EXPECT_EQ(ctx.I64(), ctx.IntTy(64));
  EXPECT_EQ(ctx.PointerTo(ctx.I64()), ctx.PointerTo(ctx.I64()));
  EXPECT_EQ(ctx.ArrayOf(ctx.I8(), 16), ctx.ArrayOf(ctx.I8(), 16));
  EXPECT_NE(ctx.ArrayOf(ctx.I8(), 16), ctx.ArrayOf(ctx.I8(), 17));
  EXPECT_EQ(ctx.FunctionTy(ctx.VoidTy(), {ctx.I64()}), ctx.FunctionTy(ctx.VoidTy(), {ctx.I64()}));
}

TEST(TypeTest, CharIsDistinctFromI8) {
  TypeContext ctx;
  EXPECT_NE(ctx.CharTy(), ctx.I8());
  EXPECT_TRUE(ctx.CharTy()->is_char());
  EXPECT_FALSE(ctx.I8()->is_char());
  EXPECT_EQ(ctx.CharTy()->SizeInBytes(), 1u);
}

TEST(TypeTest, SizesAndAlignment) {
  TypeContext ctx;
  EXPECT_EQ(ctx.I8()->SizeInBytes(), 1u);
  EXPECT_EQ(ctx.I32()->SizeInBytes(), 4u);
  EXPECT_EQ(ctx.I64()->SizeInBytes(), 8u);
  EXPECT_EQ(ctx.FloatTy()->SizeInBytes(), 8u);
  EXPECT_EQ(ctx.PointerTo(ctx.I8())->SizeInBytes(), 8u);
  EXPECT_EQ(ctx.ArrayOf(ctx.I32(), 10)->SizeInBytes(), 40u);
}

TEST(TypeTest, StructLayoutInsertsPadding) {
  TypeContext ctx;
  StructType* st = ctx.GetOrCreateStruct("padded");
  st->SetBody({{"a", ctx.I8(), 0}, {"b", ctx.I64(), 0}, {"c", ctx.I8(), 0}});
  EXPECT_EQ(st->fields()[0].offset, 0u);
  EXPECT_EQ(st->fields()[1].offset, 8u);  // padded to 8-byte alignment
  EXPECT_EQ(st->fields()[2].offset, 16u);
  EXPECT_EQ(st->SizeInBytes(), 24u);  // rounded up to alignment 8
}

TEST(TypeTest, StructsAreNominal) {
  TypeContext ctx;
  StructType* a = ctx.GetOrCreateStruct("node");
  EXPECT_EQ(a, ctx.GetOrCreateStruct("node"));
  EXPECT_TRUE(a->is_opaque());
  a->SetBody({{"next", ctx.PointerTo(a), 0}});
  EXPECT_FALSE(a->is_opaque());
  EXPECT_EQ(a->SizeInBytes(), 8u);
}

TEST(TypeTest, UniversalPointerClassification) {
  TypeContext ctx;
  EXPECT_TRUE(IsUniversalPointer(ctx.VoidPtrTy()));
  EXPECT_TRUE(IsUniversalPointer(ctx.CharPtrTy()));
  EXPECT_FALSE(IsUniversalPointer(ctx.PointerTo(ctx.I8())));  // i8* is not char*
  EXPECT_FALSE(IsUniversalPointer(ctx.PointerTo(ctx.I64())));
  EXPECT_FALSE(IsUniversalPointer(ctx.I64()));

  // Pointers to opaque (forward-declared) structs are universal; once the
  // struct gets a body they are not.
  StructType* fwd = ctx.GetOrCreateStruct("fwd");
  EXPECT_TRUE(IsUniversalPointer(ctx.PointerTo(fwd)));
  fwd->SetBody({{"x", ctx.I64(), 0}});
  EXPECT_FALSE(IsUniversalPointer(ctx.PointerTo(fwd)));
}

TEST(TypeTest, CodePointerClassification) {
  TypeContext ctx;
  const FunctionType* fn = ctx.FunctionTy(ctx.VoidTy(), {});
  EXPECT_TRUE(IsCodePointer(ctx.PointerTo(fn)));
  EXPECT_FALSE(IsCodePointer(ctx.PointerTo(ctx.I64())));
  EXPECT_FALSE(IsCodePointer(ctx.I64()));
}

// Builds: i64 main() { i64 x = 2; return x + 40; }
std::unique_ptr<Module> BuildAddModule() {
  auto m = std::make_unique<Module>("add");
  auto& types = m->types();
  Function* main = m->CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(m.get());
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* slot = b.Alloca(types.I64(), "x");
  b.Store(b.I64(2), slot);
  Value* x = b.Load(slot);
  Value* sum = b.Add(x, b.I64(40));
  b.Ret(sum);
  return m;
}

TEST(BuilderTest, BuildsWellFormedFunction) {
  auto m = BuildAddModule();
  EXPECT_TRUE(IsValid(*m));
  Function* main = m->FindFunction("main");
  ASSERT_NE(main, nullptr);
  EXPECT_EQ(main->blocks().size(), 1u);
  EXPECT_EQ(main->InstructionCount(), 5u);
}

TEST(BuilderTest, RenumberAssignsDenseIds) {
  auto m = BuildAddModule();
  Function* main = m->FindFunction("main");
  uint32_t n = main->RenumberValues();
  EXPECT_EQ(n, 5u);  // no args, five instructions
  uint32_t expected = 0;
  for (const auto& bb : main->blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      EXPECT_EQ(inst->value_id(), expected++);
    }
  }
}

TEST(BuilderTest, LoadInfersPointeeType) {
  Module m("t");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* p = b.Alloca(types.I32());
  Value* v = b.Load(p);
  EXPECT_EQ(v->type(), types.I32());
  b.Ret(b.I64(0));
}

TEST(BuilderTest, IndexAddrOnArrayDecays) {
  Module m("t");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* arr = b.Alloca(types.ArrayOf(types.I32(), 8));
  Value* elem = b.IndexAddr(arr, b.I64(3));
  EXPECT_EQ(elem->type(), types.PointerTo(types.I32()));
  // Pointer arithmetic keeps the element pointer type.
  Value* next = b.IndexAddr(elem, b.I64(1));
  EXPECT_EQ(next->type(), elem->type());
  b.Ret(b.I64(0));
}

TEST(BuilderTest, FieldAddrByName) {
  Module m("t");
  auto& types = m.types();
  StructType* st = types.GetOrCreateStruct("pair");
  st->SetBody({{"first", types.I64(), 0}, {"second", types.FloatTy(), 0}});
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* obj = b.Alloca(st);
  Value* second = b.FieldAddr(obj, "second");
  EXPECT_EQ(second->type(), types.PointerTo(types.FloatTy()));
  b.Ret(b.I64(0));
}

TEST(VerifierTest, DetectsMissingTerminator) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Alloca(types.I64());
  auto errors = VerifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, DetectsMissingMain) {
  Module m("nomain");
  auto& types = m.types();
  Function* f = m.CreateFunction("helper", types.FunctionTy(types.VoidTy(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Ret();
  auto errors = VerifyModule(m);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("main"), std::string::npos);
}

TEST(VerifierTest, DetectsStoreTypeMismatch) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* slot = b.Alloca(types.I32());
  // Manually build an ill-typed store (the builder has no type check here on
  // purpose: the verifier is the gate).
  b.Store(b.I64(1), slot);
  b.Ret(b.I64(0));
  auto errors = VerifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("store"), std::string::npos);
}

TEST(VerifierTest, DetectsCrossFunctionValueUse) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  Function* g = m.CreateFunction("g", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* x = b.Alloca(types.I64());
  Value* v = b.Load(x);
  b.Ret(v);
  b.SetInsertPoint(g->CreateBlock("entry"));
  // Illegally reference a value defined in main.
  Instruction* ret = g->CreateInstruction(Opcode::kRet, types.VoidTy());
  ret->AddOperand(v);
  b.insert_block()->Append(ret);
  auto errors = VerifyModule(m);
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const auto& e : errors) {
    if (e.find("another function") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The verifier's per-function ownership sets hold only the function being
// verified: a use of another function's argument is rejected too.
TEST(VerifierTest, DetectsUseOfAnotherFunctionsArgument) {
  Module m("bad");
  auto& types = m.types();
  Function* helper = m.CreateFunction("helper", types.FunctionTy(types.I64(), {types.I64()}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(helper->CreateBlock("entry"));
  b.Ret(helper->arg(0));
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.Ret(helper->arg(0));
  EXPECT_EQ(VerifyModule(m),
            std::vector<std::string>{"main/entry: ret uses a value from another function"});
}

// A value defined in a function verified *after* its user is rejected, and
// the defining function's own uses stay valid: the sets neither leak forward
// nor start out holding later functions' values.
TEST(VerifierTest, DetectsUseOfAValueDefinedInALaterFunction) {
  Module m("bad");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  Function* g = m.CreateFunction("g", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(g->CreateBlock("entry"));
  Value* v = b.Load(b.Alloca(types.I64()));
  b.Ret(v);
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.Ret(v);
  EXPECT_EQ(VerifyModule(m),
            std::vector<std::string>{"main/entry: ret uses a value from another function"});
}

TEST(VerifierTest, DetectsBranchToAnotherFunctionsBlock) {
  Module m("bad");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  Function* g = m.CreateFunction("g", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* g_entry = g->CreateBlock("entry");
  b.SetInsertPoint(g_entry);
  b.Ret(b.I64(0));
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.Br(g_entry);
  EXPECT_EQ(VerifyModule(m),
            std::vector<std::string>{"main/entry: branch to a block of another function"});
}

// Golden diagnostics: every error of a module with faults in several blocks
// of two functions, with the exact text and in the exact order (functions,
// then blocks, then instructions, then the per-instruction checks in
// operand / successor / opcode order; the missing main last).
TEST(VerifierTest, ReportsEveryErrorInOrder) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("f", types.FunctionTy(types.I64(), {types.I64()}));
  m.CreateFunction("empty", types.FunctionTy(types.VoidTy(), {}));
  Function* work = m.CreateFunction("work", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);

  BasicBlock* f_entry = f->CreateBlock("entry");
  BasicBlock* f_next = f->CreateBlock("next");
  f->CreateBlock("hole");
  b.SetInsertPoint(f_entry);
  Value* slot = b.Alloca(types.I32());
  b.Store(b.I64(1), slot);
  b.Cast(CastKind::kBitcast, b.I64(1), types.PointerTo(types.I64()));
  b.Br(f_next);
  b.SetInsertPoint(f_next);
  b.Ret(b.I64(0));
  b.Alloca(types.I64());

  BasicBlock* work_entry = work->CreateBlock("entry");
  BasicBlock* work_exit = work->CreateBlock("exit");
  b.SetInsertPoint(work_entry);
  b.Load(slot);
  b.Br(f_next);
  b.SetInsertPoint(work_exit);
  b.Ret(f->arg(0));

  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "f/entry: store value type does not match pointee",
                                 "f/entry: bitcast requires pointer types",
                                 "f/next: block does not end in a terminator",
                                 "f/next: terminator in the middle of a block",
                                 "f/hole: empty block",
                                 "empty: function has no blocks",
                                 "work/entry: load uses a value from another function",
                                 "work/entry: branch to a block of another function",
                                 "work/exit: ret uses a value from another function",
                                 "module: no main function",
                             }));
}

TEST(VerifierTest, VerifyOrDiePrintsEveryErrorAfterItsContext) {
  Module m("nomain");
  auto& types = m.types();
  Function* f = m.CreateFunction("helper", types.FunctionTy(types.VoidTy(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Ret();
  EXPECT_DEATH(VerifyOrDie(m, "after pass dce"), "after pass dce: module: no main function");
}

// One signature row per intrinsic and libcall, in enum order, with distinct
// names (intrinsics.cc static_asserts the counts and the order).
TEST(SignatureTableTest, EveryCalleeHasOneRowWithADistinctName) {
  std::set<std::string> names;
  for (size_t i = 0; i < kIntrinsicCount; ++i) {
    const auto id = static_cast<IntrinsicId>(i);
    EXPECT_EQ(Info(id).id, id);
    EXPECT_TRUE(names.insert(IntrinsicName(id)).second) << IntrinsicName(id);
  }
  for (size_t i = 0; i < kLibFuncCount; ++i) {
    const auto f = static_cast<LibFunc>(i);
    const LibFuncInfo& row = Info(f);
    EXPECT_EQ(row.id, f);
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_EQ(FindLibFunc(row.name), &row);
    EXPECT_EQ(std::string(row.operands).find_first_not_of("pi"), std::string::npos);
    EXPECT_EQ(row.operands[0], 'p') << row.name;  // every routine takes a buffer first
  }
  EXPECT_EQ(FindLibFunc("printf"), nullptr);
}

// Libcalls are checked against their row: arity, and a pointer or an
// integer in every operand.
TEST(VerifierTest, ChecksLibcallOperandsAgainstTheirSignature) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* buf = b.Alloca(types.ArrayOf(types.CharTy(), 8));
  Value* p = b.IndexAddr(buf, b.I64(0));
  b.LibCall(LibFunc::kStrcpy, {b.I64(1), b.I64(2)});
  b.LibCall(LibFunc::kStrlen, {p, p});
  b.LibCall(LibFunc::kMemset, {p, p, b.I64(4)});
  b.LibCall(LibFunc::kMemcpy, {p, p, b.I64(4)});  // well-formed
  Instruction* strlen_ptr = f->CreateInstruction(Opcode::kLibCall, p->type());
  strlen_ptr->set_lib_func(LibFunc::kStrlen);
  strlen_ptr->AddOperand(p);
  b.insert_block()->Append(strlen_ptr);
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: strcpy: operand 0 must be a pointer",
                                 "main/entry: strcpy: operand 1 must be a pointer",
                                 "main/entry: strlen: expected 1 operands, got 2",
                                 "main/entry: memset: operand 1 must be an integer",
                                 "main/entry: strlen: result type does not match its signature",
                             }));
}

// Each intrinsic shape has its own operand and result checks.
TEST(VerifierTest, ChecksIntrinsicsAgainstTheirShape) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  Value* slot = b.Alloca(types.I64());
  Value* fp = b.FuncAddr(f);
  b.Intrinsic(IntrinsicId::kSealStore, types.I64(), {slot, b.I64(1)});
  b.Intrinsic(IntrinsicId::kCpsLoad, types.VoidTy(), {b.I64(8)});
  b.Intrinsic(IntrinsicId::kSbCheck, types.VoidTy(), {slot, slot});
  b.Intrinsic(IntrinsicId::kCfiCheck, types.I64(), {fp});
  b.Intrinsic(IntrinsicId::kCpiAssertCode, fp->type(), {fp});  // well-formed
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: seal_store: store intrinsic must produce void",
                                 "main/entry: cps_load: operand 0 must be a pointer",
                                 "main/entry: cps_load: load intrinsic must produce a scalar",
                                 "main/entry: sb_check: operand 1 must be an integer",
                                 "main/entry: cfi_check: assert result type must match its operand",
                             }));
}

TEST(VerifierTest, DetectsBadCast) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Cast(CastKind::kBitcast, b.I64(1), types.PointerTo(types.I64()));  // int -> ptr via bitcast
  b.Ret(b.I64(0));
  auto errors = VerifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("bitcast"), std::string::npos);
}

TEST(VerifierTest, DetectsCallArgumentMismatch) {
  Module m("bad");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {types.I64()}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(0));

  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* call = main->CreateInstruction(Opcode::kCall, types.I64());
  call->set_callee(callee);  // zero args for a one-arg function
  b.insert_block()->Append(call);
  b.Ret(b.I64(0));
  auto errors = VerifyModule(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("argument count"), std::string::npos);
}

TEST(VerifierTest, DetectsCallResultTypeMismatch) {
  Module m("bad");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {types.I64()}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(callee->arg(0));

  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* call = main->CreateInstruction(Opcode::kCall, types.I32());  // callee gives i64
  call->set_callee(callee);
  call->AddOperand(b.I64(1));
  b.insert_block()->Append(call);
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: call result type does not match callee return type",
                             }));
}

TEST(VerifierTest, DetectsIndirectCallTypeMismatch) {
  Module m("bad");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {types.I64()}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(callee->arg(0));

  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* fnptr = b.FuncAddr(callee);
  // Right result type, but a float where the pointee type takes an i64.
  Instruction* bad_arg = main->CreateInstruction(Opcode::kIndirectCall, types.I64());
  bad_arg->AddOperand(fnptr);
  bad_arg->AddOperand(b.F64(1.0));
  b.insert_block()->Append(bad_arg);
  // Right argument, but a pointer result where the pointee type returns i64.
  Instruction* bad_result =
      main->CreateInstruction(Opcode::kIndirectCall, types.PointerTo(types.I64()));
  bad_result->AddOperand(fnptr);
  bad_result->AddOperand(b.I64(1));
  b.insert_block()->Append(bad_result);
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m),
            (std::vector<std::string>{
                "main/entry: indirect call argument 0 type mismatch",
                "main/entry: indirect call result type does not match callee return type",
            }));
}

TEST(VerifierTest, DetectsSelectResultTypeMismatch) {
  Module m("bad");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* select = main->CreateInstruction(Opcode::kSelect, types.I32());  // arms are i64
  select->AddOperand(b.Input());
  select->AddOperand(b.I64(1));
  select->AddOperand(b.I64(2));
  b.insert_block()->Append(select);
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: select result type does not match its arms",
                             }));
}

TEST(VerifierTest, DetectsFieldAddrResultTypeMismatch) {
  Module m("bad");
  auto& types = m.types();
  StructType* pair = types.GetOrCreateStruct("pair");
  pair->SetBody({{"a", types.I64(), 0}, {"b", types.I64(), 0}});
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* obj = b.Alloca(pair);
  // A pointer to the wrong type, then not a pointer at all.
  for (const Type* result : {static_cast<const Type*>(types.PointerTo(types.I32())),
                             static_cast<const Type*>(types.I64())}) {
    Instruction* field = main->CreateInstruction(Opcode::kFieldAddr, result);
    field->set_field_index(1);
    field->AddOperand(obj);
    b.insert_block()->Append(field);
  }
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: fieldaddr result is not a pointer to the field type",
                                 "main/entry: fieldaddr result is not a pointer to the field type",
                             }));
}

// Objects and pointer arithmetic need a sized type: an alloca or global of an
// opaque struct, or an index through void*, would abort the VM's layout and
// decode, so the verifier rejects them.
TEST(VerifierTest, DetectsUnsizedAllocaGlobalAndIndex) {
  Module m("bad");
  auto& types = m.types();
  StructType* opaque = types.GetOrCreateStruct("t");
  m.CreateGlobal("g", opaque, /*is_const=*/false);
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.Alloca(opaque, "v");
  b.IndexAddr(b.Malloc(b.I64(8), types.VoidPtrTy()), b.I64(1));
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "global @g: unsized type struct t",
                                 "main/entry: alloca of unsized type struct t",
                                 "main/entry: index into unsized type void",
                             }));
}

// A void call result is not a value: using it as an operand once reached
// the VM as register -1.
TEST(VerifierTest, DetectsVoidOperand) {
  Module m("bad");
  auto& types = m.types();
  Function* f = m.CreateFunction("f", types.FunctionTy(types.VoidTy(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Ret();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.Output(b.Call(f, {}));
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: output uses a void value",
                             }));
}

// The verifier's ownership contract: an operand must be resident in a block
// of the using function. An instruction the function created but never
// placed is not.
TEST(VerifierTest, UnplacedInstructionIsNotOwned) {
  Module m("bad");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* unplaced = main->CreateInstruction(Opcode::kInput, types.I64());
  b.Output(unplaced);
  b.Ret(b.I64(0));
  EXPECT_EQ(VerifyModule(m), (std::vector<std::string>{
                                 "main/entry: output uses a value from another function",
                             }));
}

// Thousands of values and blocks in one function, then one foreign use at
// its very end: the ownership set must hold them all and still miss the
// foreign value.
TEST(VerifierTest, LargeFunctionFindsOneForeignUseAtItsEnd) {
  constexpr int kBlocks = 1000;
  for (const bool foreign_use : {false, true}) {
    Module m("large");
    auto& types = m.types();
    Function* helper = m.CreateFunction("helper", types.FunctionTy(types.I64(), {types.I64()}));
    IRBuilder b(&m);
    b.SetInsertPoint(helper->CreateBlock("entry"));
    b.Ret(helper->arg(0));

    Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
    b.SetInsertPoint(main->CreateBlock("entry"));
    Value* acc = b.Input();
    for (int i = 0; i < kBlocks; ++i) {
      for (int j = 0; j < 4; ++j) {
        acc = b.Add(acc, b.I64(static_cast<uint64_t>(i * 4 + j)));
      }
      BasicBlock* next = main->CreateBlock("b" + std::to_string(i));
      b.Br(next);
      b.SetInsertPoint(next);
    }
    if (foreign_use) {
      acc = b.Add(acc, helper->arg(0));
    }
    b.Ret(acc);
    ASSERT_GT(main->InstructionCount(), 5000u);

    const std::vector<std::string> expected =
        foreign_use ? std::vector<std::string>{"main/b" + std::to_string(kBlocks - 1) +
                                               ": binop uses a value from another function"}
                    : std::vector<std::string>{};
    EXPECT_EQ(VerifyModule(m), expected) << "foreign_use=" << foreign_use;
  }
}

TEST(PrinterTest, PrintsReadableFunction) {
  auto m = BuildAddModule();
  m->FindFunction("main")->RenumberValues();
  std::string text = PrintModule(*m);
  EXPECT_NE(text.find("func @main()"), std::string::npos);
  EXPECT_NE(text.find("alloca i64"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(ModuleTest, ComputeAddressTaken) {
  Module m("t");
  auto& types = m.types();
  Function* taken = m.CreateFunction("taken", types.FunctionTy(types.VoidTy(), {}));
  Function* not_taken = m.CreateFunction("not_taken", types.FunctionTy(types.VoidTy(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(taken->CreateBlock("entry"));
  b.Ret();
  b.SetInsertPoint(not_taken->CreateBlock("entry"));
  b.Ret();
  b.SetInsertPoint(main->CreateBlock("entry"));
  b.FuncAddr(taken);
  b.Ret(b.I64(0));

  m.ComputeAddressTaken();
  EXPECT_TRUE(taken->address_taken());
  EXPECT_FALSE(not_taken->address_taken());
}

TEST(ModuleTest, ConstGlobalsKeepInitializer) {
  Module m("t");
  auto& types = m.types();
  GlobalVariable* g = m.CreateGlobal("msg", types.ArrayOf(types.CharTy(), 6), /*is_const=*/true);
  g->set_initializer({'h', 'e', 'l', 'l', 'o', 0});
  EXPECT_TRUE(g->is_const());
  EXPECT_EQ(g->initializer().size(), 6u);
  EXPECT_EQ(m.FindGlobal("msg"), g);
}

}  // namespace
}  // namespace cpi::ir
