// Unit tests for the static analyses: the Fig. 7 sensitivity criterion
// (including recursive struct graphs), the CPS restriction, the safe-stack
// escape analysis, and the memory-op classifier with its char* heuristic and
// unsafe-cast dataflow.
#include <gtest/gtest.h>

#include "src/analysis/classify.h"
#include "src/analysis/safe_stack.h"
#include "src/analysis/sensitivity.h"
#include "src/ir/builder.h"

namespace cpi::analysis {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Value;

TEST(SensitivityTest, Fig7TruthTable) {
  Module m("t");
  auto& t = m.types();
  Sensitivity s(m);

  // sensitive(int) = false
  EXPECT_FALSE(s.IsSensitive(t.I64()));
  EXPECT_FALSE(s.IsSensitive(t.I8()));
  EXPECT_FALSE(s.IsSensitive(t.FloatTy()));
  // universal pointers are sensitive
  EXPECT_TRUE(s.IsSensitive(t.VoidPtrTy()));
  EXPECT_TRUE(s.IsSensitive(t.CharPtrTy()));
  // code pointers are sensitive
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  EXPECT_TRUE(s.IsSensitive(t.PointerTo(fn_ty)));
  // pointer-to-sensitive is sensitive (recursion through p*)
  EXPECT_TRUE(s.IsSensitive(t.PointerTo(t.PointerTo(fn_ty))));
  EXPECT_TRUE(s.IsSensitive(t.PointerTo(t.VoidPtrTy())));
  // plain data pointers are not
  EXPECT_FALSE(s.IsSensitive(t.PointerTo(t.I64())));
  EXPECT_FALSE(s.IsSensitive(t.PointerTo(t.PointerTo(t.I64()))));
}

TEST(SensitivityTest, StructWithCodePointerMemberIsSensitive) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.I64(), {});
  StructType* with_fp = t.GetOrCreateStruct("with_fp");
  with_fp->SetBody({{"x", t.I64(), 0}, {"fp", t.PointerTo(fn_ty), 0}});
  StructType* plain = t.GetOrCreateStruct("plain");
  plain->SetBody({{"x", t.I64(), 0}, {"y", t.FloatTy(), 0}});

  Sensitivity s(m);
  EXPECT_TRUE(s.IsSensitive(with_fp));
  EXPECT_TRUE(s.IsSensitive(t.PointerTo(with_fp)));  // the C++-object case
  EXPECT_FALSE(s.IsSensitive(plain));
  EXPECT_FALSE(s.IsSensitive(t.PointerTo(plain)));
  // Arrays inherit their element's sensitivity.
  EXPECT_TRUE(s.IsSensitive(t.ArrayOf(t.PointerTo(fn_ty), 4)));
  EXPECT_FALSE(s.IsSensitive(t.ArrayOf(t.I64(), 4)));
}

TEST(SensitivityTest, RecursiveStructsReachFixpoint) {
  Module m("t");
  auto& t = m.types();
  // Benign cycle: node -> node (no code pointers anywhere).
  StructType* node = t.GetOrCreateStruct("node");
  node->SetBody({{"next", t.PointerTo(node), 0}, {"v", t.I64(), 0}});
  // Mutual cycle where one side holds a function pointer.
  StructType* a = t.GetOrCreateStruct("a");
  StructType* bb = t.GetOrCreateStruct("b");
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  a->SetBody({{"peer", t.PointerTo(bb), 0}});
  bb->SetBody({{"peer", t.PointerTo(a), 0}, {"fp", t.PointerTo(fn_ty), 0}});

  Sensitivity s(m);
  EXPECT_FALSE(s.IsSensitive(node));
  EXPECT_FALSE(s.IsSensitive(t.PointerTo(node)));
  EXPECT_TRUE(s.IsSensitive(a));
  EXPECT_TRUE(s.IsSensitive(bb));
  // Query again in the other order against a fresh analysis (cache paths).
  Sensitivity s2(m);
  EXPECT_TRUE(s2.IsSensitive(bb));
  EXPECT_TRUE(s2.IsSensitive(a));
  EXPECT_FALSE(s2.IsSensitive(node));
}

TEST(SensitivityTest, AnnotatedTypesBecomeSensitive) {
  // §4 "Sensitive data protection": the struct ucred analogue.
  Module m("t");
  auto& t = m.types();
  StructType* ucred = t.GetOrCreateStruct("ucred");
  ucred->SetBody({{"uid", t.I64(), 0}, {"gid", t.I64(), 0}});
  {
    Sensitivity s(m);
    EXPECT_FALSE(s.IsSensitive(ucred));
  }
  m.AnnotateSensitive(ucred);
  {
    Sensitivity s(m);
    EXPECT_TRUE(s.IsSensitive(ucred));
    EXPECT_TRUE(s.IsSensitive(t.PointerTo(ucred)));
  }
}

TEST(SensitivityTest, CpsRestriction) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  StructType* with_fp = t.GetOrCreateStruct("with_fp");
  with_fp->SetBody({{"fp", t.PointerTo(fn_ty), 0}});

  Sensitivity s(m);
  EXPECT_TRUE(s.IsSensitiveForCps(t.PointerTo(fn_ty)));
  EXPECT_TRUE(s.IsSensitiveForCps(t.VoidPtrTy()));
  // CPS leaves pointers-to-code-pointers and object pointers alone (§3.3).
  EXPECT_FALSE(s.IsSensitiveForCps(t.PointerTo(t.PointerTo(fn_ty))));
  EXPECT_FALSE(s.IsSensitiveForCps(t.PointerTo(with_fp)));
}

TEST(SensitivityTest, ContainsCodePointer) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  StructType* vt = t.GetOrCreateStruct("vt");
  vt->SetBody({{"m0", t.PointerTo(fn_ty), 0}});
  StructType* obj = t.GetOrCreateStruct("obj");
  obj->SetBody({{"vt", t.PointerTo(vt), 0}});

  EXPECT_TRUE(ContainsCodePointer(vt));
  EXPECT_TRUE(ContainsCodePointer(t.ArrayOf(t.PointerTo(fn_ty), 8)));
  // obj holds a *pointer to* a vtable, not code pointers themselves.
  EXPECT_FALSE(ContainsCodePointer(obj));
  EXPECT_FALSE(ContainsCodePointer(t.I64()));
}

// --- safe stack ------------------------------------------------------------

struct SafeStackCase {
  const char* name;
  // Builds a function and returns the alloca under test.
  std::function<ir::Instruction*(Module&, IRBuilder&, ir::Function*)> build;
  bool expect_safe;
};

class SafeStackParamTest : public ::testing::TestWithParam<SafeStackCase> {};

TEST_P(SafeStackParamTest, ClassifiesAlloca) {
  const SafeStackCase& c = GetParam();
  Module m("t");
  auto& t = m.types();
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  ir::Instruction* alloca_inst = c.build(m, b, f);
  if (!b.insert_block()->HasTerminator()) {
    b.Ret(b.I64(0));
  }
  SafeStackResult r = AnalyzeSafeStack(*f);
  EXPECT_EQ(r.unsafe_allocas.count(alloca_inst) == 0, c.expect_safe) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    SafeStack, SafeStackParamTest,
    ::testing::Values(
        SafeStackCase{"scalar_load_store_is_safe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().I64());
                        b.Store(b.I64(1), a);
                        b.Load(a);
                        return a;
                      },
                      true},
        SafeStackCase{"constant_index_in_bounds_is_safe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().ArrayOf(m.types().I64(), 4));
                        b.Store(b.I64(1), b.IndexAddr(a, b.I64(3)));
                        return a;
                      },
                      true},
        SafeStackCase{"constant_index_out_of_bounds_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().ArrayOf(m.types().I64(), 4));
                        b.Store(b.I64(1), b.IndexAddr(a, b.I64(4)));
                        return a;
                      },
                      false},
        SafeStackCase{"dynamic_index_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().ArrayOf(m.types().I64(), 4));
                        ir::Value* i = b.Input();
                        b.Store(b.I64(1), b.IndexAddr(a, i));
                        return a;
                      },
                      false},
        SafeStackCase{"address_stored_to_memory_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto& t = m.types();
                        auto* a = b.Alloca(t.I64());
                        auto* holder = b.Alloca(t.PointerTo(t.I64()));
                        b.Store(a, holder);
                        return a;
                      },
                      false},
        SafeStackCase{"address_passed_to_libcall_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().ArrayOf(m.types().CharTy(), 16));
                        ir::Value* p = b.IndexAddr(a, b.I64(0));
                        b.LibCall(ir::LibFunc::kMemset, {p, b.I64(0), b.I64(16)});
                        return a;
                      },
                      false},
        SafeStackCase{"ptrtoint_escape_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().I64());
                        b.PtrToInt(a);
                        return a;
                      },
                      false},
        SafeStackCase{"field_access_through_struct_is_safe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto& t = m.types();
                        StructType* st = t.GetOrCreateStruct("pair");
                        st->SetBody({{"a", t.I64(), 0}, {"b", t.I64(), 0}});
                        auto* obj = b.Alloca(st);
                        b.Store(b.I64(1), b.FieldAddr(obj, "a"));
                        b.Load(b.FieldAddr(obj, "b"));
                        return obj;
                      },
                      true},
        SafeStackCase{"field_address_stored_to_memory_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto& t = m.types();
                        StructType* st = t.GetOrCreateStruct("pair");
                        st->SetBody({{"a", t.I64(), 0}, {"b", t.I64(), 0}});
                        auto* obj = b.Alloca(st);
                        auto* holder = b.Alloca(t.PointerTo(t.I64()));
                        b.Store(b.FieldAddr(obj, "b"), holder);
                        return obj;
                      },
                      false},
        SafeStackCase{"index_of_field_passed_to_libcall_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto& t = m.types();
                        StructType* st = t.GetOrCreateStruct("msg");
                        st->SetBody({{"len", t.I64(), 0}, {"buf", t.ArrayOf(t.CharTy(), 16), 0}});
                        auto* obj = b.Alloca(st);
                        ir::Value* p = b.IndexAddr(b.FieldAddr(obj, "buf"), b.I64(0));
                        b.LibCall(ir::LibFunc::kMemset, {p, b.I64(0), b.I64(16)});
                        return obj;
                      },
                      false},
        SafeStackCase{"derived_address_as_select_arm_is_unsafe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto* a = b.Alloca(m.types().ArrayOf(m.types().I64(), 4));
                        ir::Value* chosen =
                            b.Select(b.Input(), b.IndexAddr(a, b.I64(1)), b.IndexAddr(a, b.I64(2)));
                        b.Load(chosen);
                        return a;
                      },
                      false},
        SafeStackCase{"loaded_value_passed_to_call_and_output_is_safe",
                      [](Module& m, IRBuilder& b, ir::Function*) {
                        auto& t = m.types();
                        ir::Function* sink =
                            m.CreateFunction("sink", t.FunctionTy(t.I64(), {t.I64()}));
                        auto* a = b.Alloca(t.I64());
                        b.Store(b.Input(), a);
                        ir::Value* v = b.Load(a);
                        b.Call(sink, {v});
                        b.Output(v);
                        return a;
                      },
                      true}),
    [](const ::testing::TestParamInfo<SafeStackCase>& info) { return info.param.name; });

// --- classifier --------------------------------------------------------------

TEST(ClassifierTest, FunctionPointerLoadsAreProtectedUnderBoth) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  ir::GlobalVariable* g = m.CreateGlobal("fp", t.PointerTo(fn_ty));
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  ir::Value* load = b.Load(b.GlobalAddr(g));
  (void)load;
  b.Ret(b.I64(0));

  for (Protection p : {Protection::kCpi, Protection::kCps}) {
    ClassifyOptions o;
    o.protection = p;
    Classifier c(m, o);
    const auto& fc = c.ForFunction(f);
    int protected_ops = 0;
    for (const auto& [inst, cls] : fc.mem_ops) {
      if (cls == MemOpClass::kProtected) {
        ++protected_ops;
      }
    }
    EXPECT_EQ(protected_ops, 1) << (p == Protection::kCpi ? "cpi" : "cps");
  }
}

TEST(ClassifierTest, ObjectPointerOpsAreCpiOnlyNotCps) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  StructType* obj = t.GetOrCreateStruct("obj");
  obj->SetBody({{"fp", t.PointerTo(fn_ty), 0}});
  ir::GlobalVariable* g = m.CreateGlobal("slot", t.PointerTo(obj));
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Load(b.GlobalAddr(g));  // loads an obj* (sensitive for CPI, not CPS)
  b.Ret(b.I64(0));

  auto count_protected = [&](Protection p) {
    ClassifyOptions o;
    o.protection = p;
    Classifier c(m, o);
    int n = 0;
    for (const auto& [inst, cls] : c.ForFunction(f).mem_ops) {
      if (cls != MemOpClass::kNone) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_protected(Protection::kCpi), 1);
  EXPECT_EQ(count_protected(Protection::kCps), 0);
}

TEST(ClassifierTest, CharStarHeuristicSuppressesStringOps) {
  Module m("t");
  auto& t = m.types();
  ir::GlobalVariable* msg = m.CreateGlobal("msg", t.ArrayOf(t.CharTy(), 8), true);
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  // A char* that demonstrably holds a string (flows into strlen).
  ir::Value* p = b.IndexAddr(b.GlobalAddr(msg), b.I64(0));
  ir::Value* slot = b.Alloca(t.CharPtrTy());
  b.Store(p, slot);
  b.LibCall(ir::LibFunc::kStrlen, {p});
  b.Ret(b.I64(0));

  auto protected_count = [&](bool heuristic) {
    ClassifyOptions o;
    o.protection = Protection::kCpi;
    o.char_star_heuristic = heuristic;
    Classifier c(m, o);
    int n = 0;
    for (const auto& [inst, cls] : c.ForFunction(f).mem_ops) {
      if (cls != MemOpClass::kNone) {
        ++n;
      }
    }
    return n;
  };
  // With the heuristic the store of the string-y char* is unprotected; the
  // conservative analysis protects it as universal.
  EXPECT_LT(protected_count(true), protected_count(false));
}

TEST(ClassifierTest, CastDataflowTaintsIntSlots) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  // An i64 slot whose value is later cast to a function pointer: the §3.2.1
  // dataflow analysis must instrument its loads/stores.
  ir::Value* slot = b.Alloca(t.I64(), "raw");
  b.Store(b.I64(0), slot);
  ir::Value* raw = b.Load(slot);
  b.IntToPtr(raw, t.PointerTo(fn_ty));
  b.Ret(b.I64(0));

  auto protected_count = [&](bool dataflow) {
    ClassifyOptions o;
    o.protection = Protection::kCpi;
    o.cast_dataflow = dataflow;
    Classifier c(m, o);
    int n = 0;
    for (const auto& [inst, cls] : c.ForFunction(f).mem_ops) {
      if (cls != MemOpClass::kNone) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(protected_count(false), 0);
  EXPECT_GE(protected_count(true), 2);  // the store and the load
}

TEST(ClassifierTest, MemcpyOfSensitiveStructIsChecked) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  StructType* holder = t.GetOrCreateStruct("holder");
  holder->SetBody({{"fp", t.PointerTo(fn_ty), 0}});
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(f->CreateBlock("entry"));
  ir::Value* a = b.Malloc(b.I64(8), t.PointerTo(holder));
  ir::Value* c = b.Malloc(b.I64(8), t.PointerTo(holder));
  ir::Value* ac = b.Bitcast(a, t.CharPtrTy());
  ir::Value* cc = b.Bitcast(c, t.CharPtrTy());
  auto* call = static_cast<ir::Instruction*>(b.LibCall(ir::LibFunc::kMemcpy, {cc, ac, b.I64(8)}));
  b.Ret(b.I64(0));

  ClassifyOptions o;
  Classifier classifier(m, o);
  EXPECT_EQ(classifier.ForFunction(f).checked_libcalls.count(call), 1u);
}

TEST(ClassifierTest, BoundsChecksOnSensitiveDerefRoots) {
  Module m("t");
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  StructType* obj = t.GetOrCreateStruct("obj2");
  obj->SetBody({{"fp", t.PointerTo(fn_ty), 0}, {"count", t.I64(), 0}});
  // main(obj* o) { return o->count; } — the load derefs a sensitive pointer.
  ir::Function* f = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  ir::Function* g = m.CreateFunction("get", t.FunctionTy(t.I64(), {t.PointerTo(obj)}));
  IRBuilder b(&m);
  b.SetInsertPoint(g->CreateBlock("entry"));
  auto* load = static_cast<ir::Instruction*>(b.Load(b.FieldAddr(g->arg(0), "count")));
  b.Ret(load);
  b.SetInsertPoint(f->CreateBlock("entry"));
  b.Ret(b.I64(0));

  ClassifyOptions o;
  Classifier classifier(m, o);
  EXPECT_EQ(classifier.ForFunction(g).needs_bounds_check.count(load), 1u);
  // The load itself moves an i64, so it is not rewritten, only checked.
  EXPECT_EQ(classifier.ForFunction(g).mem_ops.at(load), MemOpClass::kNone);
}

TEST(ModuleStatsTest, PercentagesAreConsistent) {
  ModuleStats s;
  s.total_functions = 4;
  s.unsafe_frame_functions = 1;
  s.total_mem_ops = 200;
  s.instrumented_cpi = 20;
  s.instrumented_cps = 5;
  EXPECT_DOUBLE_EQ(s.FnuStackPercent(), 25.0);
  EXPECT_DOUBLE_EQ(s.MoCpiPercent(), 10.0);
  EXPECT_DOUBLE_EQ(s.MoCpsPercent(), 2.5);
  ModuleStats empty;
  EXPECT_DOUBLE_EQ(empty.FnuStackPercent(), 0.0);
  EXPECT_DOUBLE_EQ(empty.MoCpiPercent(), 0.0);
}

}  // namespace
}  // namespace cpi::analysis
