// Frontend tests: lexing, parse/type errors, and compile-and-run of C-subset
// programs — including the CPI-relevant idioms (function pointers in structs,
// void*, strcpy overflows) that the instrumentation must handle.
#include <gtest/gtest.h>

#include <cctype>

#include "src/core/levee.h"
#include "src/frontend/compile.h"
#include "src/frontend/lexer.h"
#include "src/ir/verifier.h"
#include "src/support/rng.h"

namespace cpi::frontend {
namespace {

std::vector<uint64_t> RunSource(const std::string& source,
                                core::Protection protection = core::Protection::kNone,
                                const core::Input& input = {}) {
  CompileResult cr = CompileC(source);
  EXPECT_TRUE(cr.ok()) << cr.error;
  if (!cr.ok()) {
    return {};
  }
  core::Config config;
  config.protection = protection;
  vm::RunResult r = core::InstrumentAndRun(*cr.module, config, input);
  EXPECT_EQ(r.status, vm::RunStatus::kOk) << r.message;
  return r.output;
}

TEST(LexerTest, TokenisesOperatorsAndKeywords) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Lex("int x = a->b != 0x1F << 2; // comment", &tokens, &error)) << error;
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kInt, TokenKind::kIdentifier, TokenKind::kAssign,
                       TokenKind::kIdentifier, TokenKind::kArrow, TokenKind::kIdentifier,
                       TokenKind::kNe, TokenKind::kIntLiteral, TokenKind::kShl,
                       TokenKind::kIntLiteral, TokenKind::kSemicolon, TokenKind::kEof}));
  EXPECT_EQ(tokens[7].int_value, 0x1Fu);
}

TEST(LexerTest, StringAndCharLiterals) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Lex("\"hi\\n\" 'A' '\\0'", &tokens, &error)) << error;
  EXPECT_EQ(tokens[0].text, "hi\n");
  EXPECT_EQ(tokens[1].int_value, static_cast<uint64_t>('A'));
  EXPECT_EQ(tokens[2].int_value, 0u);
}

TEST(LexerTest, ReportsUnterminatedString) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(Lex("\"oops", &tokens, &error));
  EXPECT_NE(error.find("unterminated"), std::string::npos);
}

TEST(CompileTest, ArithmeticAndControlFlow) {
  auto out = RunSource(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      output(fib(12));
      int sum = 0;
      for (int i = 0; i < 10; i = i + 1) { sum = sum + i * i; }
      output(sum);
      int x = 100;
      while (x > 3) { x = x / 2; }
      output(x);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{144, 285, 3}));
}

TEST(CompileTest, PointersArraysAndStructs) {
  auto out = RunSource(R"(
    struct point { int x; int y; };
    int sum_array(int* a, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
      return s;
    }
    int main() {
      int nums[8];
      for (int i = 0; i < 8; i = i + 1) { nums[i] = i * 3; }
      output(sum_array(nums, 8));

      struct point p;
      p.x = 10;
      p.y = 32;
      struct point* q = &p;
      q->x = q->x + q->y;
      output(p.x);

      int v = 5;
      int* pv = &v;
      *pv = *pv * 9;
      output(v);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{84, 42, 45}));
}

TEST(CompileTest, FunctionPointersAndDispatch) {
  const std::string source = R"(
    struct op { char name[8]; int (*fn)(int, int); };
    struct op table[4];
    int add(int a, int b) { return a + b; }
    int mul(int a, int b) { return a * b; }
    int main() {
      table[0].fn = add;
      table[1].fn = mul;
      int (*f)(int, int);
      f = table[0].fn;
      output(f(20, 22));
      f = table[1].fn;
      output(f(6, 7));
      return 0;
    }
  )";
  for (core::Protection p : {core::Protection::kNone, core::Protection::kCps,
                             core::Protection::kCpi}) {
    EXPECT_EQ(RunSource(source, p), (std::vector<uint64_t>{42, 42})) << static_cast<int>(p);
  }
}

TEST(CompileTest, HeapAndVoidPointers) {
  auto out = RunSource(R"(
    int main() {
      int* cell = (int*)malloc(8);
      *cell = 1234;
      void* erased = (void*)cell;
      int* back = (int*)erased;
      output(*back);
      free(back);
      return 0;
    }
  )",
                       core::Protection::kCpi);
  EXPECT_EQ(out, (std::vector<uint64_t>{1234}));
}

TEST(CompileTest, StringsAndLibc) {
  auto out = RunSource(R"(
    int main() {
      char buf[32];
      strcpy(buf, "hello");
      strcat(buf, " cpi");
      output(strlen(buf));
      output(strcmp(buf, "hello cpi") == 0);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{9, 1}));
}

TEST(CompileTest, InputWordsReachProgram) {
  core::Input input;
  input.words = {7, 35};
  auto out = RunSource(R"(
    int main() {
      int a = input();
      int b = input();
      output(a + b);
      return 0;
    }
  )",
                       core::Protection::kNone, input);
  EXPECT_EQ(out, (std::vector<uint64_t>{42}));
}

TEST(CompileTest, ShortCircuitEvaluation) {
  auto out = RunSource(R"(
    int g;
    int bump() { g = g + 1; return 1; }
    int main() {
      g = 0;
      int r = 0 && bump();
      output(r);
      output(g);      // not bumped
      r = 1 || bump();
      output(r);
      output(g);      // still not bumped
      r = 1 && bump();
      output(r);
      output(g);      // bumped once
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 0, 1, 0, 1, 1}));
}

TEST(CompileTest, VulnerableStrcpyProgramBehavesLikeRipe) {
  // The classic: a strcpy overflow into an adjacent function pointer. Under
  // vanilla the gadget runs; under CPI it cannot.
  const std::string source = R"(
    struct victim { char buf[16]; void (*fp)(); };
    struct victim v;
    void gadget() { output(3735929054); }
    void legit() { output(1); }
    int main() {
      v.fp = legit;
      char payload[64];
      int n = input_bytes(payload, 64);
      strcpy(v.buf, payload);
      v.fp();
      return 0;
    }
  )";
  CompileResult cr = CompileC(source);
  ASSERT_TRUE(cr.ok()) << cr.error;
  const vm::ProgramLayout layout = vm::ComputeProgramLayout(*cr.module);
  const uint64_t gadget = layout.CodeAddress(cr.module->FindFunction("gadget"));

  core::Input payload;
  payload.bytes.assign(16, 0x41);
  for (int i = 0; i < 8; ++i) {
    payload.bytes.push_back(static_cast<uint8_t>(gadget >> (8 * i)));
  }
  payload.bytes.push_back(0);

  {
    core::Config vanilla;
    auto module = CompileC(source).module;
    auto r = core::InstrumentAndRun(*module, vanilla, payload);
    EXPECT_TRUE(r.OutputContains(3735929054ull));  // hijacked
  }
  {
    core::Config config;
    config.protection = core::Protection::kCpi;
    auto module = CompileC(source).module;
    auto r = core::InstrumentAndRun(*module, config, payload);
    EXPECT_FALSE(r.OutputContains(3735929054ull));  // neutralised
  }
}

TEST(CompileTest, ErrorUnknownIdentifier) {
  CompileResult r = CompileC("int main() { return missing; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown identifier"), std::string::npos);
}

TEST(CompileTest, ErrorBadAssignmentTarget) {
  CompileResult r = CompileC("int main() { 3 = 4; return 0; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not assignable"), std::string::npos);
}

TEST(CompileTest, ErrorDerefNonPointer) {
  CompileResult r = CompileC("int main() { int x; return *x; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("non-pointer"), std::string::npos);
}

TEST(CompileTest, ErrorWrongArgCount) {
  CompileResult r = CompileC("int f(int a) { return a; } int main() { return f(); }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("wrong number of arguments"), std::string::npos);
}

TEST(CompileTest, ErrorStructRedefinition) {
  CompileResult r = CompileC("struct s { int a; }; struct s { int b; }; int main() { return 0; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("redefined"), std::string::npos);
}

// Malformed programs are rejected with an error instead of aborting the
// host: each of these once tripped a CPI_CHECK in the builder, the type
// system or the VM.
TEST(CompileTest, ErrorsInsteadOfAbortsOnMalformedPrograms) {
  const struct {
    const char* source;
    const char* error;
  } kCases[] = {
      {"int d(int (*fn)(int)) { return (*fn); } int main() { return 0; }",
       "return type mismatch"},
      {"struct s { int v; struct t x; }; int main() { return 0; }",
       "field 'x': incomplete type struct t"},
      {"struct s { int v; struct s x; }; int main() { return 0; }",
       "field 'x': incomplete type struct s"},
      {"int main() { int x; x = -malloc(8); return 0; }", "invalid operand to unary '-'"},
      {"int main() { struct t v; return 0; }", "variable 'v': incomplete type struct t"},
      {"struct t g; int main() { return 0; }", "global 'g': incomplete type struct t"},
      {"int main() { void* p; p = p + 1; return 0; }", "pointer arithmetic: incomplete type void"},
      {"int main() { return sizeof(struct t); }", "sizeof: incomplete type struct t"},
      {"int main() { int a[0]; return 0; }", "array size must be positive"},
      {"int f() { return 1; } int f() { return 2; } int main() { return 0; }",
       "function 'f' redefined"},
      {"int main() { float f; int* p; f = f + p; return 0; }",
       "invalid operand types for binary operator"},
      {"void f() { } int main() { output(f()); return 0; }", "void value used as a value"},
  };
  for (const auto& c : kCases) {
    CompileResult r = CompileC(c.source);
    EXPECT_FALSE(r.ok()) << c.source;
    EXPECT_NE(r.error.find(c.error), std::string::npos) << c.source << " -> " << r.error;
  }
}

// C's null pointer constant: the literal 0 converts to any pointer type in
// assignment, comparison, return and call arguments.
TEST(CompileTest, NullPointerConstantConvertsToAnyPointer) {
  const char* kSource = R"(
    struct n { struct n* next; int v; };
    struct n* none() { return 0; }
    int is_null(struct n* p) { return p == 0; }
    int twice(int x) { return x * 2; }
    int main() {
      struct n x;
      struct n y;
      x.next = &y;
      x.v = 5;
      y.next = 0;
      y.v = 7;
      int total = 0;
      for (struct n* p = &x; p != 0; p = p->next) { total = total + p->v; }
      output(total);
      output(is_null(0) + is_null(&x) * 10);
      output(none() == 0);
      int (*fp)(int) = 0;
      if (0 == fp) { fp = twice; }
      output(fp(21));
      return 0;
    }
  )";
  for (core::Protection protection : {core::Protection::kNone, core::Protection::kCpi}) {
    for (vm::EngineKind engine :
         {vm::EngineKind::kReference, vm::EngineKind::kDecoded, vm::EngineKind::kFused}) {
      CompileResult cr = CompileC(kSource);
      ASSERT_TRUE(cr.ok()) << cr.error;
      core::Config config;
      config.protection = protection;
      config.engine = engine;
      vm::RunResult r = core::InstrumentAndRun(*cr.module, config);
      ASSERT_EQ(r.status, vm::RunStatus::kOk) << r.message;
      EXPECT_EQ(r.output, (std::vector<uint64_t>{12, 1, 1, 42}))
          << core::ProtectionName(protection) << " on " << vm::EngineKindName(engine);
    }
  }
}

// Only the literal 0 is a null pointer constant: any other integer needs a
// cast, and libc routines take exactly the operand kinds of their row.
TEST(CompileTest, RejectsImplicitIntToPointerAndMistypedLibcalls) {
  const struct {
    const char* source;
    const char* error;
  } kCases[] = {
      {"int main() { int* p; p = 1; return 0; }", "type mismatch in assignment"},
      {"int main() { int* p; int z = 0; p = z; return 0; }", "type mismatch in assignment"},
      {"int main() { int* p = 0; return p == 1; }", "invalid operand types for binary operator"},
      {"int* f() { return 2; } int main() { return 0; }", "return type mismatch"},
      {"int main() { strcpy(1, 2); return 0; }", "strcpy argument 1 must be a pointer"},
      {"int main() { char* p = (char*)malloc(8); memset(p, p, 4); return 0; }",
       "memset argument 2 must be an integer"},
      {"int main() { char b[4]; return strlen(b, 4); }", "strlen takes 1 argument"},
      {"int main() { char b[4]; memcpy(b, b); return 0; }", "memcpy takes 3 arguments"},
      {"int main() { float f; return strlen(f); }", "strlen argument 1 must be a pointer"},
  };
  for (const auto& c : kCases) {
    CompileResult r = CompileC(c.source);
    EXPECT_FALSE(r.ok()) << c.source;
    EXPECT_NE(r.error.find(c.error), std::string::npos) << c.source << " -> " << r.error;
  }
}

// Every declarator site (fields, globals, parameters, locals) parses through
// one function, so an array of function pointers obeys the same positive-size
// rule as any other array.
TEST(CompileTest, DeclaratorsShareOneArrayRule) {
  const char* kRejected[] = {
      "int g(int x) { return x; } int main() { int (*fp[0])(int); fp = g; return fp(3); }",
      "int (*table[0])(int); int main() { return 0; }",
      "struct s { int (*fn[0])(int); }; int main() { return 0; }",
      "int f(int (*fn[0])(int)) { return 0; } int main() { return 0; }",
  };
  for (const char* source : kRejected) {
    CompileResult r = CompileC(source);
    EXPECT_FALSE(r.ok()) << source;
    EXPECT_NE(r.error.find("array size must be positive"), std::string::npos)
        << source << " -> " << r.error;
  }
  auto out = RunSource(R"(
    struct ops { int (*fn[2])(int); char tag[2][3]; };
    struct ops o;
    int (*spare[2])(int);
    int inc(int x) { return x + 1; }
    int dbl(int x) { return x * 2; }
    int apply(int (*f)(int), int x) { return f(x); }
    int main() {
      int (*local[2])(int);
      local[0] = inc;
      o.fn[1] = dbl;
      spare[1] = o.fn[1];
      o.tag[1][2] = 9;
      output(apply(local[0], 1) + spare[1](10) + o.tag[1][2]);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{31}));
}

// As in C, *fn on a function pointer designates the function, which decays
// straight back to the pointer: `g = *fn` and `(*fn)(x)` are plain uses of fn.
TEST(CompileTest, DereferencedFunctionPointerDecaysToItself) {
  auto out = RunSource(R"(
    int twice(int x) { return x * 2; }
    int f(int (*fn)(int)) { int (*g)(int); g = *fn; return (*g)(21); }
    int main() { output(f(twice)); return 0; }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{42}));
}

// Token-level mutants of two small programs (deleted, duplicated, swapped
// and transplanted tokens, fixed seed): each must compile to a module that
// verifies and runs, or fail with an error — never abort the host.
std::vector<std::string> SplitTokens(const std::string& source) {
  static const char* kTwoChar[] = {"->", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>"};
  std::vector<std::string> out;
  size_t i = 0;
  while (i < source.size()) {
    const unsigned char c = static_cast<unsigned char>(source[i]);
    if (std::isspace(c)) {
      ++i;
      continue;
    }
    size_t end = i + 1;
    if (std::isalnum(c) || c == '_') {
      while (end < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[end])) || source[end] == '_')) {
        ++end;
      }
    } else if (c == '"') {
      end = source.find('"', end) + 1;
    } else {
      for (const char* two : kTwoChar) {
        if (source.compare(i, 2, two) == 0) {
          end = i + 2;
        }
      }
    }
    out.push_back(source.substr(i, end - i));
    i = end;
  }
  return out;
}

std::string MutateTokens(const std::vector<std::string>& tokens, Rng& rng) {
  std::vector<std::string> t = tokens;
  const uint64_t edits = 1 + rng.NextBelow(3);
  for (uint64_t e = 0; e < edits && !t.empty(); ++e) {
    const size_t at = rng.NextBelow(t.size());
    const std::string& donor = tokens[rng.NextBelow(tokens.size())];
    switch (rng.NextBelow(5)) {
      case 0:
        t.erase(t.begin() + static_cast<ptrdiff_t>(at));
        break;
      case 1:
        t.insert(t.begin() + static_cast<ptrdiff_t>(at), t[at]);
        break;
      case 2:
        if (at + 1 < t.size()) {
          std::swap(t[at], t[at + 1]);
        }
        break;
      case 3:
        t[at] = donor;
        break;
      default:
        t.insert(t.begin() + static_cast<ptrdiff_t>(at), donor);
        break;
    }
  }
  std::string out;
  for (const std::string& token : t) {
    out += token;
    out += ' ';
  }
  return out;
}

TEST(CompileTest, TokenMutantsCompileCleanlyOrFailWithAnError) {
  const char* kSources[] = {
      R"(
        struct op { char name[8]; int (*fn)(int, int); };
        struct op table[4];
        int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        int main() {
          table[0].fn = add;
          table[1].fn = mul;
          int (*f)(int, int);
          f = table[0].fn;
          output(f(20, 22));
          f = table[1].fn;
          output(f(6, 7));
          return 0;
        }
      )",
      R"(
        struct node;
        struct node { int v; struct node* next; char tag[4]; };
        int twice(int x) { return x * 2; }
        int apply(int (*fn)(int), int x) { return fn(x); }
        int main() {
          struct node* n = (struct node*)malloc(sizeof(struct node));
          n->v = -3;
          n->next = n;
          strcpy(n->tag, "ab");
          int x = apply(twice, n->v) + strlen(n->tag);
          if (x < 0 && n->next == n) { output(-x); }
          free(n);
          return 0;
        }
      )"};
  int compiled = 0;
  int rejected = 0;
  for (const char* source : kSources) {
    const std::vector<std::string> tokens = SplitTokens(source);
    ASSERT_TRUE(CompileC(source).ok());
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      const std::string mutant = MutateTokens(tokens, rng);
      CompileResult r = CompileC(mutant);
      if (!r.ok()) {
        EXPECT_FALSE(r.error.empty()) << mutant;
        ++rejected;
        continue;
      }
      ++compiled;
      EXPECT_EQ(ir::VerifyModule(*r.module), std::vector<std::string>{}) << mutant;
      core::Config config;
      config.max_steps = 100'000;
      core::InstrumentAndRun(*r.module, config);
    }
  }
  EXPECT_EQ(compiled + rejected, 2000);
  EXPECT_GT(compiled, 0);
}

TEST(CompileTest, ForwardDeclaredStructPointersAreUniversal) {
  CompileResult r = CompileC(R"(
    struct opaque;
    struct opaque* stash;
    int main() { return 0; }
  )");
  ASSERT_TRUE(r.ok()) << r.error;
  const ir::Type* t = r.module->FindGlobal("stash")->type();
  EXPECT_TRUE(ir::IsUniversalPointer(t));
}

}  // namespace
}  // namespace cpi::frontend
