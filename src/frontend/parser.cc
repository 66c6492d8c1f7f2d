// Recursive-descent parser and IR lowering for the Appendix-A C subset.
//
// The parser is single-pass per function body but two-pass over the top
// level: first struct bodies, global variables and function signatures are
// collected, then function bodies are lowered. Expressions are lowered with
// an lvalue/rvalue discipline: an lvalue carries the *address* of the
// object; loads materialise only when the value is needed.
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "src/frontend/compile.h"
#include "src/frontend/lexer.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"

namespace cpi::frontend {
namespace {

using ir::BasicBlock;
using ir::BinOp;
using ir::CastKind;
using ir::Function;
using ir::GlobalVariable;
using ir::IRBuilder;
using ir::Module;
using ir::StructType;
using ir::Type;
using ir::Value;

struct ExprValue {
  Value* value = nullptr;     // rvalue, or the address when is_lvalue
  const Type* type = nullptr; // the value's C type (not the address type)
  bool is_lvalue = false;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::string& module_name)
      : tokens_(std::move(tokens)),
        module_(std::make_unique<Module>(module_name)),
        builder_(module_.get()) {}

  CompileResult Run() {
    // Pass 1: collect top-level declarations.
    while (!AtEnd() && ok()) {
      ParseTopLevel(/*bodies=*/false);
    }
    // Pass 2: lower function bodies.
    pos_ = 0;
    pass_two_ = true;
    while (!AtEnd() && ok()) {
      ParseTopLevel(/*bodies=*/true);
    }

    CompileResult result;
    if (!ok()) {
      result.error = error_;
      return result;
    }
    const std::vector<std::string> errors = ir::VerifyModule(*module_);
    if (!errors.empty()) {
      result.error = "internal lowering error: " + errors.front();
      return result;
    }
    result.module = std::move(module_);
    return result;
  }

 private:
  // --- token plumbing ------------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEof; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (Check(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Token Expect(TokenKind kind, const char* what) {
    if (!Check(kind)) {
      Fail(std::string("expected ") + what + ", got '" + TokenKindName(Peek().kind) + "'");
      return Token{};
    }
    return tokens_[pos_++];
  }
  bool ok() const { return error_.empty(); }
  void Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "line " + std::to_string(Peek().line) + ": " + message;
    }
  }

  // --- types ---------------------------------------------------------------
  static bool IsScalar(const Type* type) {
    return type->IsInt() || type->IsFloat() || type->IsPointer();
  }
  static bool IsArithmetic(const Type* type) { return type->IsInt() || type->IsFloat(); }

  // Fails unless `type` has a size (ir::IsSized): objects, fields and
  // pointer arithmetic need one. A no-op once an error is recorded.
  void RequireSized(const Type* type, const std::string& what) {
    if (ok() && !ir::IsSized(type)) {
      Fail(what + ": incomplete type " + type->ToString());
    }
  }

  bool StartsType() const {
    switch (Peek().kind) {
      case TokenKind::kInt:
      case TokenKind::kChar:
      case TokenKind::kVoid:
      case TokenKind::kFloat:
      case TokenKind::kStruct:
      case TokenKind::kConst:
        return true;
      default:
        return false;
    }
  }

  // Parses a base type plus pointer stars: `int**`, `struct s*`, `void*`.
  const Type* ParseType() {
    Match(TokenKind::kConst);
    const Type* base = nullptr;
    auto& t = module_->types();
    if (Match(TokenKind::kInt)) {
      base = t.I64();
    } else if (Match(TokenKind::kChar)) {
      base = t.CharTy();
    } else if (Match(TokenKind::kVoid)) {
      base = t.VoidTy();
    } else if (Match(TokenKind::kFloat)) {
      base = t.FloatTy();
    } else if (Match(TokenKind::kStruct)) {
      Token name = Expect(TokenKind::kIdentifier, "struct name");
      if (!ok()) {
        return nullptr;
      }
      base = t.GetOrCreateStruct(name.text);
    } else {
      Fail("expected a type");
      return nullptr;
    }
    while (Match(TokenKind::kStar)) {
      base = t.PointerTo(base);
    }
    return base;
  }

  // The declarator after a base type, as struct fields, globals, parameters
  // and locals spell it: `name` and, when `arrays` is set, `name[N]...`; or a
  // function pointer `(*name)(params)`, or an array of them
  // `(*name[N])(params)`. Every array size must be a positive integer
  // literal. Fills `name` and returns the declared type (nullptr after an
  // error). `what` names the plain identifier in errors.
  const Type* ParseDeclarator(const Type* base, const char* what, bool arrays,
                              std::string* name) {
    auto& t = module_->types();
    const bool fn_ptr = Match(TokenKind::kLParen);
    if (fn_ptr) {
      Expect(TokenKind::kStar, "*");
    }
    *name = Expect(TokenKind::kIdentifier, fn_ptr ? "declarator name" : what).text;
    const size_t max_dims = fn_ptr ? 1 : arrays ? SIZE_MAX : 0;
    std::vector<uint64_t> dims;
    while (ok() && dims.size() < max_dims && Match(TokenKind::kLBracket)) {
      Token n = Expect(TokenKind::kIntLiteral, "array size");
      Expect(TokenKind::kRBracket, "]");
      if (ok() && n.int_value == 0) {
        Fail("array size must be positive");
      }
      dims.push_back(n.int_value);
    }
    if (fn_ptr) {
      Expect(TokenKind::kRParen, ")");
      Expect(TokenKind::kLParen, "(");
      std::vector<const Type*> params;
      if (ok() && !Check(TokenKind::kRParen)) {
        do {
          params.push_back(ParseType());
          // Parameter names in prototypes are optional.
          Match(TokenKind::kIdentifier);
        } while (ok() && Match(TokenKind::kComma));
      }
      Expect(TokenKind::kRParen, ")");
      if (ok()) {
        base = t.PointerTo(t.FunctionTy(base, std::move(params)));
      }
    }
    if (!ok()) {
      return nullptr;
    }
    for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
      base = t.ArrayOf(base, *it);
    }
    return base;
  }

  // --- top level -------------------------------------------------------------
  void ParseTopLevel(bool bodies) {
    if (Check(TokenKind::kStruct) && Peek(1).kind == TokenKind::kIdentifier &&
        Peek(2).kind == TokenKind::kLBrace) {
      ParseStructDecl(bodies);
      return;
    }
    if (Check(TokenKind::kStruct) && Peek(1).kind == TokenKind::kIdentifier &&
        Peek(2).kind == TokenKind::kSemicolon) {
      // Forward declaration: `struct s;` — creates an opaque struct.
      ++pos_;
      Token name = Expect(TokenKind::kIdentifier, "struct name");
      Expect(TokenKind::kSemicolon, ";");
      if (ok() && !pass_two_) {
        module_->types().GetOrCreateStruct(name.text);
      }
      return;
    }
    ParseGlobalOrFunction(bodies);
  }

  void ParseStructDecl(bool bodies) {
    (void)bodies;  // struct bodies are fully handled in pass one
    Expect(TokenKind::kStruct, "struct");
    Token name = Expect(TokenKind::kIdentifier, "struct name");
    Expect(TokenKind::kLBrace, "{");
    std::vector<ir::StructField> fields;
    while (ok() && !Check(TokenKind::kRBrace)) {
      const Type* base = ParseType();
      if (!ok()) {
        return;
      }
      std::string field_name;
      const Type* field_type = ParseDeclarator(base, "field name", true, &field_name);
      Expect(TokenKind::kSemicolon, ";");
      RequireSized(field_type, "field '" + field_name + "'");
      if (!ok()) {
        return;
      }
      fields.push_back({field_name, field_type, 0});
    }
    Expect(TokenKind::kRBrace, "}");
    Expect(TokenKind::kSemicolon, ";");
    if (ok() && !pass_two_) {
      StructType* st = module_->types().GetOrCreateStruct(name.text);
      if (!st->is_opaque()) {
        Fail("struct " + name.text + " redefined");
        return;
      }
      st->SetBody(std::move(fields));
    }
  }

  void ParseGlobalOrFunction(bool bodies) {
    const bool is_const = Check(TokenKind::kConst);
    const Type* base = ParseType();
    if (!ok()) {
      return;
    }

    if (Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kLParen) {
      const std::string name = tokens_[pos_++].text;
      ParseFunction(base, name, bodies);
      return;
    }

    // Global variable. Its type must be complete by the end of the file
    // (C's tentative definition), so it is checked in pass two.
    std::string name;
    const Type* var_type = ParseDeclarator(base, "name", true, &name);
    Expect(TokenKind::kSemicolon, ";");
    if (ok() && !pass_two_) {
      if (module_->FindGlobal(name) != nullptr) {
        Fail("global '" + name + "' redefined");
        return;
      }
      module_->CreateGlobal(name, var_type, is_const);
    }
    if (ok() && pass_two_) {
      RequireSized(var_type, "global '" + name + "'");
    }
  }

  void ParseFunction(const Type* ret, const std::string& name, bool bodies) {
    auto& t = module_->types();
    Expect(TokenKind::kLParen, "(");
    std::vector<const Type*> param_types;
    std::vector<std::string> param_names;
    if (!Check(TokenKind::kRParen)) {
      do {
        const Type* p = ParseType();
        if (!ok()) {
          return;
        }
        std::string pname;
        param_types.push_back(ParseDeclarator(p, "parameter name", false, &pname));
        param_names.push_back(pname);
      } while (Match(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, ")");
    if (!ok()) {
      return;
    }

    for (size_t i = 0; i < param_types.size(); ++i) {
      RequireSized(param_types[i], "parameter '" + param_names[i] + "'");
    }
    if (ok() && !ret->IsVoid() && !IsScalar(ret)) {
      Fail("function '" + name + "' must return a scalar or void");
    }
    if (!ok()) {
      return;
    }

    Function* fn = nullptr;
    if (!pass_two_) {
      if (module_->FindFunction(name) != nullptr) {
        Fail("function '" + name + "' redefined");
        return;
      }
      fn = module_->CreateFunction(name, t.FunctionTy(ret, param_types));
    } else {
      fn = module_->FindFunction(name);
      CPI_CHECK(fn != nullptr);
    }

    Expect(TokenKind::kLBrace, "{");
    if (!ok()) {
      return;
    }
    if (!bodies) {
      // Skip over the body, tracking brace depth.
      int depth = 1;
      while (depth > 0 && !AtEnd()) {
        if (Check(TokenKind::kLBrace)) {
          ++depth;
        } else if (Check(TokenKind::kRBrace)) {
          --depth;
        }
        ++pos_;
      }
      return;
    }

    // --- lower the body -----------------------------------------------------
    function_ = fn;
    alloca_block_ = fn->CreateBlock("entry");
    BasicBlock* body = fn->CreateBlock("body");
    builder_.SetInsertPoint(body);
    scopes_.clear();
    PushScope();
    for (size_t i = 0; i < param_names.size(); ++i) {
      // Parameters are spilled into locals so their address can be taken.
      ir::Instruction* slot = EmitAlloca(param_types[i], param_names[i]);
      builder_.Store(fn->arg(i), slot);
      DeclareLocal(param_names[i], slot, param_types[i]);
    }
    ParseBlockStatements();
    PopScope();

    // Seal the function: fall-through returns, and the alloca block.
    if (!builder_.insert_block()->HasTerminator()) {
      if (ret->IsVoid()) {
        builder_.Ret();
      } else if (ret->IsFloat()) {
        builder_.Ret(builder_.F64(0.0));
      } else if (ret->IsPointer()) {
        builder_.Ret(builder_.Null(ret));
      } else {
        builder_.Ret(module_->GetConstInt(ret, 0));
      }
    }
    BasicBlock* saved = builder_.insert_block();
    builder_.SetInsertPoint(alloca_block_);
    builder_.Br(body);
    builder_.SetInsertPoint(saved);
    function_ = nullptr;
  }

  // --- scopes ----------------------------------------------------------------
  struct LocalVar {
    Value* address = nullptr;  // alloca or global address
    const Type* type = nullptr;
  };

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }
  void DeclareLocal(const std::string& name, Value* address, const Type* type) {
    scopes_.back()[name] = LocalVar{address, type};
  }
  const LocalVar* LookupLocal(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &found->second;
      }
    }
    return nullptr;
  }

  ir::Instruction* EmitAlloca(const Type* type, const std::string& name) {
    // All allocas live in the entry block so loops do not grow the frame.
    ir::Instruction* inst = function_->CreateInstruction(ir::Opcode::kAlloca,
                                                         module_->types().PointerTo(type));
    inst->set_extra_type(type);
    inst->set_name(name);
    alloca_block_->Append(inst);
    return inst;
  }

  // --- statements -------------------------------------------------------------
  void ParseBlockStatements() {
    while (ok() && !Check(TokenKind::kRBrace) && !AtEnd()) {
      ParseStatement();
    }
    Expect(TokenKind::kRBrace, "}");
  }

  void ParseStatement() {
    if (Match(TokenKind::kLBrace)) {
      PushScope();
      ParseBlockStatements();
      PopScope();
      return;
    }
    if (StartsType()) {
      ParseLocalDecl();
      return;
    }
    if (Match(TokenKind::kIf)) {
      ParseIf();
      return;
    }
    if (Match(TokenKind::kWhile)) {
      ParseWhile();
      return;
    }
    if (Match(TokenKind::kFor)) {
      ParseFor();
      return;
    }
    if (Match(TokenKind::kReturn)) {
      if (Check(TokenKind::kSemicolon)) {
        builder_.Ret();
      } else {
        ExprValue v = ParseExpression();
        if (!ok()) {
          return;
        }
        const Type* ret = function_->type()->return_type();
        Value* coerced = Coerce(Rvalue(v), v.type, ret);
        if (coerced == nullptr) {
          Fail("return type mismatch");
          return;
        }
        builder_.Ret(coerced);
      }
      Expect(TokenKind::kSemicolon, ";");
      // Unreachable code after return still needs a block to land in.
      builder_.SetInsertPoint(function_->CreateBlock("postret"));
      return;
    }
    if (Match(TokenKind::kOutput)) {
      Expect(TokenKind::kLParen, "(");
      ExprValue v = ParseExpression();
      Expect(TokenKind::kRParen, ")");
      Expect(TokenKind::kSemicolon, ";");
      if (ok()) {
        builder_.Output(ToWord(v));
      }
      return;
    }
    if (Match(TokenKind::kFree)) {
      Expect(TokenKind::kLParen, "(");
      ExprValue v = ParseExpression();
      Expect(TokenKind::kRParen, ")");
      Expect(TokenKind::kSemicolon, ";");
      if (ok()) {
        if (!v.type->IsPointer()) {
          Fail("free() needs a pointer");
          return;
        }
        builder_.Free(Rvalue(v));
      }
      return;
    }
    // Expression statement (assignments happen inside ParseExpression).
    ParseExpression();
    Expect(TokenKind::kSemicolon, ";");
  }

  void ParseLocalDecl() {
    const Type* base = ParseType();
    if (!ok()) {
      return;
    }
    do {
      std::string name;
      const Type* var_type = ParseDeclarator(base, "variable name", true, &name);
      RequireSized(var_type, "variable '" + name + "'");
      if (!ok()) {
        return;
      }
      ir::Instruction* slot = EmitAlloca(var_type, name);
      DeclareLocal(name, slot, var_type);
      if (Match(TokenKind::kAssign)) {
        ExprValue init = ParseExpression();
        if (!ok()) {
          return;
        }
        EmitAssignment(slot, var_type, init);
      }
    } while (Match(TokenKind::kComma));
    Expect(TokenKind::kSemicolon, ";");
  }

  void ParseIf() {
    Expect(TokenKind::kLParen, "(");
    ExprValue cond = ParseExpression();
    Expect(TokenKind::kRParen, ")");
    if (!ok()) {
      return;
    }
    BasicBlock* then_bb = function_->CreateBlock("if.then");
    BasicBlock* else_bb = function_->CreateBlock("if.else");
    BasicBlock* join_bb = function_->CreateBlock("if.join");
    builder_.CondBr(ToWord(cond), then_bb, else_bb);

    builder_.SetInsertPoint(then_bb);
    ParseStatement();
    if (!builder_.insert_block()->HasTerminator()) {
      builder_.Br(join_bb);
    }
    builder_.SetInsertPoint(else_bb);
    if (Match(TokenKind::kElse)) {
      ParseStatement();
    }
    if (!builder_.insert_block()->HasTerminator()) {
      builder_.Br(join_bb);
    }
    builder_.SetInsertPoint(join_bb);
  }

  void ParseWhile() {
    BasicBlock* header = function_->CreateBlock("while.header");
    BasicBlock* body = function_->CreateBlock("while.body");
    BasicBlock* exit = function_->CreateBlock("while.exit");
    builder_.Br(header);
    builder_.SetInsertPoint(header);
    Expect(TokenKind::kLParen, "(");
    ExprValue cond = ParseExpression();
    Expect(TokenKind::kRParen, ")");
    if (!ok()) {
      return;
    }
    builder_.CondBr(ToWord(cond), body, exit);
    builder_.SetInsertPoint(body);
    ParseStatement();
    if (!builder_.insert_block()->HasTerminator()) {
      builder_.Br(header);
    }
    builder_.SetInsertPoint(exit);
  }

  void ParseFor() {
    Expect(TokenKind::kLParen, "(");
    PushScope();
    if (!Check(TokenKind::kSemicolon)) {
      if (StartsType()) {
        ParseLocalDecl();  // consumes the ';'
      } else {
        ParseExpression();
        Expect(TokenKind::kSemicolon, ";");
      }
    } else {
      Expect(TokenKind::kSemicolon, ";");
    }

    BasicBlock* header = function_->CreateBlock("for.header");
    BasicBlock* body = function_->CreateBlock("for.body");
    BasicBlock* step = function_->CreateBlock("for.step");
    BasicBlock* exit = function_->CreateBlock("for.exit");
    builder_.Br(header);

    builder_.SetInsertPoint(header);
    if (!Check(TokenKind::kSemicolon)) {
      ExprValue cond = ParseExpression();
      if (!ok()) {
        return;
      }
      builder_.CondBr(ToWord(cond), body, exit);
    } else {
      builder_.Br(body);
    }
    Expect(TokenKind::kSemicolon, ";");

    // The step expression is parsed now but must execute after the body:
    // remember its token range and re-parse it in the step block.
    const size_t step_begin = pos_;
    int depth = 0;
    while (!AtEnd() && (depth > 0 || !Check(TokenKind::kRParen))) {
      if (Check(TokenKind::kLParen)) {
        ++depth;
      } else if (Check(TokenKind::kRParen)) {
        --depth;
      }
      ++pos_;
    }
    const size_t step_end = pos_;
    Expect(TokenKind::kRParen, ")");

    builder_.SetInsertPoint(body);
    ParseStatement();
    if (!builder_.insert_block()->HasTerminator()) {
      builder_.Br(step);
    }

    builder_.SetInsertPoint(step);
    if (step_end > step_begin) {
      const size_t saved = pos_;
      pos_ = step_begin;
      ParseExpression();
      pos_ = saved;
    }
    builder_.Br(header);
    builder_.SetInsertPoint(exit);
    PopScope();
  }

  // --- expressions -------------------------------------------------------------
  // assignment -> logical_or ('=' assignment)?
  ExprValue ParseExpression() { return ParseAssignment(); }

  ExprValue ParseAssignment() {
    ExprValue lhs = ParseLogicalOr();
    if (!ok() || !Match(TokenKind::kAssign)) {
      return lhs;
    }
    if (!lhs.is_lvalue) {
      Fail("left side of '=' is not assignable");
      return {};
    }
    ExprValue rhs = ParseAssignment();
    if (!ok()) {
      return {};
    }
    EmitAssignment(lhs.value, lhs.type, rhs);
    ExprValue out;
    out.value = Rvalue(rhs);
    out.type = lhs.type;
    return out;
  }

  void EmitAssignment(Value* address, const Type* type, const ExprValue& rhs) {
    Value* value = Coerce(Rvalue(rhs), rhs.type, type);
    if (value == nullptr) {
      Fail("type mismatch in assignment");
      return;
    }
    builder_.Store(value, address);
  }

  ExprValue ParseLogicalOr() {
    ExprValue lhs = ParseLogicalAnd();
    while (ok() && Check(TokenKind::kOrOr)) {
      ++pos_;
      lhs = EmitShortCircuit(lhs, /*is_and=*/false);
    }
    return lhs;
  }

  ExprValue ParseLogicalAnd() {
    ExprValue lhs = ParseBitOr();
    while (ok() && Check(TokenKind::kAndAnd)) {
      ++pos_;
      lhs = EmitShortCircuit(lhs, /*is_and=*/true);
    }
    return lhs;
  }

  ExprValue EmitShortCircuit(const ExprValue& lhs, bool is_and) {
    auto& t = module_->types();
    ir::Instruction* slot = EmitAlloca(t.I64(), "sc");
    Value* l = ToWord(lhs);
    builder_.Store(builder_.ICmpNe(l, builder_.I64(0)), slot);
    BasicBlock* rhs_bb = function_->CreateBlock(is_and ? "and.rhs" : "or.rhs");
    BasicBlock* join = function_->CreateBlock("sc.join");
    if (is_and) {
      builder_.CondBr(l, rhs_bb, join);
    } else {
      builder_.CondBr(l, join, rhs_bb);
    }
    builder_.SetInsertPoint(rhs_bb);
    ExprValue rhs = ParseBitOr();
    if (!ok()) {
      return {};
    }
    builder_.Store(builder_.ICmpNe(ToWord(rhs), builder_.I64(0)), slot);
    builder_.Br(join);
    builder_.SetInsertPoint(join);
    ExprValue out;
    out.value = builder_.Load(slot);
    out.type = t.I64();
    return out;
  }

  ExprValue ParseBitOr() { return ParseLeftAssoc(&Parser::ParseBitXor, {{TokenKind::kPipe, BinOp::kOr}}); }
  ExprValue ParseBitXor() { return ParseLeftAssoc(&Parser::ParseBitAnd, {{TokenKind::kCaret, BinOp::kXor}}); }
  ExprValue ParseBitAnd() { return ParseLeftAssoc(&Parser::ParseEquality, {{TokenKind::kAmp, BinOp::kAnd}}); }
  ExprValue ParseEquality() {
    return ParseLeftAssoc(&Parser::ParseRelational,
                          {{TokenKind::kEq, BinOp::kEq}, {TokenKind::kNe, BinOp::kNe}});
  }
  ExprValue ParseRelational() {
    return ParseLeftAssoc(&Parser::ParseShift,
                          {{TokenKind::kLt, BinOp::kSLt},
                           {TokenKind::kLe, BinOp::kSLe},
                           {TokenKind::kGt, BinOp::kSGt},
                           {TokenKind::kGe, BinOp::kSGe}});
  }
  ExprValue ParseShift() {
    return ParseLeftAssoc(&Parser::ParseAdditive,
                          {{TokenKind::kShl, BinOp::kShl}, {TokenKind::kShr, BinOp::kLShr}});
  }
  ExprValue ParseAdditive() {
    return ParseLeftAssoc(&Parser::ParseMultiplicative,
                          {{TokenKind::kPlus, BinOp::kAdd}, {TokenKind::kMinus, BinOp::kSub}});
  }
  ExprValue ParseMultiplicative() {
    return ParseLeftAssoc(&Parser::ParseUnary,
                          {{TokenKind::kStar, BinOp::kMul},
                           {TokenKind::kSlash, BinOp::kSDiv},
                           {TokenKind::kPercent, BinOp::kSRem}});
  }

  using SubParser = ExprValue (Parser::*)();

  ExprValue ParseLeftAssoc(SubParser next, std::vector<std::pair<TokenKind, BinOp>> ops) {
    ExprValue lhs = (this->*next)();
    for (;;) {
      if (!ok()) {
        return lhs;
      }
      const BinOp* op = nullptr;
      for (const auto& [kind, binop] : ops) {
        if (Check(kind)) {
          op = &binop;
          break;
        }
      }
      if (op == nullptr) {
        return lhs;
      }
      ++pos_;
      ExprValue rhs = (this->*next)();
      if (!ok()) {
        return lhs;
      }
      lhs = EmitBinary(*op, lhs, rhs);
    }
  }

  ExprValue EmitBinary(BinOp op, const ExprValue& lhs, const ExprValue& rhs) {
    auto& t = module_->types();
    ExprValue out;
    // Arrays decay to element pointers in binary expressions.
    const Type* lt = RvalueType(lhs);
    const Type* rt = RvalueType(rhs);
    // Pointer arithmetic: p + i / p - i via element indexing.
    if (lt->IsPointer() && rt->IsInt() && (op == BinOp::kAdd || op == BinOp::kSub)) {
      RequireSized(static_cast<const ir::PointerType*>(lt)->pointee(), "pointer arithmetic");
      if (!ok()) {
        return {};
      }
      Value* index = Coerce(Rvalue(rhs), rhs.type, t.I64());
      if (op == BinOp::kSub) {
        index = builder_.Sub(builder_.I64(0), index);
      }
      out.value = builder_.IndexAddr(Rvalue(lhs), index);
      out.type = lt;
      return out;
    }
    // Pointer comparisons; one side may be the null pointer constant.
    if ((lt->IsPointer() || rt->IsPointer()) && (op == BinOp::kEq || op == BinOp::kNe)) {
      auto word = [&](const ExprValue& v, const Type* type, const Type* other) -> Value* {
        Value* p = Coerce(Rvalue(v), type, type->IsPointer() ? type : other);
        return p == nullptr ? nullptr : builder_.PtrToInt(p);
      };
      Value* l = word(lhs, lt, rt);
      Value* r = word(rhs, rt, lt);
      if (l == nullptr || r == nullptr) {
        Fail("invalid operand types for binary operator");
        return {};
      }
      out.value = builder_.Binary(op, l, r);
      out.type = t.I64();
      return out;
    }
    if (!IsArithmetic(lt) || !IsArithmetic(rt)) {
      Fail("invalid operand types for binary operator");
      return {};
    }
    // Float arithmetic.
    if (lt->IsFloat() || rt->IsFloat()) {
      static const std::map<BinOp, BinOp> kFloatOps = {
          {BinOp::kAdd, BinOp::kFAdd}, {BinOp::kSub, BinOp::kFSub},
          {BinOp::kMul, BinOp::kFMul}, {BinOp::kSDiv, BinOp::kFDiv},
          {BinOp::kEq, BinOp::kFEq},   {BinOp::kNe, BinOp::kFNe},
          {BinOp::kSLt, BinOp::kFLt},  {BinOp::kSLe, BinOp::kFLe},
          {BinOp::kSGt, BinOp::kFGt},  {BinOp::kSGe, BinOp::kFGe}};
      auto it = kFloatOps.find(op);
      if (it == kFloatOps.end()) {
        Fail("invalid operator for float operands");
        return {};
      }
      Value* l = Coerce(Rvalue(lhs), lhs.type, t.FloatTy());
      Value* r = Coerce(Rvalue(rhs), rhs.type, t.FloatTy());
      out.value = builder_.Binary(it->second, l, r);
      const bool is_compare = op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kSLt ||
                              op == BinOp::kSLe || op == BinOp::kSGt || op == BinOp::kSGe;
      out.type = is_compare ? static_cast<const Type*>(t.I64())
                            : static_cast<const Type*>(t.FloatTy());
      return out;
    }
    // Integers: usual promotion to int (i64).
    Value* l = Coerce(Rvalue(lhs), lhs.type, t.I64());
    Value* r = Coerce(Rvalue(rhs), rhs.type, t.I64());
    out.value = builder_.Binary(op, l, r);
    out.type = t.I64();
    return out;
  }

  ExprValue ParseUnary() {
    auto& t = module_->types();
    if (Match(TokenKind::kStar)) {
      ExprValue operand = ParseUnary();
      if (!ok()) {
        return {};
      }
      if (!operand.type->IsPointer()) {
        Fail("dereference of a non-pointer");
        return {};
      }
      const Type* pointee = static_cast<const ir::PointerType*>(operand.type)->pointee();
      ExprValue out;
      if (pointee->IsFunction()) {
        // *fn designates the function, which decays straight back to fn.
        out.value = Rvalue(operand);
        out.type = operand.type;
        return out;
      }
      out.value = Rvalue(operand);  // address
      out.type = pointee;
      out.is_lvalue = true;
      return out;
    }
    if (Match(TokenKind::kAmp)) {
      ExprValue operand = ParseUnary();
      if (!ok()) {
        return {};
      }
      if (!operand.is_lvalue) {
        Fail("cannot take the address of an rvalue");
        return {};
      }
      ExprValue out;
      out.value = operand.value;
      out.type = t.PointerTo(operand.type);
      return out;
    }
    if (Match(TokenKind::kMinus)) {
      ExprValue operand = ParseUnary();
      if (!ok()) {
        return {};
      }
      if (!operand.type->IsInt() && !operand.type->IsFloat()) {
        Fail("invalid operand to unary '-'");
        return {};
      }
      ExprValue out;
      if (operand.type->IsFloat()) {
        out.value = builder_.Binary(BinOp::kFSub, builder_.F64(0.0), Rvalue(operand));
        out.type = t.FloatTy();
      } else {
        out.value = builder_.Sub(builder_.I64(0), Coerce(Rvalue(operand), operand.type, t.I64()));
        out.type = t.I64();
      }
      return out;
    }
    if (Match(TokenKind::kNot)) {
      ExprValue operand = ParseUnary();
      if (!ok()) {
        return {};
      }
      ExprValue out;
      out.value = builder_.ICmpEq(ToWord(operand), builder_.I64(0));
      out.type = t.I64();
      return out;
    }
    // Cast: '(' type ')' unary — distinguished from parenthesised exprs.
    if (Check(TokenKind::kLParen)) {
      const size_t after = pos_ + 1;
      const TokenKind k = tokens_[after].kind;
      const bool is_type = k == TokenKind::kInt || k == TokenKind::kChar ||
                           k == TokenKind::kVoid || k == TokenKind::kFloat ||
                           k == TokenKind::kStruct;
      if (is_type) {
        ++pos_;  // '('
        const Type* to = ParseType();
        Expect(TokenKind::kRParen, ")");
        ExprValue operand = ParseUnary();
        if (!ok()) {
          return {};
        }
        return EmitCast(operand, to);
      }
    }
    return ParsePostfix();
  }

  ExprValue EmitCast(const ExprValue& operand, const Type* to) {
    auto& t = module_->types();
    Value* v = Rvalue(operand);
    const Type* from = operand.type;
    ExprValue out;
    out.type = to;
    if (from == to) {
      out.value = v;
    } else if (from->IsPointer() && to->IsPointer()) {
      out.value = builder_.Bitcast(v, to);
    } else if (from->IsPointer() && to->IsInt()) {
      out.value = Coerce(builder_.PtrToInt(v), t.I64(), to);
    } else if (from->IsInt() && to->IsPointer()) {
      out.value = builder_.IntToPtr(Coerce(v, from, t.I64()), to);
    } else if (from->IsInt() && to->IsInt()) {
      out.value = Coerce(v, from, to);
    } else if (from->IsInt() && to->IsFloat()) {
      out.value = builder_.Cast(CastKind::kIntToFloat, Coerce(v, from, t.I64()), to);
    } else if (from->IsFloat() && to->IsInt()) {
      out.value = Coerce(builder_.Cast(CastKind::kFloatToInt, v, t.I64()), t.I64(), to);
    } else {
      Fail("unsupported cast");
      return {};
    }
    return out;
  }

  ExprValue ParsePostfix() {
    ExprValue base = ParsePrimary();
    auto& t = module_->types();
    for (;;) {
      if (!ok()) {
        return base;
      }
      if (Match(TokenKind::kLBracket)) {
        ExprValue index = ParseExpression();
        Expect(TokenKind::kRBracket, "]");
        if (!ok()) {
          return {};
        }
        // a[i]: `a` is an array lvalue or a pointer rvalue.
        Value* base_ptr = nullptr;
        const Type* elem = nullptr;
        if (base.type->IsArray()) {
          base_ptr = base.value;  // address of the array
          elem = static_cast<const ir::ArrayType*>(base.type)->element();
        } else if (base.type->IsPointer()) {
          base_ptr = Rvalue(base);
          elem = static_cast<const ir::PointerType*>(base.type)->pointee();
        } else {
          Fail("subscript of a non-array");
          return {};
        }
        RequireSized(elem, "subscript");
        if (ok() && !RvalueType(index)->IsInt()) {
          Fail("array subscript is not an integer");
        }
        if (!ok()) {
          return {};
        }
        ExprValue out;
        out.value = builder_.IndexAddr(base_ptr, Coerce(Rvalue(index), index.type, t.I64()));
        out.type = elem;
        out.is_lvalue = true;
        base = out;
        continue;
      }
      if (Check(TokenKind::kDot) || Check(TokenKind::kArrow)) {
        const bool arrow = Check(TokenKind::kArrow);
        ++pos_;
        Token field = Expect(TokenKind::kIdentifier, "field name");
        if (!ok()) {
          return {};
        }
        Value* struct_addr = nullptr;
        const Type* struct_type = nullptr;
        if (arrow) {
          if (!base.type->IsPointer()) {
            Fail("'->' on a non-pointer");
            return {};
          }
          struct_addr = Rvalue(base);
          struct_type = static_cast<const ir::PointerType*>(base.type)->pointee();
        } else {
          if (!base.is_lvalue || !base.type->IsStruct()) {
            Fail("'.' on a non-struct");
            return {};
          }
          struct_addr = base.value;
          struct_type = base.type;
        }
        if (!struct_type->IsStruct() ||
            static_cast<const StructType*>(struct_type)->is_opaque()) {
          Fail("member access into an incomplete type");
          return {};
        }
        const auto* st = static_cast<const StructType*>(struct_type);
        int index = -1;
        for (size_t i = 0; i < st->fields().size(); ++i) {
          if (st->fields()[i].name == field.text) {
            index = static_cast<int>(i);
            break;
          }
        }
        if (index < 0) {
          Fail("no field '" + field.text + "' in " + st->ToString());
          return {};
        }
        // Bitcast in case the expression type is nominally the same struct.
        Value* typed = struct_addr;
        if (typed->type() != t.PointerTo(st)) {
          typed = builder_.Bitcast(typed, t.PointerTo(st));
        }
        ExprValue out;
        out.value = builder_.FieldAddr(typed, static_cast<unsigned>(index));
        out.type = st->fields()[static_cast<size_t>(index)].type;
        out.is_lvalue = true;
        base = out;
        continue;
      }
      if (Check(TokenKind::kLParen)) {
        base = EmitCall(base);
        continue;
      }
      return base;
    }
  }

  ExprValue EmitCall(const ExprValue& callee) {
    // Capture the direct-call target before parsing arguments: nested calls
    // in the argument list overwrite callee_function_.
    Function* direct = callee_function_;
    callee_function_ = nullptr;

    Expect(TokenKind::kLParen, "(");
    std::vector<ExprValue> args;
    if (!Check(TokenKind::kRParen)) {
      do {
        args.push_back(ParseExpression());
      } while (ok() && Match(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, ")");
    if (!ok()) {
      return {};
    }

    const ir::FunctionType* fn_type = nullptr;
    Value* fn_ptr = nullptr;
    if (direct != nullptr) {
      fn_type = direct->type();
    } else if (callee.type->IsPointer() &&
               static_cast<const ir::PointerType*>(callee.type)->pointee()->IsFunction()) {
      fn_ptr = Rvalue(callee);
      fn_type = static_cast<const ir::FunctionType*>(
          static_cast<const ir::PointerType*>(callee.type)->pointee());
    } else {
      Fail("called object is not a function");
      return {};
    }

    if (args.size() != fn_type->params().size()) {
      Fail("wrong number of arguments");
      return {};
    }
    std::vector<Value*> lowered;
    for (size_t i = 0; i < args.size(); ++i) {
      Value* v = Coerce(Rvalue(args[i]), args[i].type, fn_type->params()[i]);
      if (v == nullptr) {
        Fail("argument " + std::to_string(i + 1) + " type mismatch");
        return {};
      }
      lowered.push_back(v);
    }

    ExprValue out;
    out.type = fn_type->return_type();
    if (direct != nullptr) {
      out.value = builder_.Call(direct, lowered);
    } else {
      out.value = builder_.IndirectCall(fn_ptr, lowered);
    }
    return out;
  }

  ExprValue ParsePrimary() {
    auto& t = module_->types();
    if (Check(TokenKind::kIntLiteral)) {
      Token tok = tokens_[pos_++];
      ExprValue out;
      out.value = builder_.I64(tok.int_value);
      out.type = t.I64();
      return out;
    }
    if (Check(TokenKind::kStringLiteral)) {
      Token tok = tokens_[pos_++];
      GlobalVariable* g = module_->CreateGlobal(
          "str." + std::to_string(string_counter_++),
          t.ArrayOf(t.CharTy(), tok.text.size() + 1), /*is_const=*/true);
      std::vector<uint8_t> bytes(tok.text.begin(), tok.text.end());
      bytes.push_back(0);
      g->set_initializer(std::move(bytes));
      ExprValue out;
      out.value = builder_.IndexAddr(builder_.GlobalAddr(g), builder_.I64(0));
      out.type = t.CharPtrTy();
      return out;
    }
    if (Match(TokenKind::kInput)) {
      Expect(TokenKind::kLParen, "(");
      Expect(TokenKind::kRParen, ")");
      ExprValue out;
      out.value = builder_.Input();
      out.type = t.I64();
      return out;
    }
    if (Match(TokenKind::kMalloc)) {
      Expect(TokenKind::kLParen, "(");
      ExprValue size = ParseExpression();
      Expect(TokenKind::kRParen, ")");
      if (ok() && !RvalueType(size)->IsInt()) {
        Fail("malloc size is not an integer");
      }
      if (!ok()) {
        return {};
      }
      ExprValue out;
      out.value = builder_.Malloc(Coerce(Rvalue(size), size.type, t.I64()), t.VoidPtrTy());
      out.type = t.VoidPtrTy();
      return out;
    }
    if (Match(TokenKind::kSizeof)) {
      Expect(TokenKind::kLParen, "(");
      const Type* type = ParseType();
      Expect(TokenKind::kRParen, ")");
      RequireSized(type, "sizeof");
      if (!ok()) {
        return {};
      }
      ExprValue out;
      out.value = builder_.I64(type->SizeInBytes());
      out.type = t.I64();
      return out;
    }
    if (Match(TokenKind::kLParen)) {
      ExprValue inner = ParseExpression();
      Expect(TokenKind::kRParen, ")");
      return inner;
    }
    if (Check(TokenKind::kIdentifier)) {
      Token id = tokens_[pos_++];
      // libc routines.
      if (const ir::LibFuncInfo* lib = ir::FindLibFunc(id.text)) {
        return EmitLibCall(*lib);
      }
      // Local variable?
      const LocalVar* local = LookupLocal(id.text);
      if (local != nullptr) {
        ExprValue out;
        out.value = local->address;
        out.type = local->type;
        out.is_lvalue = true;
        return out;
      }
      // Global variable?
      GlobalVariable* g = module_->FindGlobal(id.text);
      if (g != nullptr) {
        ExprValue out;
        out.value = builder_.GlobalAddr(g);
        out.type = g->type();
        out.is_lvalue = true;
        return out;
      }
      // Function: either a direct call target or &f / plain f decays to a
      // function pointer.
      Function* fn = module_->FindFunction(id.text);
      if (fn != nullptr) {
        if (Check(TokenKind::kLParen)) {
          callee_function_ = fn;
          ExprValue out;
          out.type = module_->types().PointerTo(fn->type());
          return out;
        }
        ExprValue out;
        out.value = builder_.FuncAddr(fn);
        out.type = module_->types().PointerTo(fn->type());
        return out;
      }
      Fail("unknown identifier '" + id.text + "'");
      return {};
    }
    Fail("expected an expression");
    return {};
  }

  // A libc routine call, type-checked against the routine's row: a
  // pointer where it takes one (arrays decay; 0 is the null pointer), an
  // integer (widened to i64) where it takes one.
  ExprValue EmitLibCall(const ir::LibFuncInfo& lib) {
    auto& t = module_->types();
    const std::string_view kinds = lib.operands;
    Expect(TokenKind::kLParen, "(");
    std::vector<Value*> args;
    if (!Check(TokenKind::kRParen)) {
      do {
        ExprValue a = ParseExpression();
        if (!ok()) {
          return {};
        }
        const size_t i = args.size();
        const Type* type = RvalueType(a);
        Value* v = Rvalue(a);
        if (i < kinds.size() && kinds[i] == 'p') {
          v = type->IsPointer() ? v : Coerce(v, type, t.VoidPtrTy());
        } else if (i < kinds.size()) {
          v = type->IsInt() ? Coerce(v, type, t.I64()) : nullptr;
        }
        if (v == nullptr) {
          Fail(std::string(lib.name) + " argument " + std::to_string(i + 1) + " must be " +
               (kinds[i] == 'p' ? "a pointer" : "an integer"));
          return {};
        }
        args.push_back(v);
      } while (Match(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, ")");
    if (ok() && args.size() != kinds.size()) {
      Fail(std::string(lib.name) + " takes " + std::to_string(kinds.size()) +
           (kinds.size() == 1 ? " argument" : " arguments"));
    }
    if (!ok()) {
      return {};
    }
    ExprValue out;
    out.value = builder_.LibCall(lib.id, args);
    out.type = out.value->type();
    return out;
  }

  // --- value helpers -------------------------------------------------------
  // Materialises an rvalue: loads lvalues, decays arrays to pointers.
  Value* Rvalue(const ExprValue& v) {
    if (!v.is_lvalue) {
      if (ok() && v.type->IsVoid()) {
        Fail("void value used as a value");
      }
      return v.value;
    }
    if (v.type->IsArray()) {
      // Array lvalue decays to a pointer to its first element.
      return builder_.IndexAddr(v.value, builder_.I64(0));
    }
    if (v.type->IsStruct()) {
      Fail("struct values are not supported; use pointers or memcpy");
      return v.value;  // address, keeps lowering alive until the error stops it
    }
    if (!IsScalar(v.type)) {
      Fail("cannot use a value of type " + v.type->ToString());
      return v.value;
    }
    return builder_.Load(v.value);
  }

  // The rvalue's type after decay.
  const Type* RvalueType(const ExprValue& v) {
    if (v.is_lvalue && v.type->IsArray()) {
      return module_->types().PointerTo(
          static_cast<const ir::ArrayType*>(v.type)->element());
    }
    return v.type;
  }

  // C's null pointer constant: the integer literal 0.
  static bool IsNullPointerConstant(const Value* v) {
    return v->value_kind() == ir::ValueKind::kConstInt &&
           static_cast<const ir::ConstantInt*>(v)->value() == 0;
  }

  // Implicit conversions: integer width changes, char<->int, void* to/from
  // any pointer, array decay, and the null pointer constant to any pointer.
  // Returns nullptr when incompatible.
  Value* Coerce(Value* v, const Type* from, const Type* to) {
    auto& t = module_->types();
    if (from == to) {
      return v;
    }
    if (from->IsInt() && to->IsPointer()) {
      return IsNullPointerConstant(v) ? builder_.Null(to) : nullptr;
    }
    if (from->IsArray() && to->IsPointer()) {
      return v;  // already decayed by Rvalue
    }
    if (from->IsInt() && to->IsInt()) {
      const int fb = static_cast<const ir::IntType*>(from)->bits();
      const int tb = static_cast<const ir::IntType*>(to)->bits();
      // Same-width casts (i8 vs char) are representation-preserving zexts.
      return builder_.Cast(fb <= tb ? CastKind::kZExt : CastKind::kTrunc, v, to);
    }
    if (from->IsPointer() && to->IsPointer()) {
      // void* and char* convert freely (C semantics for void*; char* is
      // permitted for the string routines).
      return builder_.Bitcast(v, to);
    }
    if (from->IsInt() && to->IsFloat()) {
      return builder_.Cast(CastKind::kIntToFloat, Coerce(v, from, t.I64()), to);
    }
    return nullptr;
  }

  // Condition/output value as a plain word.
  Value* ToWord(const ExprValue& v) {
    Value* r = Rvalue(v);
    const Type* type = RvalueType(v);
    auto& t = module_->types();
    if (type->IsPointer()) {
      return builder_.PtrToInt(r);
    }
    if (type->IsFloat()) {
      return builder_.Cast(CastKind::kFloatToInt, r, t.I64());
    }
    if (type->IsInt() && type != t.I64()) {
      return Coerce(r, type, t.I64());
    }
    return r;
  }

  // --- state ------------------------------------------------------------------
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool pass_two_ = false;
  std::string error_;
  std::unique_ptr<Module> module_;
  IRBuilder builder_;
  Function* function_ = nullptr;
  BasicBlock* alloca_block_ = nullptr;
  std::vector<std::map<std::string, LocalVar>> scopes_;
  Function* callee_function_ = nullptr;  // set by ParsePrimary for direct calls
  uint64_t string_counter_ = 0;
};

}  // namespace

CompileResult CompileC(const std::string& source, const std::string& module_name) {
  std::vector<Token> tokens;
  std::string error;
  if (!Lex(source, &tokens, &error)) {
    CompileResult r;
    r.error = error;
    return r;
  }
  Parser parser(std::move(tokens), module_name);
  return parser.Run();
}

}  // namespace cpi::frontend
