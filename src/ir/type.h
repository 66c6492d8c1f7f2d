// The IR type system.
//
// This models the slice of C's type system that the CPI paper's analysis is
// defined over (§3.2.1 and Appendix A Fig. 6/7): integers, floats, pointers,
// function types, structs (including opaque forward declarations), and
// arrays. Universal pointers — void*, char*, and pointers to opaque structs —
// are first-class notions here because the sensitivity criterion treats them
// specially.
//
// Types are interned: within one TypeContext, structurally equal types are
// pointer-equal, so analyses can key maps by `const Type*`.
#ifndef CPI_SRC_IR_TYPE_H_
#define CPI_SRC_IR_TYPE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/support/check.h"

namespace cpi::ir {

enum class TypeKind {
  kVoid,      // only valid as a function return type or pointee of void*
  kInt,       // i8/i16/i32/i64; i8 may additionally be marked "char"
  kFloat,     // 64-bit IEEE double
  kPointer,   // T*
  kFunction,  // ret(params...)
  kStruct,    // named, possibly opaque (forward-declared)
  kArray,     // T[n]
};

class Type;

// One struct member: a name, a type, and a byte offset computed at layout
// time.
struct StructField {
  std::string name;
  const Type* type = nullptr;
  uint64_t offset = 0;
};

class Type {
 public:
  virtual ~Type() = default;

  TypeKind kind() const { return kind_; }

  bool IsVoid() const { return kind_ == TypeKind::kVoid; }
  bool IsInt() const { return kind_ == TypeKind::kInt; }
  bool IsFloat() const { return kind_ == TypeKind::kFloat; }
  bool IsPointer() const { return kind_ == TypeKind::kPointer; }
  bool IsFunction() const { return kind_ == TypeKind::kFunction; }
  bool IsStruct() const { return kind_ == TypeKind::kStruct; }
  bool IsArray() const { return kind_ == TypeKind::kArray; }

  // Object size in bytes. CHECK-fails for void, function and opaque struct
  // types, which are not sized.
  virtual uint64_t SizeInBytes() const = 0;

  // Human-readable rendering, e.g. "struct node*", "i64[16]".
  virtual std::string ToString() const = 0;

 protected:
  explicit Type(TypeKind kind) : kind_(kind) {}

 private:
  TypeKind kind_;
};

class VoidType final : public Type {
 public:
  VoidType() : Type(TypeKind::kVoid) {}
  uint64_t SizeInBytes() const override { CPI_UNREACHABLE(); }
  std::string ToString() const override { return "void"; }
};

class IntType final : public Type {
 public:
  IntType(int bits, bool is_char) : Type(TypeKind::kInt), bits_(bits), is_char_(is_char) {
    CPI_CHECK(bits == 8 || bits == 16 || bits == 32 || bits == 64);
    CPI_CHECK(!is_char || bits == 8);
  }

  int bits() const { return bits_; }
  // True for C's `char`: i8 that participates in the universal-pointer rules.
  bool is_char() const { return is_char_; }

  uint64_t SizeInBytes() const override { return static_cast<uint64_t>(bits_) / 8; }
  std::string ToString() const override {
    if (is_char_) {
      return "char";
    }
    return "i" + std::to_string(bits_);
  }

 private:
  int bits_;
  bool is_char_;
};

class FloatType final : public Type {
 public:
  FloatType() : Type(TypeKind::kFloat) {}
  uint64_t SizeInBytes() const override { return 8; }
  std::string ToString() const override { return "f64"; }
};

class PointerType final : public Type {
 public:
  explicit PointerType(const Type* pointee) : Type(TypeKind::kPointer), pointee_(pointee) {
    CPI_CHECK(pointee != nullptr);
  }

  const Type* pointee() const { return pointee_; }

  uint64_t SizeInBytes() const override { return 8; }
  std::string ToString() const override { return pointee_->ToString() + "*"; }

 private:
  const Type* pointee_;
};

class FunctionType final : public Type {
 public:
  FunctionType(const Type* ret, std::vector<const Type*> params)
      : Type(TypeKind::kFunction), ret_(ret), params_(std::move(params)) {
    CPI_CHECK(ret != nullptr);
  }

  const Type* return_type() const { return ret_; }
  const std::vector<const Type*>& params() const { return params_; }

  uint64_t SizeInBytes() const override { CPI_UNREACHABLE(); }
  std::string ToString() const override;

 private:
  const Type* ret_;
  std::vector<const Type*> params_;
};

class StructType final : public Type {
 public:
  explicit StructType(std::string name) : Type(TypeKind::kStruct), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // A struct starts out opaque (forward-declared); SetBody gives it fields
  // and computes the layout. Pointers to still-opaque structs are universal.
  bool is_opaque() const { return opaque_; }
  void SetBody(std::vector<StructField> fields);

  const std::vector<StructField>& fields() const {
    CPI_CHECK(!opaque_);
    return fields_;
  }

  uint64_t SizeInBytes() const override {
    CPI_CHECK(!opaque_);
    return size_;
  }
  std::string ToString() const override { return "struct " + name_; }

 private:
  std::string name_;
  bool opaque_ = true;
  std::vector<StructField> fields_;
  uint64_t size_ = 0;
};

class ArrayType final : public Type {
 public:
  ArrayType(const Type* element, uint64_t count)
      : Type(TypeKind::kArray), element_(element), count_(count) {
    CPI_CHECK(element != nullptr);
    CPI_CHECK(count > 0);
  }

  const Type* element() const { return element_; }
  uint64_t count() const { return count_; }

  uint64_t SizeInBytes() const override { return element_->SizeInBytes() * count_; }
  std::string ToString() const override {
    return element_->ToString() + "[" + std::to_string(count_) + "]";
  }

 private:
  const Type* element_;
  uint64_t count_;
};

// Interning context; owns all types it hands out. One per Module.
class TypeContext {
 public:
  TypeContext();
  TypeContext(const TypeContext&) = delete;
  TypeContext& operator=(const TypeContext&) = delete;

  const VoidType* VoidTy() const { return void_type_; }
  const FloatType* FloatTy() const { return float_type_; }
  const IntType* IntTy(int bits);
  const IntType* CharTy();  // i8 flagged as char
  const IntType* I8() { return IntTy(8); }
  const IntType* I32() { return IntTy(32); }
  const IntType* I64() { return IntTy(64); }

  const PointerType* PointerTo(const Type* pointee);
  const PointerType* VoidPtrTy() { return PointerTo(VoidTy()); }
  const PointerType* CharPtrTy() { return PointerTo(CharTy()); }

  const FunctionType* FunctionTy(const Type* ret, std::vector<const Type*> params);
  const ArrayType* ArrayOf(const Type* element, uint64_t count);

  // Structs are nominal: each name maps to exactly one StructType, created
  // opaque on first request.
  StructType* GetOrCreateStruct(const std::string& name);
  const StructType* FindStruct(const std::string& name) const;

 private:
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    owned_.push_back(std::move(owned));
    return raw;
  }

  std::deque<std::unique_ptr<Type>> owned_;
  const VoidType* void_type_;
  const FloatType* float_type_;
  const IntType* char_type_;
  std::map<int, const IntType*> int_types_;
  std::map<const Type*, const PointerType*> pointer_types_;
  std::map<std::pair<const Type*, std::vector<const Type*>>, const FunctionType*> function_types_;
  std::map<std::pair<const Type*, uint64_t>, const ArrayType*> array_types_;
  std::map<std::string, StructType*> struct_types_;
};

// True for void*, char* and pointers to opaque structs — the "universal
// pointer" notion of §3.2.1.
bool IsUniversalPointer(const Type* type);

// True for pointers to function types (code pointers).
bool IsCodePointer(const Type* type);

// True for types an object can have: scalars, pointers, structs with a body
// and arrays of those. Void, function and opaque struct types have no size,
// so no alloca, global or pointer arithmetic may use them.
bool IsSized(const Type* type);

// Natural alignment used by struct layout: min(size, 8) for scalars,
// element/field alignment for aggregates.
uint64_t AlignmentOf(const Type* type);

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_TYPE_H_
