#include "src/ir/type.h"

#include <algorithm>

namespace cpi::ir {

std::string FunctionType::ToString() const {
  std::string out = ret_->ToString() + "(";
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += params_[i]->ToString();
  }
  out += ")";
  return out;
}

uint64_t AlignmentOf(const Type* type) {
  switch (type->kind()) {
    case TypeKind::kInt:
    case TypeKind::kFloat:
    case TypeKind::kPointer:
      return std::min<uint64_t>(type->SizeInBytes(), 8);
    case TypeKind::kArray:
      return AlignmentOf(static_cast<const ArrayType*>(type)->element());
    case TypeKind::kStruct: {
      const auto* st = static_cast<const StructType*>(type);
      uint64_t align = 1;
      for (const StructField& f : st->fields()) {
        align = std::max(align, AlignmentOf(f.type));
      }
      return align;
    }
    case TypeKind::kVoid:
    case TypeKind::kFunction:
      CPI_UNREACHABLE();
  }
  CPI_UNREACHABLE();
}

void StructType::SetBody(std::vector<StructField> fields) {
  CPI_CHECK(opaque_);
  uint64_t offset = 0;
  for (StructField& f : fields) {
    CPI_CHECK(f.type != nullptr);
    const uint64_t align = AlignmentOf(f.type);
    offset = (offset + align - 1) / align * align;
    f.offset = offset;
    offset += f.type->SizeInBytes();
  }
  // Round the total size up to the struct's own alignment so arrays of the
  // struct keep every element aligned.
  uint64_t struct_align = 1;
  for (const StructField& f : fields) {
    struct_align = std::max(struct_align, AlignmentOf(f.type));
  }
  fields_ = std::move(fields);
  opaque_ = false;
  size_ = (offset + struct_align - 1) / struct_align * struct_align;
  if (size_ == 0) {
    size_ = 1;  // empty structs occupy one byte, as in C++
  }
}

TypeContext::TypeContext() {
  void_type_ = Create<VoidType>();
  float_type_ = Create<FloatType>();
  char_type_ = Create<IntType>(8, /*is_char=*/true);
}

const IntType* TypeContext::IntTy(int bits) {
  auto it = int_types_.find(bits);
  if (it != int_types_.end()) {
    return it->second;
  }
  const IntType* t = Create<IntType>(bits, /*is_char=*/false);
  int_types_[bits] = t;
  return t;
}

const IntType* TypeContext::CharTy() { return char_type_; }

const PointerType* TypeContext::PointerTo(const Type* pointee) {
  auto it = pointer_types_.find(pointee);
  if (it != pointer_types_.end()) {
    return it->second;
  }
  const PointerType* t = Create<PointerType>(pointee);
  pointer_types_[pointee] = t;
  return t;
}

const FunctionType* TypeContext::FunctionTy(const Type* ret, std::vector<const Type*> params) {
  auto key = std::make_pair(ret, params);
  auto it = function_types_.find(key);
  if (it != function_types_.end()) {
    return it->second;
  }
  const FunctionType* t = Create<FunctionType>(ret, std::move(params));
  function_types_[key] = t;
  return t;
}

const ArrayType* TypeContext::ArrayOf(const Type* element, uint64_t count) {
  auto key = std::make_pair(element, count);
  auto it = array_types_.find(key);
  if (it != array_types_.end()) {
    return it->second;
  }
  const ArrayType* t = Create<ArrayType>(element, count);
  array_types_[key] = t;
  return t;
}

StructType* TypeContext::GetOrCreateStruct(const std::string& name) {
  auto it = struct_types_.find(name);
  if (it != struct_types_.end()) {
    return it->second;
  }
  StructType* t = Create<StructType>(name);
  struct_types_[name] = t;
  return t;
}

const StructType* TypeContext::FindStruct(const std::string& name) const {
  auto it = struct_types_.find(name);
  return it == struct_types_.end() ? nullptr : it->second;
}

bool IsSized(const Type* type) {
  switch (type->kind()) {
    case TypeKind::kVoid:
    case TypeKind::kFunction:
      return false;
    case TypeKind::kStruct:
      return !static_cast<const StructType*>(type)->is_opaque();
    case TypeKind::kArray:
      return IsSized(static_cast<const ArrayType*>(type)->element());
    default:
      return true;
  }
}

bool IsUniversalPointer(const Type* type) {
  if (!type->IsPointer()) {
    return false;
  }
  const Type* pointee = static_cast<const PointerType*>(type)->pointee();
  if (pointee->IsVoid()) {
    return true;
  }
  if (pointee->IsInt() && static_cast<const IntType*>(pointee)->is_char()) {
    return true;
  }
  if (pointee->IsStruct() && static_cast<const StructType*>(pointee)->is_opaque()) {
    return true;
  }
  return false;
}

bool IsCodePointer(const Type* type) {
  return type->IsPointer() && static_cast<const PointerType*>(type)->pointee()->IsFunction();
}

}  // namespace cpi::ir
