#include "src/ir/intrinsics.h"

#include <iterator>

#include "src/support/check.h"

namespace cpi::ir {
namespace {

using S = IntrinsicShape;

constexpr IntrinsicInfo kIntrinsicRows[] = {
    {IntrinsicId::kCpiStore, "cpi_store", S::kStore, false},
    {IntrinsicId::kCpiLoad, "cpi_load", S::kLoad, false},
    {IntrinsicId::kCpiStoreUni, "cpi_store_uni", S::kStore, false},
    {IntrinsicId::kCpiLoadUni, "cpi_load_uni", S::kLoad, false},
    {IntrinsicId::kCpiBoundsCheck, "cpi_bounds_check", S::kCheck, false},
    {IntrinsicId::kCpiAssertCode, "cpi_assert_code", S::kAssert, false},
    {IntrinsicId::kCpsStore, "cps_store", S::kStore, false},
    {IntrinsicId::kCpsLoad, "cps_load", S::kLoad, false},
    {IntrinsicId::kCpsStoreUni, "cps_store_uni", S::kStore, false},
    {IntrinsicId::kCpsLoadUni, "cps_load_uni", S::kLoad, false},
    {IntrinsicId::kCpsAssertCode, "cps_assert_code", S::kAssert, false},
    {IntrinsicId::kSbStore, "sb_store", S::kStore, false},
    {IntrinsicId::kSbLoad, "sb_load", S::kLoad, false},
    {IntrinsicId::kSbCheck, "sb_check", S::kCheck, false},
    {IntrinsicId::kCfiCheck, "cfi_check", S::kAssert, false},
    {IntrinsicId::kSealStore, "seal_store", S::kStore, true},
    {IntrinsicId::kSealLoad, "seal_load", S::kLoad, true},
    {IntrinsicId::kSealAssertCode, "seal_assert_code", S::kAssert, true},
};

constexpr LibFuncInfo kLibFuncRows[] = {
    // id, name, operands, returns_dst, writes_memory, c_string
    {LibFunc::kStrcpy, "strcpy", "pp", true, true, true},  // unbounded
    {LibFunc::kStrncpy, "strncpy", "ppi", true, true, true},
    {LibFunc::kStrcat, "strcat", "pp", true, true, true},  // unbounded
    {LibFunc::kStrlen, "strlen", "p", false, false, true},
    {LibFunc::kStrcmp, "strcmp", "pp", false, false, true},
    {LibFunc::kMemcpy, "memcpy", "ppi", true, true, false},
    {LibFunc::kMemset, "memset", "pii", true, true, false},
    {LibFunc::kMemmove, "memmove", "ppi", true, true, false},
    {LibFunc::kInputBytes, "input_bytes", "pi", false, true, false},
};

// Row i describes enum value i, so Info() is an index.
template <typename Row, size_t N>
constexpr bool InEnumOrder(const Row (&rows)[N]) {
  for (size_t i = 0; i < N; ++i) {
    if (static_cast<size_t>(rows[i].id) != i) {
      return false;
    }
  }
  return true;
}

static_assert(std::size(kIntrinsicRows) == kIntrinsicCount, "one row per IntrinsicId");
static_assert(std::size(kLibFuncRows) == kLibFuncCount, "one row per LibFunc");
static_assert(InEnumOrder(kIntrinsicRows) && InEnumOrder(kLibFuncRows), "rows in enum order");

}  // namespace

const IntrinsicInfo& Info(IntrinsicId id) {
  const auto i = static_cast<size_t>(id);
  CPI_CHECK(i < kIntrinsicCount);
  return kIntrinsicRows[i];
}

const LibFuncInfo& Info(LibFunc f) {
  const auto i = static_cast<size_t>(f);
  CPI_CHECK(i < kLibFuncCount);
  return kLibFuncRows[i];
}

const LibFuncInfo* FindLibFunc(std::string_view name) {
  for (const LibFuncInfo& row : kLibFuncRows) {
    if (name == row.name) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace cpi::ir
