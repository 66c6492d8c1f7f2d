// The callees an instruction can name besides IR functions: the runtime
// intrinsics instrumentation passes insert, and the libc-style routines
// programs call. Each is declared once, as one row of a signature table
// (IntrinsicInfo / LibFuncInfo) that the printer, the verifier, the builder,
// the frontend, the classifier and the optimizer all read.
//
// The intrinsics correspond to the Levee runtime-support calls of §4
// (cpi_ptr_store() and friends). The VM executes them against the runtime's
// safe pointer store; their cost is charged according to the configured
// store organisation. The VM's DoIntrinsic/DoLibCall switches hold their
// semantics.
//
// Adding an intrinsic: an enum value here, its row in intrinsics.cc, its arm
// in the VM's DoIntrinsic, and the pass that emits it. Adding a libcall: an
// enum value, its row and its arm in the VM's DoLibCall.
#ifndef CPI_SRC_IR_INTRINSICS_H_
#define CPI_SRC_IR_INTRINSICS_H_

#include <cstddef>
#include <string_view>

namespace cpi::ir {

enum class IntrinsicId {
  // --- CPI (§3.2.2): sensitive pointer loads/stores via the safe store, with
  // full based-on metadata (bounds + temporal id).
  kCpiStore,     // writes value+metadata to Ms[addr]
  kCpiLoad,      // reads value+metadata from Ms[addr]
  kCpiStoreUni,  // universal-pointer store: Ms if metadata valid, else Mu
  kCpiLoadUni,   // universal-pointer load: Ms if it holds a safe value, else Mu

  // Bounds (and, when enabled, temporal) check of the pointer being
  // dereferenced; aborts the program on violation.
  kCpiBoundsCheck,

  // Indirect-call target check: the value must be a safe code pointer.
  kCpiAssertCode,

  // --- CPS (§3.3): code-pointer-only protection, no metadata.
  kCpsStore,       // code pointer into Ms[addr]
  kCpsLoad,        // code pointer out of Ms[addr]
  kCpsStoreUni,    // universal store: Ms when the value is a code pointer
  kCpsLoadUni,     // universal load: Ms when it holds a code pointer, else Mu
  kCpsAssertCode,  // value must stem from a code-pointer store

  // --- SoftBound baseline (§5.2 comparison): full spatial memory safety.
  kSbStore,  // pointer store + shadow metadata update
  kSbLoad,   // pointer load + shadow metadata fetch
  kSbCheck,  // checked on every dereference

  // --- CFI baseline: coarse-grained valid-target-set check.
  kCfiCheck,  // target must be an address-taken function

  // --- PtrEnc (PACTight/LIPPEN-style in-place pointer sealing): protected
  // pointers stay in regular memory, carrying a keyed MAC over (value,
  // location) in their unused high bits. No safe-region storage at all.
  kSealStore,       // seal code pointers in place
  kSealLoad,        // authenticate + strip on load
  kSealAssertCode,  // value must have authenticated
};
inline constexpr size_t kIntrinsicCount = static_cast<size_t>(IntrinsicId::kSealAssertCode) + 1;

// The operand/result signature of an intrinsic.
enum class IntrinsicShape {
  kStore,   // (addr, value) -> void ; writes memory
  kLoad,    // (addr) -> value
  kCheck,   // (addr, access_size) -> void
  kAssert,  // (fnptr) -> fnptr
};

struct IntrinsicInfo {
  IntrinsicId id;
  const char* name;
  IntrinsicShape shape;
  bool seal;  // a PtrEnc seal operation (counted as seal ops, not safe-store ops)
};

const IntrinsicInfo& Info(IntrinsicId id);
inline const char* IntrinsicName(IntrinsicId id) { return Info(id).name; }

// Libc-style functions with VM-implemented semantics. The unbounded ones
// (strcpy/strcat) are the classic overflow vectors RIPE uses.
enum class LibFunc {
  kStrcpy,
  kStrncpy,
  kStrcat,
  kStrlen,
  kStrcmp,
  kMemcpy,
  kMemset,
  kMemmove,
  kInputBytes,  // copies up to `max` program input bytes, returns the count
};
inline constexpr size_t kLibFuncCount = static_cast<size_t>(LibFunc::kInputBytes) + 1;

struct LibFuncInfo {
  LibFunc id;
  const char* name;      // the C spelling the frontend accepts
  const char* operands;  // one letter per operand: 'p' pointer, 'i' integer
  bool returns_dst;      // the result is operand 0 (its pointer type); else i64
  // Writes memory: the memory transfers whose checked variant moves
  // protected pointers along with the bytes.
  bool writes_memory;
  bool c_string;  // a C-string routine (the classifier's char* heuristic)
};

const LibFuncInfo& Info(LibFunc f);
// The row spelled `name`, or nullptr.
const LibFuncInfo* FindLibFunc(std::string_view name);
inline const char* LibFuncName(LibFunc f) { return Info(f).name; }
// The classifier, SoftBound and the optimizer's clobber test all ask this.
inline bool IsMemTransfer(LibFunc f) { return Info(f).writes_memory; }

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_INTRINSICS_H_
