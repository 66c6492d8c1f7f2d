// The CPI, CPS and PtrEnc instrumentation passes (§3.2.2, §3.3).
//
// The three are one classifier-driven rule over the rewrite walker. They
// differ only in the sensitivity criterion (via analysis::Classifier) and in
// which intrinsics they emit: CPI maintains full based-on metadata and checks
// sensitive dereferences, CPS only moves code pointers through the safe
// store, and PtrEnc protects CPS's sites in place, PACTight/LIPPEN-style:
// a protected store seals the pointer (keyed MAC in its unused high bits,
// bound to the storage location), a protected load authenticates it, and an
// indirect call asserts that its target authenticated. The VM also seals
// PtrEnc's saved return tokens in place (ProtectionFlags::ptrenc), so that
// scheme needs neither a safe pointer store nor a safe stack.
#include "src/analysis/classify.h"
#include "src/instrument/passes.h"
#include "src/instrument/rewrite.h"

namespace cpi::instrument {
namespace {

using analysis::FunctionClassification;
using analysis::MemOpClass;
using ir::Instruction;
using ir::IntrinsicId;
using ir::Opcode;

struct IntrinsicSet {
  analysis::Protection criterion;
  bool ir::ProtectionFlags::*flag;
  // The debug mirror and temporal ids (§3.2.2, §4) live in the safe store,
  // so only the safe-store sets record those modes.
  bool safe_store;
  IntrinsicId store;
  IntrinsicId store_uni;
  IntrinsicId load;
  IntrinsicId load_uni;
  IntrinsicId assert_code;
};

constexpr IntrinsicSet kCpiIntrinsics = {
    analysis::Protection::kCpi, &ir::ProtectionFlags::cpi, true,
    IntrinsicId::kCpiStore,     IntrinsicId::kCpiStoreUni, IntrinsicId::kCpiLoad,
    IntrinsicId::kCpiLoadUni,   IntrinsicId::kCpiAssertCode};
constexpr IntrinsicSet kCpsIntrinsics = {
    analysis::Protection::kCps, &ir::ProtectionFlags::cps, true,
    IntrinsicId::kCpsStore,     IntrinsicId::kCpsStoreUni, IntrinsicId::kCpsLoad,
    IntrinsicId::kCpsLoadUni,   IntrinsicId::kCpsAssertCode};
// In-place sealing dispatches on the stored word itself, so the definite and
// universal variants collapse into one intrinsic each.
constexpr IntrinsicSet kPtrEncIntrinsics = {
    analysis::Protection::kCps, &ir::ProtectionFlags::ptrenc, false,
    IntrinsicId::kSealStore,    IntrinsicId::kSealStore, IntrinsicId::kSealLoad,
    IntrinsicId::kSealLoad,     IntrinsicId::kSealAssertCode};

SiteRewrite ProtectSite(const FunctionClassification& fc, const IntrinsicSet& ids,
                        const Instruction& inst) {
  SiteRewrite site;
  switch (inst.op()) {
    case Opcode::kLoad:
    case Opcode::kStore: {
      // Bounds check on dereferences through sensitive pointers (CPI only;
      // the classifier leaves this set empty for the CPS criterion).
      if (fc.needs_bounds_check.count(&inst) > 0) {
        site.check = IntrinsicId::kCpiBoundsCheck;
      }
      auto it = fc.mem_ops.find(&inst);
      if (it != fc.mem_ops.end() && it->second != MemOpClass::kNone) {
        const bool uni = it->second == MemOpClass::kProtectedUni;
        site.replace = inst.op() == Opcode::kLoad ? (uni ? ids.load_uni : ids.load)
                                                  : (uni ? ids.store_uni : ids.store);
      }
      break;
    }
    case Opcode::kLibCall:
      site.checked_libcall = fc.checked_libcalls.count(&inst) > 0;
      break;
    case Opcode::kIndirectCall:
      // The target must be a protected code pointer; the call goes through
      // the asserted value.
      site.call_check = ids.assert_code;
      break;
    default:
      break;
  }
  return site;
}

void InstrumentModule(ir::Module& module, const PassOptions& options,
                      const IntrinsicSet& ids) {
  CPI_CHECK(!module.protection().cpi && !module.protection().cps &&
            !module.protection().softbound && !module.protection().ptrenc);

  analysis::ClassifyOptions copts;
  copts.protection = ids.criterion;
  copts.char_star_heuristic = options.char_star_heuristic;
  copts.cast_dataflow = options.cast_dataflow;
  const analysis::Classifier classifier(module, copts);

  for (const auto& f : module.functions()) {
    const FunctionClassification& fc = classifier.ForFunction(f.get());
    RewriteFunction(module, *f,
                    [&](const Instruction& inst) { return ProtectSite(fc, ids, inst); });
  }

  module.protection().*ids.flag = true;
  if (ids.safe_store) {
    module.protection().debug_mode = options.debug_mode;
    module.protection().temporal = options.temporal;
  }
}

}  // namespace

void ApplyCpiRewrites(ir::Module& module, const PassOptions& options) {
  InstrumentModule(module, options, kCpiIntrinsics);
}

void ApplyCpsRewrites(ir::Module& module, const PassOptions& options) {
  InstrumentModule(module, options, kCpsIntrinsics);
}

void ApplyPtrEncRewrites(ir::Module& module, const PassOptions& options) {
  // PtrEnc owns the plain sealed-return-slot format; the chained variant
  // must not stack on top of it (the scheme layer rejects the combination
  // as a ret-mac write conflict before instrumentation ever runs).
  CPI_CHECK(!module.protection().ret_chain);
  InstrumentModule(module, options, kPtrEncIntrinsics);
}

}  // namespace cpi::instrument
