// The PACStack-style chained-return-MAC pass (ProtectionFlags::ret_chain).
//
// Like the paper's safe stack, return protection is a property of the saved
// return token, not of the program's data flow — so this pass rewrites no
// instructions. It records the flag that makes the VM seal every saved
// return token over its predecessor (keyed MAC bound to slot ⊕ previous
// sealed token) and track a per-thread chain head that returns verify
// against: swapping two live tokens, or replaying a stale-but-genuine one,
// breaks the chain even though each token alone would authenticate. PtrEnc
// owns the plain sealed-return-slot format, so the two are mutually
// exclusive (the scheme layer rejects the composite as a ret-mac conflict).
#include "src/instrument/passes.h"
#include "src/support/check.h"

namespace cpi::instrument {

void ApplyRetChain(ir::Module& module, const PassOptions&) {
  CPI_CHECK(!module.protection().ptrenc && !module.protection().ret_chain);
  module.protection().ret_chain = true;
}

}  // namespace cpi::instrument
