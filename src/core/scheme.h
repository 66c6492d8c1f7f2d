// Protection schemes as data.
//
// The paper's Levee prototype (§4) picks each protection from a fixed set of
// compiler flags, each a fixed bundle of (a) instrumentation passes, (b)
// runtime support and (c) a place in the evaluation. A ProtectionScheme is
// that bundle as one Spec row of one concrete class. A scheme's sensitivity
// criterion belongs to its instrumentation pass: the CPI, CPS and PtrEnc
// passes each classify with their own (src/instrument/cpi_pass.cc). The
// compiler facade, the VM option plumbing and every bench driver iterate the
// SchemeRegistry instead of switching on an enum, so a new built-in defense
// is one Spec row in scheme.cc.
//
// Instrumentation is a *staged pipeline*: named, ordered PipelineStages, each
// tagged with the module aspects it writes. The deterministic scheduler makes
// schemes stackable: ComposeSchemes merges the specs of N schemes and rejects
// stacks whose write tags overlap. Every scheme runs under the VM's one fixed
// op-cost table (vm/machine.cc), so a scheme supplies no costs.
//
// The registry is fixed at its first use: the seven protections of the
// paper's evaluation (vanilla, SafeStack, CPS, CPI, SoftBound, coarse CFI,
// stack cookies); PtrEnc, the PACTight/LIPPEN-style in-place pointer sealing
// (CPS's site selection with seal intrinsics, no safe region at all);
// ptrenc-ret-chain (PACStack-style chained return MACs, return protection
// only, so it stacks onto data schemes); and the two blessed composites,
// ptrenc+safestack and cpi+ptrenc-ret-chain. An out-of-tree scheme is a
// ProtectionScheme its caller owns, selected with Config::scheme.
#ifndef CPI_SRC_CORE_SCHEME_H_
#define CPI_SRC_CORE_SCHEME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/classify.h"
#include "src/core/levee.h"
#include "src/instrument/passes.h"
#include "src/opt/pass_manager.h"
#include "src/vm/machine.h"

namespace cpi::core {

// Module aspects a pipeline stage may write. Two schemes compose only when
// their stages' write sets are disjoint — overlapping writers (e.g. CPI and
// CPS both rewriting pointer loads) have no order-independent meaning, so
// ComposeSchemes rejects them instead of picking an order silently.
enum StageTag : uint32_t {
  kTagStackLayout = 1u << 0,  // frame layout: alloca placement, prologues
  kTagPtrLoads = 1u << 1,     // rewrites pointer-typed loads
  kTagPtrStores = 1u << 2,    // rewrites pointer-typed stores
  kTagICalls = 1u << 3,       // rewrites/checks indirect-call sites
  kTagRetMac = 1u << 4,       // owns the saved return-token format
};

// "{stack-layout, icalls}"-style rendering of a StageTag bitmask, for
// conflict diagnostics.
std::string DescribeStageTags(uint32_t tags);

// One named unit of instrumentation. Stages are scheduled by `order`
// (stable: equal orders keep declaration order), so built-ins use
// pairwise-distinct order values — any conflict-free composite schedules the
// same pipeline regardless of the order its components were listed in.
struct PipelineStage {
  const char* name;
  int order = 0;
  uint32_t writes = 0;  // StageTag bitmask
  void (*run)(ir::Module&, const instrument::PassOptions&) = nullptr;
};

// Where the scheme's results appear in the paper-style reports.
struct SchemeReporting {
  // Overhead column in the Table 1 / Fig. 4 / Table 4 / §5.2 memory benches.
  bool overhead_column = false;
  // Row in the §5.1 RIPE-style attack matrix.
  bool ripe_row = true;
  // Row in the Fig. 5 defense-mechanism comparison.
  bool defense_row = true;
  // Row in the composite-scheme table (overhead + attack-matrix columns for
  // stacked schemes; kept out of the frozen single-scheme tables).
  bool composite_table = false;
};

class ProtectionScheme {
 public:
  struct Spec {
    // Only SchemeRegistry::Get and perfbench read ids; everything else
    // identifies a scheme by its pointer (SchemeOf). A composite takes its
    // first component's id.
    Protection id = Protection::kNone;
    // Short reporting name used for table rows/columns ("cpi", "ptrenc";
    // "a+b" for a composite) and the registry's lookup key.
    std::string name;
    // Fig. 5-style mechanism label ("Code-Pointer Integrity").
    std::string description;
    // (a) Instrumentation as pipeline stages (empty for vanilla: the
    // scheduler's FinalizeModule is the whole pass).
    std::vector<PipelineStage> stages;
    // (b) Whether a safe pointer store backs the run; a scheme without it
    // never allocates one.
    bool uses_safe_store = false;
    // (c) Reporting columns for the paper-style tables.
    SchemeReporting reporting;
    // Scheme-specific cleanup passes for the post-instrumentation optimizer,
    // folding patterns only this scheme emits (PtrEnc: seal→auth elision).
    std::vector<std::unique_ptr<opt::Pass> (*)()> opt_passes;
  };

  // Orders the stages once (stable by `order`); Instrument replays them.
  explicit ProtectionScheme(Spec spec);

  Protection id() const { return spec_.id; }
  const char* name() const { return spec_.name.c_str(); }
  const char* description() const { return spec_.description.c_str(); }
  const Spec& spec() const { return spec_; }

  // Runs the scheduled stages on a verified module, then re-numbers it
  // (instrument::FinalizeModule).
  void Instrument(ir::Module& module, const instrument::PassOptions& options) const;

  // Mirrors the safe-store requirement into vm::RunOptions::use_safe_store.
  bool UsesSafeStore() const { return spec_.uses_safe_store; }
  void ConfigureRun(vm::RunOptions& options) const {
    options.use_safe_store = spec_.uses_safe_store;
  }

  // A no-op: the criterion lives in each instrumentation pass. Its one
  // caller is perfbench/layers.cc's traced cell replay, whose statistics
  // ignore ClassifyOptions::protection; ROADMAP item 1 removes that call.
  void ConfigureClassification(analysis::ClassifyOptions& /*options*/) const {}

  // Adds the scheme's cleanup passes (Config::opt_level >= 1). Called after
  // the standard pipeline's analysis passes and before the final DCE.
  void ContributeOptPasses(opt::PassManager& pm) const;

 private:
  Spec spec_;
};

// A stack of schemes behaving as one scheme the caller owns: stages merged
// by the scheduler, safe-store use OR'd, optimizer contributions applied in
// component order, so a 1-element composite is byte-identical to its base
// scheme. Named "a+b+..."; reports only into the composite table, keeping
// every frozen single-scheme table byte-identical. Returns nullptr and fills
// *error when a component repeats or two components' stage write tags
// overlap — such stacks have no order-independent meaning.
std::unique_ptr<ProtectionScheme> ComposeSchemes(
    const std::vector<const ProtectionScheme*>& parts, std::string* error);

// The process-global scheme table, fixed when first used. Table order is
// reporting order.
class SchemeRegistry {
 public:
  // Every scheme: the built-ins (including ptrenc-ret-chain), then the two
  // blessed composites.
  static const std::vector<const ProtectionScheme*>& All();

  // The built-in scheme with the given id.
  static const ProtectionScheme& Get(Protection p);

  // Lookup by reporting name; nullptr when unknown.
  static const ProtectionScheme* FindByName(std::string_view name);

  // Reporting filters used by the bench drivers.
  static std::vector<const ProtectionScheme*> OverheadColumns();
  static std::vector<const ProtectionScheme*> RipeRows();
  static std::vector<const ProtectionScheme*> DefenseRows();
  static std::vector<const ProtectionScheme*> CompositeTableRows();
};

}  // namespace cpi::core

#endif  // CPI_SRC_CORE_SCHEME_H_
