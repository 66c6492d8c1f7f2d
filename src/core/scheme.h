// The ProtectionScheme extension point.
//
// The paper's Levee prototype (§4) composes a protection out of (a)
// instrumentation passes, (b) runtime support, (c) a sensitivity analysis
// configuration and (d) an evaluation harness. A ProtectionScheme bundles
// those four facets into one self-describing object, and the SchemeRegistry
// makes the set of schemes open-ended: the compiler facade, the VM option
// plumbing and every bench driver iterate the registry instead of switching
// on an enum, so adding a defense means registering one object — no edits
// across layers.
//
// Instrumentation is declared as a *staged pipeline*: a scheme exposes a
// list of named, ordered PipelineStages, each tagged with the module aspects
// it writes (stack layout, pointer loads/stores, indirect calls, the saved
// return-token format). The default Instrument runs the stages through a
// deterministic scheduler, which is what makes schemes stackable: a
// CompositeScheme merges the stage lists of N component schemes, rejects
// combinations whose write tags overlap, and merges the runtime facets
// (safe-store use OR'd, classification and optimizer contributions applied
// in pipeline order). Every scheme runs under the VM's one fixed op-cost
// table (vm/machine.cc), so a scheme supplies no costs.
//
// The seven protections of the paper's evaluation (vanilla, SafeStack, CPS,
// CPI, SoftBound, coarse CFI, stack cookies) are registered built-ins, as is
// PtrEnc, the PACTight/LIPPEN-style in-place pointer-sealing scheme that
// exercises the "fundamentally different runtime shape" case: no safe region
// at all. On top of the pipeline come ptrenc-ret-chain (PACStack-style
// chained return MACs — return protection only, so it stacks onto data
// schemes) and the two registered composites, ptrenc+safestack and
// cpi+ptrenc-ret-chain.
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
// CompositeScheme::Make rejects them instead of picking an order silently.
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

// One named unit of instrumentation. Stages are merged across schemes by
// `order` (stable: equal orders keep declaration order), so built-ins use
// pairwise-distinct order values — any conflict-free composite schedules the
// same pipeline regardless of the order its components were listed in.
struct PipelineStage {
  const char* name;
  int order = 0;
  uint32_t writes = 0;  // StageTag bitmask
  void (*run)(ir::Module&, const instrument::PassOptions&) = nullptr;
};

// Sorts `stages` by (order, declaration index), runs them, and re-numbers
// the module (instrument::FinalizeModule) — the shared tail every historical
// monolithic Instrument ended with.
void RunStagePipeline(std::vector<PipelineStage> stages, ir::Module& module,
                      const instrument::PassOptions& options);

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
  virtual ~ProtectionScheme() = default;

  virtual Protection id() const = 0;
  // Short reporting name used for table rows/columns ("cpi", "ptrenc").
  virtual const char* name() const = 0;
  // Fig. 5-style mechanism label ("Code-Pointer Integrity").
  virtual const char* description() const = 0;

  // (a) The scheme's instrumentation, as an ordered, conflict-tagged stage
  // list. The default Instrument below runs it through RunStagePipeline;
  // composition (CompositeScheme) merges these lists, so a scheme is
  // stackable exactly when its stages carry honest write tags.
  virtual std::vector<PipelineStage> Stages() const { return {}; }

  // Union of the write tags of every stage (the conflict signature).
  uint32_t StageWrites() const;

  // Applies the scheme's instrumentation passes to a verified module. The
  // default runs the declared stage pipeline; a scheme may still override
  // this directly, at the price of not composing.
  virtual void Instrument(ir::Module& module,
                          const instrument::PassOptions& options) const {
    RunStagePipeline(Stages(), module, options);
  }

  // (b) Runtime requirements: whether a safe pointer store backs the run.
  // ConfigureRun mirrors it into vm::RunOptions::use_safe_store; a scheme
  // without it never allocates one.
  virtual bool UsesSafeStore() const { return false; }
  void ConfigureRun(vm::RunOptions& options) const {
    options.use_safe_store = UsesSafeStore();
  }

  // (c) Classification options for the scheme's sensitivity analysis
  // (schemes without a static analysis leave the defaults untouched).
  virtual void ConfigureClassification(analysis::ClassifyOptions& options) const {
    (void)options;
  }

  // Scheme-specific cleanup passes for the post-instrumentation optimizer
  // (Config::opt_level >= 1). Called after the standard pipeline's analysis
  // passes and before the final DCE, so a scheme can fold patterns only its
  // own instrumentation emits (PtrEnc contributes seal→auth pair elision).
  virtual void ContributeOptPasses(opt::PassManager& pm) const { (void)pm; }

  // (d) Reporting name/columns for the Table 1/2-style output.
  virtual SchemeReporting reporting() const { return {}; }
};

// A stack of component schemes behaving as one scheme: stages merged by the
// deterministic scheduler, safe-store use OR'd, classification options and
// optimizer contributions applied in component order, so a 1-element
// composite is byte-identical to its base scheme. Reports only into the composite
// table, keeping every frozen single-scheme table byte-identical.
class CompositeScheme final : public ProtectionScheme {
 public:
  // Builds a composite of one or more components. Returns nullptr and fills
  // *error when two components' stage write tags overlap (or a component
  // repeats) — such stacks have no order-independent meaning.
  static std::unique_ptr<CompositeScheme> Make(
      std::vector<const ProtectionScheme*> parts, std::string* error);

  // The first component's id. Only SchemeRegistry::Get and perfbench read
  // ids; everything else identifies a scheme by its pointer (SchemeOf). name() is the canonical "a+b" spec string.
  Protection id() const override { return parts_.front()->id(); }
  const char* name() const override { return name_.c_str(); }
  const char* description() const override { return description_.c_str(); }

  std::vector<PipelineStage> Stages() const override;
  bool UsesSafeStore() const override;
  void ConfigureClassification(analysis::ClassifyOptions& options) const override;
  void ContributeOptPasses(opt::PassManager& pm) const override;
  SchemeReporting reporting() const override {
    return SchemeReporting{false, false, false, /*composite_table=*/true};
  }

  const std::vector<const ProtectionScheme*>& parts() const { return parts_; }

 private:
  explicit CompositeScheme(std::vector<const ProtectionScheme*> parts);

  std::vector<const ProtectionScheme*> parts_;
  std::string name_;         // "a+b+..."
  std::string description_;  // "A + B + ..."
};

// Process-global scheme registry. Registration order is reporting order.
class SchemeRegistry {
 public:
  // Every registered scheme: the built-ins (including ptrenc-ret-chain and
  // the two blessed composites), then runtime extensions.
  static const std::vector<const ProtectionScheme*>& All();

  // The built-in (or first registered) scheme with the given id.
  static const ProtectionScheme& Get(Protection p);

  // Lookup by reporting name; nullptr when unknown.
  static const ProtectionScheme* FindByName(std::string_view name);

  // The pluggable extension point: registers an out-of-tree scheme. The
  // registry takes ownership; the scheme outlives every later lookup.
  // Reporting names are the lookup key, so registering a name that is
  // already taken is a fatal error.
  static const ProtectionScheme& Register(std::unique_ptr<ProtectionScheme> scheme);

  // Resolves a "name" or "name+name+..." spec: single names look up the
  // registered scheme, composite specs return the already-registered
  // composite of that spelling or build and register a new one. Returns
  // nullptr and fills *error for unknown components, repeated components or
  // stage write conflicts.
  static const ProtectionScheme* FindOrRegisterComposite(std::string_view spec,
                                                         std::string* error);

  // Reporting filters used by the bench drivers.
  static std::vector<const ProtectionScheme*> OverheadColumns();
  static std::vector<const ProtectionScheme*> RipeRows();
  static std::vector<const ProtectionScheme*> DefenseRows();
  static std::vector<const ProtectionScheme*> CompositeTableRows();
};

}  // namespace cpi::core

#endif  // CPI_SRC_CORE_SCHEME_H_
