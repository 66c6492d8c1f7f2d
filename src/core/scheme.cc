#include "src/core/scheme.h"

#include <algorithm>
#include <utility>

#include "src/support/check.h"

namespace cpi::core {

std::string DescribeStageTags(uint32_t tags) {
  static constexpr struct {
    StageTag tag;
    const char* name;
  } kNames[] = {
      {kTagStackLayout, "stack-layout"}, {kTagPtrLoads, "ptr-loads"},
      {kTagPtrStores, "ptr-stores"},     {kTagICalls, "icalls"},
      {kTagRetMac, "ret-mac"},
  };
  std::string out = "{";
  for (const auto& entry : kNames) {
    if ((tags & entry.tag) == 0) {
      continue;
    }
    if (out.size() > 1) {
      out += ", ";
    }
    out += entry.name;
  }
  out += "}";
  return out;
}

ProtectionScheme::ProtectionScheme(Spec spec) : spec_(std::move(spec)) {
  std::stable_sort(spec_.stages.begin(), spec_.stages.end(),
                   [](const PipelineStage& a, const PipelineStage& b) {
                     return a.order < b.order;
                   });
}

void ProtectionScheme::Instrument(ir::Module& module,
                                  const instrument::PassOptions& options) const {
  for (const PipelineStage& stage : spec_.stages) {
    stage.run(module, options);
  }
  instrument::FinalizeModule(module);
}

void ProtectionScheme::ConfigureClassification(analysis::ClassifyOptions& options) const {
  if (spec_.classification.has_value()) {
    options.protection = *spec_.classification;
  }
}

void ProtectionScheme::ContributeOptPasses(opt::PassManager& pm) const {
  for (const auto& create : spec_.opt_passes) {
    pm.Add(create());
  }
}

namespace {

// Union of the write tags of every stage (the conflict signature).
uint32_t StageWrites(const ProtectionScheme& scheme) {
  uint32_t writes = 0;
  for (const PipelineStage& stage : scheme.spec().stages) {
    writes |= stage.writes;
  }
  return writes;
}

}  // namespace

std::unique_ptr<ProtectionScheme> ComposeSchemes(
    const std::vector<const ProtectionScheme*>& parts, std::string* error) {
  CPI_CHECK(error != nullptr);
  CPI_CHECK(!parts.empty());
  for (const ProtectionScheme* p : parts) {
    CPI_CHECK(p != nullptr);
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = i + 1; j < parts.size(); ++j) {
      if (parts[i] == parts[j]) {
        *error = std::string("scheme '") + parts[i]->name() +
                 "' appears twice in the composite";
        return nullptr;
      }
      const uint32_t overlap = StageWrites(*parts[i]) & StageWrites(*parts[j]);
      if (overlap != 0) {
        *error = std::string("conflict: '") + parts[i]->name() + "' and '" +
                 parts[j]->name() + "' both write " + DescribeStageTags(overlap);
        return nullptr;
      }
    }
  }
  error->clear();
  ProtectionScheme::Spec merged;
  merged.id = parts.front()->id();
  merged.reporting = SchemeReporting{false, false, false, /*composite_table=*/true};
  for (const ProtectionScheme* part : parts) {
    const ProtectionScheme::Spec& spec = part->spec();
    if (!merged.name.empty()) {
      merged.name += "+";
      merged.description += " + ";
    }
    merged.name += spec.name;
    merged.description += spec.description;
    merged.stages.insert(merged.stages.end(), spec.stages.begin(), spec.stages.end());
    merged.uses_safe_store |= spec.uses_safe_store;
    if (spec.classification.has_value()) {
      merged.classification = spec.classification;
    }
    merged.opt_passes.insert(merged.opt_passes.end(), spec.opt_passes.begin(),
                             spec.opt_passes.end());
  }
  return std::make_unique<ProtectionScheme>(std::move(merged));
}

namespace {

// Stage order values are pairwise distinct across every built-in, so the
// merged schedule of any conflict-free composite is the same no matter how
// the components were listed: rewrites (10–18) before layout (30–32) before
// the return-MAC flag (40).
constexpr int kOrderSoftBound = 10;
constexpr int kOrderCfi = 12;
constexpr int kOrderCpsRewrites = 14;
constexpr int kOrderCpiRewrites = 16;
constexpr int kOrderPtrEncRewrites = 18;
constexpr int kOrderSafeStack = 30;
constexpr int kOrderCookies = 32;
constexpr int kOrderRetChain = 40;

constexpr PipelineStage kSafeStackStage = {"safestack-layout", kOrderSafeStack,
                                           kTagStackLayout, instrument::ApplySafeStack};

// The built-in rows, weakest to strongest, matching the §5.1 matrix
// ordering; the paper's evaluation columns (SafeStack/CPS/CPI + PtrEnc) opt
// into overhead_column.
std::vector<ProtectionScheme::Spec> BuiltinSpecs() {
  using Spec = ProtectionScheme::Spec;
  std::vector<Spec> specs;
  specs.push_back(Spec{Protection::kNone, "vanilla", "No protection", {},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{false, true, false}, {}});
  specs.push_back(Spec{Protection::kStackCookies, "cookies", "Stack cookies",
                       {{"cookie-prologues", kOrderCookies, kTagStackLayout,
                         instrument::ApplyStackCookiesRewrites}},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{false, true, true}, {}});
  specs.push_back(Spec{Protection::kCfi, "cfi", "Control-Flow Integrity",
                       {{"cfi-icall-checks", kOrderCfi, kTagICalls,
                         instrument::ApplyCfiRewrites}},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{false, true, true}, {}});
  specs.push_back(Spec{Protection::kSafeStack, "safestack", "Safe Stack",
                       {kSafeStackStage},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{true, true, true}, {}});
  specs.push_back(Spec{Protection::kCps, "cps", "Code-Pointer Separation",
                       {{"cps-rewrites", kOrderCpsRewrites,
                         kTagPtrLoads | kTagPtrStores | kTagICalls,
                         instrument::ApplyCpsRewrites},
                        kSafeStackStage},
                       /*uses_safe_store=*/true, analysis::Protection::kCps,
                       SchemeReporting{true, true, true}, {}});
  specs.push_back(Spec{Protection::kCpi, "cpi", "Code-Pointer Integrity",
                       {{"cpi-rewrites", kOrderCpiRewrites,
                         kTagPtrLoads | kTagPtrStores | kTagICalls,
                         instrument::ApplyCpiRewrites},
                        kSafeStackStage},
                       /*uses_safe_store=*/true, analysis::Protection::kCpi,
                       SchemeReporting{true, true, true}, {}});
  specs.push_back(Spec{Protection::kSoftBound, "softbound", "Memory Safety",
                       {{"softbound-checks", kOrderSoftBound,
                         kTagPtrLoads | kTagPtrStores,
                         instrument::ApplySoftBoundRewrites}},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{false, true, true}, {}});
  // Seal→auth pair elision folds the pattern only this scheme emits.
  specs.push_back(Spec{Protection::kPtrEnc, "ptrenc", "In-Place Pointer Encryption",
                       {{"ptrenc-rewrites", kOrderPtrEncRewrites,
                         kTagPtrLoads | kTagPtrStores | kTagICalls | kTagRetMac,
                         instrument::ApplyPtrEncRewrites}},
                       /*uses_safe_store=*/false, analysis::Protection::kCps,
                       SchemeReporting{true, true, true},
                       {opt::CreateSealElisionPass}});
  // PACStack-style chained return MACs: return protection only, so it
  // stacks onto data-pointer schemes. Reports into the composite table —
  // the frozen single-scheme tables stay byte-identical.
  specs.push_back(Spec{Protection::kPtrEncRetChain, "ptrenc-ret-chain",
                       "Chained Return Authentication",
                       {{"ret-chain", kOrderRetChain, kTagRetMac, instrument::ApplyRetChain}},
                       /*uses_safe_store=*/false, std::nullopt,
                       SchemeReporting{false, false, false, /*composite_table=*/true},
                       {}});
  return specs;
}

// The fixed table: the built-in rows, then the blessed composites of the
// evaluation — pointer sealing over an isolated return stack, and full CPI
// with chain-authenticated returns. Built once and never freed.
std::vector<const ProtectionScheme*> BuildTable() {
  std::vector<const ProtectionScheme*> all;
  for (ProtectionScheme::Spec& spec : BuiltinSpecs()) {
    all.push_back(new ProtectionScheme(std::move(spec)));
  }
  const auto find = [&all](std::string_view name) {
    const auto it = std::find_if(all.begin(), all.end(), [name](const ProtectionScheme* s) {
      return name == s->name();
    });
    CPI_CHECK(it != all.end());
    return *it;
  };
  for (const auto& [a, b] : {std::pair{"ptrenc", "safestack"},
                             std::pair{"cpi", "ptrenc-ret-chain"}}) {
    std::string error;
    all.push_back(ComposeSchemes({find(a), find(b)}, &error).release());
    CPI_CHECK(all.back() != nullptr);
  }
  return all;
}

std::vector<const ProtectionScheme*> Filter(bool SchemeReporting::*flag) {
  std::vector<const ProtectionScheme*> out;
  for (const ProtectionScheme* s : SchemeRegistry::All()) {
    if (s->spec().reporting.*flag) {
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

const std::vector<const ProtectionScheme*>& SchemeRegistry::All() {
  static const auto* all = new std::vector<const ProtectionScheme*>(BuildTable());
  return *all;
}

const ProtectionScheme& SchemeRegistry::Get(Protection p) {
  for (const ProtectionScheme* s : All()) {
    if (s->id() == p) {
      return *s;
    }
  }
  CPI_UNREACHABLE();
}

const ProtectionScheme* SchemeRegistry::FindByName(std::string_view name) {
  for (const ProtectionScheme* s : All()) {
    if (name == s->name()) {
      return s;
    }
  }
  return nullptr;
}

std::vector<const ProtectionScheme*> SchemeRegistry::OverheadColumns() {
  return Filter(&SchemeReporting::overhead_column);
}

std::vector<const ProtectionScheme*> SchemeRegistry::RipeRows() {
  return Filter(&SchemeReporting::ripe_row);
}

std::vector<const ProtectionScheme*> SchemeRegistry::DefenseRows() {
  return Filter(&SchemeReporting::defense_row);
}

std::vector<const ProtectionScheme*> SchemeRegistry::CompositeTableRows() {
  return Filter(&SchemeReporting::composite_table);
}

}  // namespace cpi::core
