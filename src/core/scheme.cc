#include "src/core/scheme.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

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

void RunStagePipeline(std::vector<PipelineStage> stages, ir::Module& module,
                      const instrument::PassOptions& options) {
  std::stable_sort(stages.begin(), stages.end(),
                   [](const PipelineStage& a, const PipelineStage& b) {
                     return a.order < b.order;
                   });
  for (const PipelineStage& stage : stages) {
    stage.run(module, options);
  }
  instrument::FinalizeModule(module);
}

uint32_t ProtectionScheme::StageWrites() const {
  uint32_t writes = 0;
  for (const PipelineStage& stage : Stages()) {
    writes |= stage.writes;
  }
  return writes;
}

// ---------------------------------------------------------------------------
// CompositeScheme

CompositeScheme::CompositeScheme(std::vector<const ProtectionScheme*> parts)
    : parts_(std::move(parts)) {
  for (const ProtectionScheme* p : parts_) {
    if (!name_.empty()) {
      name_ += "+";
      description_ += " + ";
    }
    name_ += p->name();
    description_ += p->description();
  }
}

std::unique_ptr<CompositeScheme> CompositeScheme::Make(
    std::vector<const ProtectionScheme*> parts, std::string* error) {
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
      const uint32_t overlap = parts[i]->StageWrites() & parts[j]->StageWrites();
      if (overlap != 0) {
        *error = std::string("conflict: '") + parts[i]->name() + "' and '" +
                 parts[j]->name() + "' both write " + DescribeStageTags(overlap);
        return nullptr;
      }
    }
  }
  error->clear();
  return std::unique_ptr<CompositeScheme>(new CompositeScheme(std::move(parts)));
}

std::vector<PipelineStage> CompositeScheme::Stages() const {
  std::vector<PipelineStage> stages;
  for (const ProtectionScheme* p : parts_) {
    for (PipelineStage& stage : p->Stages()) {
      stages.push_back(std::move(stage));
    }
  }
  return stages;
}

bool CompositeScheme::UsesSafeStore() const {
  for (const ProtectionScheme* p : parts_) {
    if (p->UsesSafeStore()) {
      return true;
    }
  }
  return false;
}

void CompositeScheme::ConfigureClassification(
    analysis::ClassifyOptions& options) const {
  for (const ProtectionScheme* p : parts_) {
    p->ConfigureClassification(options);
  }
}

void CompositeScheme::ContributeOptPasses(opt::PassManager& pm) const {
  for (const ProtectionScheme* p : parts_) {
    p->ContributeOptPasses(pm);
  }
}

namespace {

// The built-in schemes share one implementation driven by a descriptor; an
// out-of-tree scheme subclasses ProtectionScheme directly instead.
class BuiltinScheme final : public ProtectionScheme {
 public:
  struct Spec {
    Protection id;
    const char* name;
    const char* description;
    // Instrumentation as pipeline stages (empty for vanilla: the pipeline
    // runner's FinalizeModule is the whole pass).
    std::vector<PipelineStage> stages;
    bool uses_safe_store = false;
    // Sensitivity criterion, when the scheme runs the classifier.
    std::optional<analysis::Protection> classification;
    SchemeReporting reporting;
    // Scheme-specific optimizer cleanup (may be null).
    void (*contribute_opt)(opt::PassManager&) = nullptr;
  };

  explicit BuiltinScheme(Spec spec) : spec_(std::move(spec)) {}

  Protection id() const override { return spec_.id; }
  const char* name() const override { return spec_.name; }
  const char* description() const override { return spec_.description; }

  std::vector<PipelineStage> Stages() const override { return spec_.stages; }

  bool UsesSafeStore() const override { return spec_.uses_safe_store; }

  void ConfigureClassification(analysis::ClassifyOptions& options) const override {
    if (spec_.classification.has_value()) {
      options.protection = *spec_.classification;
    }
  }

  SchemeReporting reporting() const override { return spec_.reporting; }

  void ContributeOptPasses(opt::PassManager& pm) const override {
    if (spec_.contribute_opt != nullptr) {
      spec_.contribute_opt(pm);
    }
  }

 private:
  Spec spec_;
};

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

struct Registry {
  std::vector<std::unique_ptr<ProtectionScheme>> owned;
  std::vector<const ProtectionScheme*> all;

  void Add(std::unique_ptr<ProtectionScheme> scheme) {
    CPI_CHECK(scheme != nullptr);
    for (const ProtectionScheme* existing : all) {
      if (std::string_view(existing->name()) == scheme->name()) {
        std::fprintf(stderr,
                     "SchemeRegistry::Register: duplicate scheme name '%s'\n",
                     scheme->name());
        std::abort();
      }
    }
    all.push_back(scheme.get());
    owned.push_back(std::move(scheme));
  }

  void AddComposite(std::initializer_list<const char*> part_names) {
    std::vector<const ProtectionScheme*> parts;
    for (const char* name : part_names) {
      const ProtectionScheme* found = nullptr;
      for (const ProtectionScheme* s : all) {
        if (std::string_view(s->name()) == name) {
          found = s;
          break;
        }
      }
      CPI_CHECK(found != nullptr);
      parts.push_back(found);
    }
    std::string error;
    std::unique_ptr<CompositeScheme> composite =
        CompositeScheme::Make(std::move(parts), &error);
    CPI_CHECK(composite != nullptr);
    Add(std::move(composite));
  }

  Registry() {
    // Weakest to strongest, matching the §5.1 matrix ordering; the paper's
    // evaluation columns (SafeStack/CPS/CPI + PtrEnc) opt into
    // overhead_column.
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kNone, "vanilla", "No protection",
        {},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{false, true, false}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kStackCookies, "cookies", "Stack cookies",
        {{"cookie-prologues", kOrderCookies, kTagStackLayout,
          instrument::ApplyStackCookiesRewrites}},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{false, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kCfi, "cfi", "Control-Flow Integrity",
        {{"cfi-icall-checks", kOrderCfi, kTagICalls, instrument::ApplyCfiRewrites}},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{false, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kSafeStack, "safestack", "Safe Stack",
        {kSafeStackStage},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{true, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kCps, "cps", "Code-Pointer Separation",
        {{"cps-rewrites", kOrderCpsRewrites,
          kTagPtrLoads | kTagPtrStores | kTagICalls,
          instrument::ApplyCpsRewrites},
         kSafeStackStage},
        /*uses_safe_store=*/true, analysis::Protection::kCps,
        SchemeReporting{true, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kCpi, "cpi", "Code-Pointer Integrity",
        {{"cpi-rewrites", kOrderCpiRewrites,
          kTagPtrLoads | kTagPtrStores | kTagICalls,
          instrument::ApplyCpiRewrites},
         kSafeStackStage},
        /*uses_safe_store=*/true, analysis::Protection::kCpi,
        SchemeReporting{true, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kSoftBound, "softbound", "Memory Safety",
        {{"softbound-checks", kOrderSoftBound, kTagPtrLoads | kTagPtrStores,
          instrument::ApplySoftBoundRewrites}},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{false, true, true}}));
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kPtrEnc, "ptrenc", "In-Place Pointer Encryption",
        {{"ptrenc-rewrites", kOrderPtrEncRewrites,
          kTagPtrLoads | kTagPtrStores | kTagICalls | kTagRetMac,
          instrument::ApplyPtrEncRewrites}},
        /*uses_safe_store=*/false, analysis::Protection::kCps,
        SchemeReporting{true, true, true},
        // Seal→auth pair elision folds the pattern only this scheme emits.
        +[](opt::PassManager& pm) { pm.Add(opt::CreateSealElisionPass()); }}));
    // PACStack-style chained return MACs: return protection only, so it
    // stacks onto data-pointer schemes. Reports into the composite table —
    // the frozen single-scheme tables stay byte-identical.
    Add(std::make_unique<BuiltinScheme>(BuiltinScheme::Spec{
        Protection::kPtrEncRetChain, "ptrenc-ret-chain",
        "Chained Return Authentication",
        {{"ret-chain", kOrderRetChain, kTagRetMac, instrument::ApplyRetChain}},
        /*uses_safe_store=*/false, std::nullopt,
        SchemeReporting{false, false, false, /*composite_table=*/true}}));
    // The blessed composites of the evaluation: pointer sealing over an
    // isolated return stack, and full CPI with chain-authenticated returns.
    AddComposite({"ptrenc", "safestack"});
    AddComposite({"cpi", "ptrenc-ret-chain"});
  }
};

Registry& TheRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

std::vector<const ProtectionScheme*> Filter(bool SchemeReporting::*flag) {
  std::vector<const ProtectionScheme*> out;
  for (const ProtectionScheme* s : SchemeRegistry::All()) {
    if (s->reporting().*flag) {
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

const std::vector<const ProtectionScheme*>& SchemeRegistry::All() {
  return TheRegistry().all;
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

const ProtectionScheme& SchemeRegistry::Register(
    std::unique_ptr<ProtectionScheme> scheme) {
  CPI_CHECK(scheme != nullptr);
  Registry& registry = TheRegistry();
  registry.Add(std::move(scheme));
  return *registry.all.back();
}

const ProtectionScheme* SchemeRegistry::FindOrRegisterComposite(
    std::string_view spec, std::string* error) {
  CPI_CHECK(error != nullptr);
  error->clear();
  // An exact spelling that is already registered (a plain scheme or a
  // previously built composite) wins outright.
  if (const ProtectionScheme* existing = FindByName(spec)) {
    return existing;
  }
  std::vector<const ProtectionScheme*> parts;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find('+', begin);
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const std::string_view component = spec.substr(begin, end - begin);
    const ProtectionScheme* part =
        component.empty() ? nullptr : FindByName(component);
    if (part == nullptr) {
      *error = "unknown scheme '" + std::string(component) + "' in '" +
               std::string(spec) + "'";
      return nullptr;
    }
    parts.push_back(part);
    begin = end + 1;
  }
  // A single unknown name lands above; a single known name was found by the
  // exact-spelling lookup, so reaching here means a genuine composite.
  std::unique_ptr<CompositeScheme> composite =
      CompositeScheme::Make(std::move(parts), error);
  if (composite == nullptr) {
    return nullptr;
  }
  return &Register(std::move(composite));
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
