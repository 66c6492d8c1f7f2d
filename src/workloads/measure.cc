#include "src/workloads/measure.h"

#include <algorithm>

#include "src/ir/clone.h"
#include "src/support/check.h"
#include "src/support/pool.h"

namespace cpi::workloads {

std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs) {
  std::vector<std::unique_ptr<ir::Module>> built(workloads.size());
  ParallelFor(jobs, workloads.size(), [&](size_t i) { built[i] = workloads[i].build(scale); });
  return built;
}

vm::RunResult RunCell(const ir::Module& built, const Workload& workload,
                      const core::Config& config) {
  auto module = ir::CloneModule(built);
  return core::InstrumentAndRun(*module, config, workload.input);
}

CellKey CanonicalKey(const std::string& workload, const core::Config& config) {
  CPI_CHECK(config.faults == nullptr);
  const core::ProtectionScheme* scheme = &core::SchemeOf(config);
  const bool vanilla = scheme == &core::SchemeRegistry::Get(core::Protection::kNone);
  // Every Config field except `protection` (subsumed by the resolved
  // scheme), `reference_interpreter` (subsumed by the engine) and `faults`
  // (checked null above) appears here; a new Config field must be added
  // too, or two configurations would alias.
  return {workload,
          scheme,
          config.store,
          config.isolation,
          config.shards,
          config.migrate && config.shards > 1,
          config.debug_mode,
          config.temporal,
          config.char_star_heuristic,
          config.cast_dataflow,
          config.mpx_assist,
          config.reference_interpreter ? vm::EngineKind::kReference : config.engine,
          vanilla ? 0 : config.opt_level,
          config.thread_quantum,
          config.max_steps,
          config.seed};
}

std::vector<vm::RunResult> CellMemo::Run(const std::vector<CellRequest>& cells) {
  std::vector<CellKey> keys;
  keys.reserve(cells.size());
  // The cells to run now (the first request of each new key, in request
  // order, indexed into `batch`) and the workloads they need built.
  std::map<CellKey, size_t> fresh;
  std::vector<const CellRequest*> batch;
  std::vector<Workload> unbuilt;
  for (const CellRequest& cell : cells) {
    CPI_CHECK(cell.workload != nullptr);
    keys.push_back(CanonicalKey(cell.workload->name, cell.config));
    if (results_.count(keys.back()) != 0 || !fresh.emplace(keys.back(), batch.size()).second) {
      continue;
    }
    batch.push_back(&cell);
    const std::string& name = cell.workload->name;
    if (built_.count(name) == 0 &&
        std::none_of(unbuilt.begin(), unbuilt.end(),
                     [&name](const Workload& w) { return w.name == name; })) {
      unbuilt.push_back(*cell.workload);
    }
  }

  std::vector<std::unique_ptr<ir::Module>> modules = BuildWorkloads(unbuilt, scale_, jobs_);
  for (size_t i = 0; i < unbuilt.size(); ++i) {
    built_[unbuilt[i].name] = std::move(modules[i]);
  }
  std::vector<vm::RunResult> ran(batch.size());
  ParallelFor(jobs_, batch.size(), [&](size_t i) {
    const CellRequest& cell = *batch[i];
    ran[i] = RunCell(*built_.at(cell.workload->name), *cell.workload, cell.config);
  });
  for (const auto& [key, i] : fresh) {
    results_.emplace(key, std::move(ran[i]));
  }
  executed_ += batch.size();

  std::vector<vm::RunResult> out;
  out.reserve(cells.size());
  for (const CellKey& key : keys) {
    out.push_back(results_.at(key));
  }
  return out;
}

const ir::Module& CellMemo::Built(const Workload& workload) {
  std::unique_ptr<ir::Module>& module = built_[workload.name];
  if (module == nullptr) {
    module = workload.build(scale_);
  }
  return *module;
}

}  // namespace cpi::workloads
