#include "src/workloads/measure.h"

#include <algorithm>
#include <cstdio>

#include "src/ir/clone.h"
#include "src/support/check.h"
#include "src/support/pool.h"
#include "src/support/stats.h"

namespace cpi::workloads {

double Measurement::OverheadPct(const core::ProtectionScheme* scheme) const {
  const auto it = overhead_pct.find(scheme);
  if (it == overhead_pct.end()) {
    const auto st = status.find(scheme);
    std::fprintf(stderr, "workload %s: no overhead for scheme %s (status: %s)\n",
                 workload.c_str(), scheme->name(),
                 st == status.end() ? "not measured" : vm::RunStatusName(st->second));
    CPI_CHECK(it != overhead_pct.end());
  }
  return it->second;
}

std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs) {
  std::vector<std::unique_ptr<ir::Module>> built(workloads.size());
  ParallelFor(jobs, workloads.size(), [&](size_t i) { built[i] = workloads[i].build(scale); });
  return built;
}

CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const core::Config& config) {
  auto module = ir::CloneModule(built);
  core::Compiler(config).Instrument(*module);
  const vm::RunResult r = core::Run(*module, config, workload.input);
  CellResult out;
  out.status = r.status;
  out.cycles = r.counters.cycles;
  out.memory_bytes = r.memory.TotalBytes();
  out.safe_store_bytes = r.memory.safe_store_bytes;
  out.safe_store_ops = r.counters.safe_store_ops;
  out.store_contended_ops = r.counters.store_contended_ops;
  out.shard_migrations = r.counters.shard_migrations;
  return out;
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

std::vector<CellResult> CellMemo::Run(const std::vector<CellRequest>& cells) {
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
  std::vector<CellResult> ran(batch.size());
  ParallelFor(jobs_, batch.size(), [&](size_t i) {
    const CellRequest& cell = *batch[i];
    ran[i] = RunCell(*built_.at(cell.workload->name), *cell.workload, cell.config);
  });
  for (const auto& [key, i] : fresh) {
    results_.emplace(key, ran[i]);
  }
  executed_ += batch.size();

  std::vector<CellResult> out;
  out.reserve(cells.size());
  for (const CellKey& key : keys) {
    out.push_back(results_.at(key));
  }
  return out;
}

std::vector<Measurement> CellMemo::Measure(
    const std::vector<Workload>& workloads,
    const std::vector<const core::ProtectionScheme*>& schemes, const core::Config& base) {
  // Per workload: the vanilla baseline, then each scheme's column.
  std::vector<core::Config> configs(1 + schemes.size(), base);
  configs[0].scheme = &core::SchemeRegistry::Get(core::Protection::kNone);
  for (size_t si = 0; si < schemes.size(); ++si) {
    configs[1 + si].scheme = schemes[si];
  }
  std::vector<CellRequest> cells;
  cells.reserve(workloads.size() * configs.size());
  for (const Workload& w : workloads) {
    for (const core::Config& config : configs) {
      cells.push_back({&w, config});
    }
  }
  const std::vector<CellResult> results = Run(cells);

  std::vector<Measurement> out;
  out.reserve(workloads.size());
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const CellResult* row = &results[wi * configs.size()];
    CPI_CHECK(row[0].status == vm::RunStatus::kOk);
    Measurement m;
    m.workload = workloads[wi].name;
    m.language = workloads[wi].language;
    m.vanilla_cycles = row[0].cycles;
    for (size_t si = 0; si < schemes.size(); ++si) {
      const CellResult& r = row[1 + si];
      m.status[schemes[si]] = r.status;
      if (r.status == vm::RunStatus::kOk) {
        m.overhead_pct[schemes[si]] = OverheadPercent(static_cast<double>(r.cycles),
                                                      static_cast<double>(m.vanilla_cycles));
      }
    }
    out.push_back(std::move(m));
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

std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   const core::ProtectionScheme* scheme,
                                   const std::string& language) {
  std::vector<double> column;
  for (const auto& m : measurements) {
    if (language.empty() || m.language == language) {
      column.push_back(m.OverheadPct(scheme));
    }
  }
  return column;
}

}  // namespace cpi::workloads
