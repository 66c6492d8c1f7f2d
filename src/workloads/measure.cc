#include "src/workloads/measure.h"

#include <algorithm>
#include <cstdio>

#include "src/ir/clone.h"
#include "src/support/check.h"
#include "src/support/pool.h"
#include "src/support/stats.h"

namespace cpi::workloads {

double Measurement::OverheadPct(core::Protection p) const {
  const auto it = overhead_pct.find(p);
  if (it == overhead_pct.end()) {
    const auto st = status.find(p);
    std::fprintf(stderr, "workload %s: no overhead for protection %s (status: %s)\n",
                 workload.c_str(), core::ProtectionName(p),
                 st == status.end() ? "not measured" : vm::RunStatusName(st->second));
    CPI_CHECK(it != overhead_pct.end());
  }
  return it->second;
}

std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs) {
  std::vector<std::unique_ptr<ir::Module>> built(workloads.size());
  ThreadPool pool(jobs);
  pool.ParallelFor(workloads.size(),
                   [&](size_t i) { built[i] = workloads[i].build(scale); });
  return built;
}

std::vector<const ir::Module*> ModuleViews(
    const std::vector<std::unique_ptr<ir::Module>>& built) {
  std::vector<const ir::Module*> views;
  views.reserve(built.size());
  for (const auto& m : built) {
    views.push_back(m.get());
  }
  return views;
}

CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const core::Config& config) {
  auto module = ir::CloneModule(built);
  core::Compiler compiler(config);
  const core::CompileOutput co = compiler.Instrument(*module);
  const vm::RunResult r = core::Run(*module, config, workload.input);
  CellResult out;
  out.status = r.status;
  out.cycles = r.counters.cycles;
  out.memory_bytes = r.memory.TotalBytes();
  out.safe_store_bytes = r.memory.safe_store_bytes;
  out.safe_store_ops = r.counters.safe_store_ops;
  out.store_contended_ops = r.counters.store_contended_ops;
  out.shard_migrations = r.counters.shard_migrations;
  out.stats = co.stats;
  return out;
}

std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs) {
  CPI_CHECK(workloads.size() == built.size());
  std::vector<CellResult> results(cells.size());
  ThreadPool pool(jobs);
  pool.ParallelFor(cells.size(), [&](size_t i) {
    const MeasureCell& cell = cells[i];
    CPI_CHECK(cell.workload < built.size());
    results[i] = RunCell(*built[cell.workload], workloads[cell.workload], cell.config);
  });
  return results;
}

namespace {

// The configurations MeasureWorkloads runs per workload, in reduction
// order: the vanilla baseline, then each protection column.
std::vector<core::Config> OverheadConfigs(const std::vector<core::Protection>& protections,
                                          const core::Config& base) {
  std::vector<core::Config> configs(1 + protections.size(), base);
  configs[0].protection = core::Protection::kNone;
  for (size_t pi = 0; pi < protections.size(); ++pi) {
    configs[1 + pi].protection = protections[pi];
  }
  return configs;
}

// Reduces `results` (OverheadConfigs order per workload, workloads in
// order) into one Measurement per workload. Consuming results in this fixed
// order makes the Measurement vector independent of how the pool
// interleaved the cells.
std::vector<Measurement> ReduceMeasurements(const std::vector<Workload>& workloads,
                                            const std::vector<core::Protection>& protections,
                                            const std::vector<CellResult>& results) {
  const size_t stride = 1 + protections.size();
  CPI_CHECK(results.size() == workloads.size() * stride);
  std::vector<Measurement> out;
  out.reserve(workloads.size());
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const CellResult& vanilla = results[wi * stride];
    CPI_CHECK(vanilla.status == vm::RunStatus::kOk);
    Measurement m;
    m.workload = workloads[wi].name;
    m.language = workloads[wi].language;
    m.stats = vanilla.stats;
    m.vanilla_cycles = vanilla.cycles;
    m.vanilla_memory_bytes = vanilla.memory_bytes;
    for (size_t pi = 0; pi < protections.size(); ++pi) {
      const core::Protection p = protections[pi];
      const CellResult& r = results[wi * stride + 1 + pi];
      m.status[p] = r.status;
      if (r.status != vm::RunStatus::kOk) {
        continue;
      }
      m.overhead_pct[p] = OverheadPercent(static_cast<double>(r.cycles),
                                          static_cast<double>(m.vanilla_cycles));
      m.memory_bytes[p] = r.memory_bytes;
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

std::vector<Measurement> MeasureWorkloads(const std::vector<Workload>& workloads,
                                          const std::vector<const ir::Module*>& built,
                                          const std::vector<core::Protection>& protections,
                                          const core::Config& base, int jobs) {
  const std::vector<core::Config> configs = OverheadConfigs(protections, base);
  std::vector<MeasureCell> cells;
  cells.reserve(workloads.size() * configs.size());
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    for (const core::Config& config : configs) {
      cells.push_back({wi, config});
    }
  }
  return ReduceMeasurements(workloads, protections, RunCells(workloads, built, cells, jobs));
}

std::vector<Measurement> MeasureWorkloads(const std::vector<Workload>& workloads,
                                          const std::vector<core::Protection>& protections,
                                          int scale, const core::Config& base, int jobs) {
  CellMemo memo(scale, jobs);
  return memo.Measure(workloads, protections, base);
}

CellKey CanonicalKey(const std::string& workload, const core::Config& config) {
  CPI_CHECK(config.faults == nullptr);
  const core::ProtectionScheme* scheme =
      config.scheme != nullptr ? config.scheme : &core::SchemeRegistry::Get(config.protection);
  const bool vanilla = scheme == &core::SchemeRegistry::Get(core::Protection::kNone);
  // Every Config field except `protection` (subsumed by the resolved
  // scheme) and `faults` (checked null above) appears here; a new Config
  // field must be added too, or two configurations would alias.
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
          config.engine,
          config.reference_interpreter,
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
  ThreadPool pool(jobs_);
  pool.ParallelFor(batch.size(), [&](size_t i) {
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

std::vector<Measurement> CellMemo::Measure(const std::vector<Workload>& workloads,
                                           const std::vector<core::Protection>& protections,
                                           const core::Config& base) {
  const std::vector<core::Config> configs = OverheadConfigs(protections, base);
  std::vector<CellRequest> cells;
  cells.reserve(workloads.size() * configs.size());
  for (const Workload& w : workloads) {
    for (const core::Config& config : configs) {
      cells.push_back({&w, config});
    }
  }
  return ReduceMeasurements(workloads, protections, Run(cells));
}

const ir::Module& CellMemo::Built(const Workload& workload) {
  std::unique_ptr<ir::Module>& module = built_[workload.name];
  if (module == nullptr) {
    module = workload.build(scale_);
  }
  return *module;
}

std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   core::Protection protection) {
  std::vector<double> column;
  for (const auto& m : measurements) {
    column.push_back(m.OverheadPct(protection));
  }
  return column;
}

std::vector<core::Protection> OverheadProtections() {
  std::vector<core::Protection> out;
  for (const core::ProtectionScheme* s : core::SchemeRegistry::OverheadColumns()) {
    out.push_back(s->id());
  }
  return out;
}

std::vector<double> OverheadColumnForLanguage(const std::vector<Measurement>& measurements,
                                              core::Protection protection,
                                              const std::string& language) {
  std::vector<double> column;
  for (const auto& m : measurements) {
    if (m.language == language) {
      column.push_back(m.OverheadPct(protection));
    }
  }
  return column;
}

}  // namespace cpi::workloads
