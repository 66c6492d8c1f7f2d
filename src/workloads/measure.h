// Measurement harness behind the bench suite: runs workloads under
// several protection configurations and reports relative overheads (in
// simulated cycles) plus the static compilation statistics of Table 2.
//
// The harness is organised around *cells*. A MeasureCell is one
// (workload × configuration) execution: clone the workload's pre-built
// module, instrument the clone under the cell's Config, run it. Cells are
// independent by construction (ir::CloneModule gives every cell its own
// module and VM), so RunCells executes them across a work-stealing thread
// pool (src/support/pool.h) and writes each result into its own slot — the
// reduction that follows consumes results in cell order, which makes every
// derived Measurement bit-identical at any `jobs` value. That invariant is
// enforced by the serial-vs-parallel differential test in
// tests/measure_test.cc.
//
// CellMemo is the suite's single entry point for cells: it keys every cell
// on (workload name, canonical Config), so a cell several tables request
// runs once and every later request is a lookup.
#ifndef CPI_SRC_WORKLOADS_MEASURE_H_
#define CPI_SRC_WORKLOADS_MEASURE_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/workloads/workloads.h"

namespace cpi::workloads {

struct Measurement {
  std::string workload;
  std::string language;
  uint64_t vanilla_cycles = 0;
  // protection -> overhead percent vs the vanilla run. Entries exist only
  // for protections whose run completed (see `status`).
  std::map<core::Protection, double> overhead_pct;
  // protection -> total memory footprint in bytes (for §5.2 memory numbers).
  std::map<core::Protection, uint64_t> memory_bytes;
  // protection -> run status. SoftBound legitimately fails some workloads
  // (unsafe pointer idioms produce false violations, like the paper
  // reports); such columns are recorded here instead of aborting the sweep.
  std::map<core::Protection, vm::RunStatus> status;
  uint64_t vanilla_memory_bytes = 0;
  // Static statistics (FNUStack / MOCPS / MOCPI).
  analysis::ModuleStats stats;

  // Overhead for `p`, CPI_CHECKed to have been measured and completed — for
  // drivers whose columns must always succeed (Table 1 / Fig. 4 / Table 4).
  // Drivers that tolerate failing columns (Table 3 / Fig. 5) consult
  // `status` instead.
  double OverheadPct(core::Protection p) const;
};

// One (workload × configuration) execution unit of the measurement layer.
struct MeasureCell {
  size_t workload = 0;  // index into the parallel workload/built vectors
  core::Config config;  // full configuration this cell runs under
};

// Raw observations from one cell; the harnesses reduce these in cell order.
struct CellResult {
  vm::RunStatus status = vm::RunStatus::kOk;
  uint64_t cycles = 0;
  uint64_t memory_bytes = 0;      // total footprint (MemoryFootprint::TotalBytes)
  uint64_t safe_store_bytes = 0;  // resident safe pointer store
  uint64_t safe_store_ops = 0;    // safe-pointer-store operations executed
  // Store ops that paid the shard-crossing sync premium (the shard
  // ablation's contention metric; == safe_store_ops after the first spawn
  // at the default shard count of 1).
  uint64_t store_contended_ops = 0;
  // Shards whose owner changed at an epoch publish (Config::migrate; 0 with
  // migration off).
  uint64_t shard_migrations = 0;
  analysis::ModuleStats stats;    // static stats under the cell's config
};

// Frontend-builds every workload once, in parallel across `jobs` threads
// (jobs <= 0 selects hardware concurrency; 1 is strictly serial).
std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs = 1);

// Non-owning view of a BuildWorkloads result, as RunCells consumes it.
std::vector<const ir::Module*> ModuleViews(
    const std::vector<std::unique_ptr<ir::Module>>& built);

// Runs one cell against the workload's pre-built base module.
CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const core::Config& config);

// Executes `cells` across `jobs` threads. Results come back indexed like
// `cells`, regardless of the execution interleaving.
std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs = 1);

// Runs every workload under vanilla plus each protection in `protections`,
// using `base` for all other configuration knobs, across `jobs` threads.
std::vector<Measurement> MeasureWorkloads(const std::vector<Workload>& workloads,
                                          const std::vector<core::Protection>& protections,
                                          int scale, const core::Config& base = {},
                                          int jobs = 1);

// Same, against pre-built base modules.
std::vector<Measurement> MeasureWorkloads(const std::vector<Workload>& workloads,
                                          const std::vector<const ir::Module*>& built,
                                          const std::vector<core::Protection>& protections,
                                          const core::Config& base = {}, int jobs = 1);

// The memo key of one cell: the workload name and every core::Config field,
// canonicalised. The scheme is resolved (`config.scheme`, else the registry
// built-in for `config.protection`), so a composite never shares a key with
// its first component even though it borrows that component's Protection
// id. Exactly two knobs are dropped, each proven not to change any
// CellResult field by MeasureDifferentialTest: `migrate` at one shard and
// `opt_level` on the vanilla scheme.
using CellKey = std::tuple<std::string, const core::ProtectionScheme*, runtime::StoreKind,
                           runtime::IsolationKind, uint32_t /*shards*/, bool /*migrate*/,
                           bool /*debug_mode*/, bool /*temporal*/,
                           bool /*char_star_heuristic*/, bool /*cast_dataflow*/,
                           bool /*mpx_assist*/, vm::EngineKind,
                           bool /*reference_interpreter*/, int /*opt_level*/,
                           uint64_t /*thread_quantum*/, uint64_t /*max_steps*/,
                           uint64_t /*seed*/>;

// CPI_CHECKs that `config.faults` is null: a fault plan is not part of the
// key, and the measurement cells never inject faults.
CellKey CanonicalKey(const std::string& workload, const core::Config& config);

// One cell as CellMemo takes it. `workload` need only stay alive for the
// Run call: the memo keeps its own build of each workload, keyed by name.
struct CellRequest {
  const Workload* workload = nullptr;
  core::Config config;
};

// Memoized cell execution. Workloads are frontend-built once per name, on
// first request; a cell runs once per canonical key.
class CellMemo {
 public:
  CellMemo(int scale, int jobs) : scale_(scale), jobs_(jobs) {}

  // Results indexed like `cells`. The cells whose keys are new run as one
  // batch across `jobs` threads; every other cell is a lookup.
  std::vector<CellResult> Run(const std::vector<CellRequest>& cells);

  // Vanilla plus each of `protections` on every workload, under `base`'s
  // other knobs — MeasureWorkloads through the memo.
  std::vector<Measurement> Measure(const std::vector<Workload>& workloads,
                                   const std::vector<core::Protection>& protections,
                                   const core::Config& base = {});

  // The workload's base module (built now if no cell has needed it yet).
  const ir::Module& Built(const Workload& workload);

  // Cells executed so far (one per distinct key).
  size_t executed() const { return executed_; }

 private:
  int scale_;
  int jobs_;
  size_t executed_ = 0;
  std::map<std::string, std::unique_ptr<ir::Module>> built_;
  std::map<CellKey, CellResult> results_;
};

// Column of overhead values for one protection, in workload order.
std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   core::Protection protection);

// Same, restricted to one language ("C" / "C++").
std::vector<double> OverheadColumnForLanguage(const std::vector<Measurement>& measurements,
                                              core::Protection protection,
                                              const std::string& language);

// The registry schemes that report an overhead column (Table 1 / Fig. 4 /
// Table 4 / §5.2 shape), as the protection list MeasureWorkloads consumes.
std::vector<core::Protection> OverheadProtections();

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_MEASURE_H_
