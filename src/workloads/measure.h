// Measurement harness behind the bench suite: runs workloads under
// several protection schemes and reports relative overheads (in simulated
// cycles).
//
// The harness is organised around *cells*. A cell is one (workload ×
// configuration) execution: clone the workload's pre-built module,
// instrument the clone under the cell's Config, run it (RunCell). CellMemo
// is the only way cells run: it keys every cell on (workload name,
// canonical Config), so a cell several tables request runs once and every
// later request is a lookup. Cells are independent by construction
// (ir::CloneModule gives every cell its own module and VM), so the memo runs
// each batch of new cells in one cpi::ParallelFor call (src/support/pool.h),
// which starts and joins its own threads, and writes each result into its
// own slot. Results
// come back in request order, which makes every derived Measurement
// bit-identical at any `jobs` value; tests/measure_test.cc checks that
// serial and parallel memos agree.
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

// Overheads are keyed on the resolved scheme (core::SchemeOf), so a
// composite is its own column, never its first component's.
struct Measurement {
  std::string workload;
  std::string language;
  uint64_t vanilla_cycles = 0;
  // scheme -> overhead percent vs the vanilla run. Entries exist only for
  // schemes whose run completed (see `status`).
  std::map<const core::ProtectionScheme*, double> overhead_pct;
  // scheme -> run status. SoftBound legitimately fails some workloads
  // (unsafe pointer idioms produce false violations, like the paper
  // reports); such columns are recorded here instead of aborting the sweep.
  std::map<const core::ProtectionScheme*, vm::RunStatus> status;

  // Overhead for `scheme`, CPI_CHECKed to have been measured and completed —
  // for drivers whose columns must always succeed (Table 1 / Fig. 4 /
  // Table 4). Drivers that tolerate failing columns (Table 3 / Fig. 5)
  // consult `status` instead.
  double OverheadPct(const core::ProtectionScheme* scheme) const;
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
};

// Frontend-builds every workload once, in parallel across `jobs` threads
// (jobs <= 0 selects hardware concurrency; 1 is strictly serial).
std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs = 1);

// Runs one cell against the workload's pre-built base module.
CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const core::Config& config);

// The memo key of one cell: the workload name and every core::Config field,
// canonicalised. The scheme is resolved (core::SchemeOf), so a composite
// never shares a key with its first component, and the engine is the one
// that runs (`reference_interpreter` selects vm::EngineKind::kReference).
// Exactly two knobs are dropped, each proven not to change any CellResult
// field by MeasureDifferentialTest: `migrate` at one shard and `opt_level`
// on the vanilla scheme.
using CellKey = std::tuple<std::string, const core::ProtectionScheme*, runtime::StoreKind,
                           runtime::IsolationKind, uint32_t /*shards*/, bool /*migrate*/,
                           bool /*debug_mode*/, bool /*temporal*/,
                           bool /*char_star_heuristic*/, bool /*cast_dataflow*/,
                           bool /*mpx_assist*/, vm::EngineKind, int /*opt_level*/,
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

  // Vanilla plus each of `schemes` on every workload, under `base`'s other
  // knobs (its scheme is replaced).
  std::vector<Measurement> Measure(const std::vector<Workload>& workloads,
                                   const std::vector<const core::ProtectionScheme*>& schemes,
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

// Column of overhead values for one scheme, in workload order, restricted
// to one language ("C" / "C++") unless `language` is empty.
std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   const core::ProtectionScheme* scheme,
                                   const std::string& language = "");

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_MEASURE_H_
