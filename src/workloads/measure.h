// The measurement harness behind the bench suite: runs workloads under
// protection schemes and keeps each run's vm::RunResult; the suite reduces
// those to overheads (in simulated cycles) and the other table values.
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
// own slot. Results come back in request order, so every value reduced from
// them is bit-identical at any `jobs` value; tests/measure_test.cc checks
// that serial and parallel memos agree.
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

// Frontend-builds every workload once, in parallel across `jobs` threads
// (jobs <= 0 selects hardware concurrency; 1 is strictly serial).
std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs = 1);

// Runs one cell against the workload's pre-built base module: a clone,
// instrumented and run under `config` (core::InstrumentAndRun).
vm::RunResult RunCell(const ir::Module& built, const Workload& workload,
                      const core::Config& config);

// The memo key of one cell: the workload name and every core::Config field,
// canonicalised. The scheme is resolved (core::SchemeOf), so a composite
// never shares a key with its first component, and the engine is the one
// that runs (`reference_interpreter` selects vm::EngineKind::kReference).
// Exactly two knobs are dropped, each proven not to change any RunResult
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
  std::vector<vm::RunResult> Run(const std::vector<CellRequest>& cells);

  // The workload's base module (built now if no cell has needed it yet).
  const ir::Module& Built(const Workload& workload);

  // Cells executed so far (one per distinct key).
  size_t executed() const { return executed_; }

 private:
  int scale_;
  int jobs_;
  size_t executed_ = 0;
  std::map<std::string, std::unique_ptr<ir::Module>> built_;
  std::map<CellKey, vm::RunResult> results_;
};

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_MEASURE_H_
