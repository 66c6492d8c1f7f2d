// The differential executor: runs one generated program across the full
// configuration matrix and flags any disagreement.
//
// Per scheme (every registry entry — the eight classic schemes, the
// ret-chain variant and the registered composites, vanilla included), with
// the scheme's reference-engine run as the in-scheme oracle:
//
//   counter-identity cells  — decoded and fused engines at O0, plus a fused
//     quantum sweep (1, 64, 4096). Every simulated observable must match the
//     oracle bit for bit: status, violation, output, exit code, all
//     counters, memory footprint. This is the three-tier equivalence and
//     scheduler-determinism contract, checked on arbitrary programs.
//   behaviour cells — O1, and the hash/two-level store organisations.
//     Status, violation, output and exit must match; counters legitimately
//     differ (O1 removes work; store organisations have different touch
//     sequences, and the hash store's probe order is even
//     interleaving-dependent for threaded programs).
//   cross-scheme — each scheme's behaviour (status, output, exit) must match
//     the vanilla oracle: instrumentation must be behaviour-preserving even
//     on hazardous programs (a double free crashes identically everywhere;
//     stale reads are scheme-neutral while temporal checks are off).
//     Skipped when either side ran out of fuel (instrumentation changes
//     instruction counts, so the budget edge is not comparable).
//   CPI extras — debug (mirror-and-compare) and temporal modes, each
//     compared reference-vs-fused at full counter identity.
//   fault campaign — every FaultKind injected mid-run (firing points derived
//     from the oracle's instruction count). The contract is graceful
//     containment: the run reports a status, the host survives. Forced
//     preemption additionally keeps behaviour identical (race-free programs
//     cannot observe scheduling). Coverage of (scheme × kind) pairs that
//     actually injected is reported for the campaign-level assertion.
//
// Cells that differ only in runtime settings share one instrumented module,
// and their decoded and fused cells one decode per tier; the first
// reference-engine cell of each compile key compiles its own, so every
// counter-identity comparison has an independently compiled side
// (docs/FUZZING.md, "Compile sharing").
//
// Every cell is wrapped in a catch-all: a host-level exception becomes
// CaseStatus::kHostError in the CaseResult, never an aborted campaign.
#ifndef CPI_SRC_FUZZ_DIFFERENTIAL_H_
#define CPI_SRC_FUZZ_DIFFERENTIAL_H_

#include <string>
#include <utility>
#include <vector>

#include "src/fuzz/generator.h"

namespace cpi::fuzz {

enum class CaseStatus {
  kPass,        // all cells agree (possibly with fuel-capped comparisons skipped)
  kDivergence,  // two configurations disagreed on the same program
  kHostError,   // a cell threw a host-level exception (simulator bug)
};

const char* CaseStatusName(CaseStatus s);

struct DiffOptions {
  // Per-cell step budget. Generated programs are sized well below this;
  // cells that still hit it are skipped from comparison (fuel_skips) rather
  // than failed, because instrumentation legitimately changes step counts.
  uint64_t max_steps = 2'000'000;
  bool fault_campaign = true;
  // Self-test knob: when nonzero, the CPI fused/O0 cell is deliberately
  // misreported as divergent whenever the oracle executed at least this many
  // instructions. Drives an honest end-to-end test of detection,
  // minimization and corpus replay (bench/fuzz --self-test).
  uint64_t inject_divergence_at = 0;
};

struct CaseResult {
  CaseStatus status = CaseStatus::kPass;
  // First failure, as "scheme/cell: what differed". Empty on pass.
  std::string detail;
  int cells_run = 0;
  int fuel_skips = 0;
  // (scheme name, fault kind name) pairs whose injection actually landed and
  // was contained.
  std::vector<std::pair<std::string, std::string>> fault_coverage;
};

CaseResult RunCase(const Plan& plan, const DiffOptions& options = {});

}  // namespace cpi::fuzz

#endif  // CPI_SRC_FUZZ_DIFFERENTIAL_H_
