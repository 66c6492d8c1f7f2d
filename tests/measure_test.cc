// Tests for the parallel measurement harness: cpi::ParallelFor
// (src/support/pool.h) and the cell memo every measurement runs through
// (src/workloads/measure.h).
//
// The load-bearing property is the serial-vs-parallel differential: every
// cell's vm::RunResult must be bit-identical between --jobs 1 (strictly
// serial, no thread started) and --jobs N. The suite relies on it —
// parallelism may only change wall-clock, never a number.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/classify.h"
#include "src/attacks/ripe.h"
#include "src/ir/clone.h"
#include "src/support/pool.h"
#include "src/workloads/measure.h"
#include "tests/run_identity.h"

namespace {

using cpi::ParallelFor;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::core::ProtectionScheme;
using cpi::core::SchemeRegistry;
using cpi::vm::RunResult;
using cpi::workloads::CellMemo;
using cpi::workloads::CellRequest;
using cpi::workloads::Workload;

// ---------------------------------------------------------------------------
// ParallelFor (the ThreadPoolTest names are what the TSan job filters on).

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  struct Case {
    int jobs;
    size_t n;
  };
  for (const Case c : {Case{4, 5000}, Case{8, 3}}) {
    std::vector<std::atomic<int>> hits(c.n);
    std::mutex mutex;
    std::set<std::thread::id> executors;
    ParallelFor(c.jobs, hits.size(), [&](size_t i) {
      hits[i].fetch_add(1);
      std::lock_guard<std::mutex> lock(mutex);
      executors.insert(std::this_thread::get_id());
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs " << c.jobs << " index " << i;
    }
    // At most min(jobs, n) executors: no thread is started without an index.
    EXPECT_LE(executors.size(), std::min(static_cast<size_t>(c.jobs), c.n)) << "jobs " << c.jobs;
  }
}

TEST(ThreadPoolTest, ResultsLandInTheirOwnSlots) {
  std::vector<uint64_t> out(10000, 0);
  ParallelFor(4, out.size(), [&](size_t i) { out[i] = i * i + 1; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i + 1);
  }
}

TEST(ThreadPoolTest, SingleJobPoolRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;  // no synchronisation: jobs == 1 must be serial
  ParallelFor(1, 100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, ExceptionFromLowestIndexPropagates) {
  std::atomic<int> executed{0};
  try {
    ParallelFor(4, 256, [&](size_t i) {
      executed.fetch_add(1);
      if (i == 11 || i == 37) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    // Both indices throw on every run; the harness deterministically
    // rethrows the lowest one after all indices finished.
    EXPECT_STREQ(e.what(), "boom 11");
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ThreadPoolTest, SerialPoolKeepsTheSameExceptionContract) {
  // jobs == 1 must behave like jobs == N: every index still runs, and the
  // lowest-index exception is rethrown at the end.
  int executed = 0;
  try {
    ParallelFor(1, 64, [&](size_t i) {
      ++executed;
      if (i == 7 || i == 23) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
  EXPECT_EQ(executed, 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::vector<uint64_t> sums(8, 0);
  ParallelFor(3, sums.size(), [&](size_t i) {
    std::vector<uint64_t> inner(32, 0);
    ParallelFor(3, inner.size(), [&](size_t j) { inner[j] = 100 * i + j; });
    uint64_t sum = 0;
    for (uint64_t v : inner) {
      sum += v;
    }
    sums[i] = sum;
  });
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], 100 * i * 32 + 31 * 32 / 2);
  }
}

// ---------------------------------------------------------------------------
// Cell differential.

std::vector<Workload> Subset() {
  // Small but diverse: C and C++ profiles, function-pointer dispatch,
  // pointer chasing and vtable-heavy code — enough to exercise every
  // overhead scheme's instrumentation.
  std::vector<Workload> subset;
  for (const char* name : {"400.perlbench", "429.mcf", "447.dealII", "471.omnetpp"}) {
    const Workload* w = cpi::workloads::FindWorkload(name);
    EXPECT_NE(w, nullptr) << name;
    if (w != nullptr) {
      subset.push_back(*w);
    }
  }
  return subset;
}

// The cells of one overhead table: per workload, vanilla then each of
// `schemes`.
std::vector<CellRequest> SchemeCells(const std::vector<Workload>& workloads,
                                     const std::vector<const ProtectionScheme*>& schemes) {
  std::vector<CellRequest> cells;
  for (const Workload& w : workloads) {
    cells.push_back({&w, {}});
    for (const ProtectionScheme* scheme : schemes) {
      cells.push_back({&w, {}});
      cells.back().config.scheme = scheme;
    }
  }
  return cells;
}

// What CellMemo::Run must return, from direct RunCell calls on a fresh
// build of the workload per cell: no memo, no shared build, no threads.
std::vector<RunResult> RunDirect(const std::vector<CellRequest>& cells) {
  std::vector<RunResult> out;
  for (const CellRequest& cell : cells) {
    out.push_back(cpi::workloads::RunCell(*cell.workload->build(/*scale=*/1), *cell.workload,
                                          cell.config));
  }
  return out;
}

std::string Label(const CellRequest& cell) {
  return cell.workload->name + " under " + cpi::core::SchemeOf(cell.config).name();
}

// Bit-identical, not approximately equal: the cells are deterministic, so
// every RunResult field must match exactly.
void ExpectIdentical(const std::vector<CellRequest>& cells, const std::vector<RunResult>& a,
                     const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), cells.size());
  ASSERT_EQ(b.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    cpi::test::ExpectIdentical(a[i], b[i], Label(cells[i]));
  }
}

TEST(MeasureDifferentialTest, SerialAndParallelMeasurementsAreBitIdentical) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto cells = SchemeCells(subset, SchemeRegistry::OverheadColumns());
  ExpectIdentical(cells, CellMemo(/*scale=*/1, /*jobs=*/1).Run(cells),
                  CellMemo(/*scale=*/1, /*jobs=*/4).Run(cells));
}

TEST(MeasureDifferentialTest, SharedPrebuiltModulesMatchFreshBuilds) {
  // The memo's cells share one build of each workload; they must match
  // cells that each build the workload afresh, exactly.
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto cells = SchemeCells(subset, SchemeRegistry::OverheadColumns());
  ExpectIdentical(cells, CellMemo(/*scale=*/1, /*jobs=*/4).Run(cells), RunDirect(cells));
}

// A composite is its own column, never its first component's: CPI and the
// PACStack-style cpi+ptrenc-ret-chain, PtrEnc and ptrenc+safestack run
// side by side, as four memo keys per workload besides vanilla, and each
// cell equals a direct RunCell execution.
TEST(MeasureDifferentialTest, CompositesAreTheirOwnColumns) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  std::vector<const ProtectionScheme*> schemes;
  for (const char* name : {"cpi", "cpi+ptrenc-ret-chain", "ptrenc", "ptrenc+safestack"}) {
    schemes.push_back(SchemeRegistry::FindByName(name));
    ASSERT_NE(schemes.back(), nullptr) << name;
  }
  const auto cells = SchemeCells(subset, schemes);
  CellMemo memo(/*scale=*/1, /*jobs=*/2);
  const auto results = memo.Run(cells);
  EXPECT_EQ(memo.executed(), cells.size());
  const size_t stride = 1 + schemes.size();
  for (size_t i = 0; i < results.size(); i += stride) {
    SCOPED_TRACE(Label(cells[i]));
    for (size_t c = 0; c < stride; ++c) {
      EXPECT_EQ(results[i + c].status, cpi::vm::RunStatus::kOk) << Label(cells[i + c]);
    }
    // cpi vs cpi+ptrenc-ret-chain: the chained return MACs cost cycles.
    EXPECT_NE(results[i + 1].counters.cycles, results[i + 2].counters.cycles);
  }
  ExpectIdentical(cells, results, RunDirect(cells));
}

TEST(MeasureDifferentialTest, FailingColumnsAreReportedNotFatal) {
  // Table 3 depends on this: a SoftBound run that does not complete is kept
  // as a result with its status instead of aborting the whole batch (the
  // subset's 429.mcf is such a cell), and memoized like any other.
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto cells = SchemeCells(subset, {&SchemeRegistry::Get(Protection::kSoftBound)});
  CellMemo memo(/*scale=*/1, /*jobs=*/2);
  const auto results = memo.Run(cells);
  ASSERT_EQ(results.size(), cells.size());
  size_t failed = 0;
  for (size_t i = 0; i < results.size(); i += 2) {
    EXPECT_EQ(results[i].status, cpi::vm::RunStatus::kOk) << Label(cells[i]);
    failed += results[i + 1].status == cpi::vm::RunStatus::kOk ? 0 : 1;
  }
  EXPECT_GE(failed, 1u);
  ExpectIdentical(cells, memo.Run(cells), results);
  EXPECT_EQ(memo.executed(), cells.size());
}

// The memo's canonical key (CanonicalKey): a composite never aliases its
// first component, whose Protection id it borrows, a built-in keys the same
// whether selected by id or by scheme pointer, and the reference oracle
// keys the same whether selected by `reference_interpreter` or by engine.
TEST(MeasureDifferentialTest, CanonicalKeysResolveSchemesNotProtectionIds) {
  const auto key = [](Protection p, const char* scheme) {
    Config config;
    config.protection = p;
    config.scheme = scheme == nullptr ? nullptr : SchemeRegistry::FindByName(scheme);
    EXPECT_TRUE(scheme == nullptr || config.scheme != nullptr) << scheme;
    return cpi::workloads::CanonicalKey("401.bzip2", config);
  };
  EXPECT_NE(key(Protection::kCpi, "cpi+ptrenc-ret-chain"), key(Protection::kCpi, nullptr));
  EXPECT_NE(key(Protection::kPtrEnc, "ptrenc+safestack"), key(Protection::kPtrEnc, nullptr));
  EXPECT_EQ(key(Protection::kCpi, nullptr), key(Protection::kNone, "cpi"));
  EXPECT_EQ(key(Protection::kCpi, nullptr), key(Protection::kCpi, "cpi"));

  // The legacy oracle switch is the reference engine, key and result.
  {
    const Workload* w = cpi::workloads::FindWorkload("429.mcf");
    ASSERT_NE(w, nullptr);
    Config legacy;
    legacy.protection = Protection::kCpi;
    legacy.reference_interpreter = true;
    Config engine;
    engine.protection = Protection::kCpi;
    engine.engine = cpi::vm::EngineKind::kReference;
    EXPECT_EQ(cpi::workloads::CanonicalKey(w->name, legacy),
              cpi::workloads::CanonicalKey(w->name, engine));
    const auto built = w->build(/*scale=*/1);
    cpi::test::ExpectIdentical(cpi::workloads::RunCell(*built, *w, legacy),
                               cpi::workloads::RunCell(*built, *w, engine), w->name);
  }

  // Every other knob is part of the key: changing any one of them from a
  // CPI base gives a key no other variant shares.
  const std::vector<void (*)(Config&)> knobs = {
      [](Config& c) { c.store = cpi::runtime::StoreKind::kHash; },
      [](Config& c) { c.isolation = cpi::runtime::IsolationKind::kSfi; },
      [](Config& c) { c.shards = 4; },
      [](Config& c) {
        c.shards = 4;
        c.migrate = true;
      },
      [](Config& c) { c.debug_mode = true; },
      [](Config& c) { c.temporal = true; },
      [](Config& c) { c.char_star_heuristic = false; },
      [](Config& c) { c.cast_dataflow = false; },
      [](Config& c) { c.mpx_assist = true; },
      [](Config& c) { c.engine = cpi::vm::EngineKind::kDecoded; },
      [](Config& c) { c.reference_interpreter = true; },
      [](Config& c) { c.opt_level = 1; },
      [](Config& c) { c.thread_quantum = 7; },
      [](Config& c) { c.max_steps = 1000; },
      [](Config& c) { c.seed = 2; },
  };
  std::set<cpi::workloads::CellKey> keys = {key(Protection::kCpi, nullptr)};
  for (const auto& knob : knobs) {
    Config config;
    config.protection = Protection::kCpi;
    knob(config);
    EXPECT_TRUE(keys.insert(cpi::workloads::CanonicalKey("401.bzip2", config)).second)
        << "knob " << keys.size();
  }
}

// The two knobs CanonicalKey drops — opt_level on vanilla, migrate at one
// shard — leave every RunResult field unchanged, on single-threaded SPEC
// models and on threaded servers.
TEST(MeasureDifferentialTest, DroppedKnobsLeaveTheFullRunResultUnchanged) {
  const std::vector<const Workload*> workloads = {
      cpi::workloads::FindWorkload("400.perlbench"), cpi::workloads::FindWorkload("447.dealII"),
      &cpi::workloads::ConcurrentServer().front(), &cpi::workloads::ChurnServer().front()};
  for (const Workload* w : workloads) {
    ASSERT_NE(w, nullptr);
    SCOPED_TRACE(w->name);
    const auto built = w->build(/*scale=*/1);
    Config o0;
    Config o1;
    o1.opt_level = 1;
    Config fixed;
    fixed.protection = Protection::kCpi;
    Config migrating = fixed;
    migrating.migrate = true;
    for (const auto& [a, b] : {std::pair(o0, o1), std::pair(fixed, migrating)}) {
      EXPECT_EQ(cpi::workloads::CanonicalKey(w->name, a),
                cpi::workloads::CanonicalKey(w->name, b));
      cpi::test::ExpectIdentical(cpi::workloads::RunCell(*built, *w, a),
                                 cpi::workloads::RunCell(*built, *w, b), w->name);
    }
  }
}

// A memoized cell equals a fresh RunCell execution of the same cell on a
// separate build, at any jobs value; a repeated request (exact or under the
// canonical key) runs nothing new.
TEST(MeasureDifferentialTest, MemoizedCellsMatchFreshRunCells) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  std::vector<CellRequest> requests;
  for (const Workload& w : subset) {
    for (Protection p : {Protection::kNone, Protection::kCpi, Protection::kPtrEnc}) {
      CellRequest cell{&w, {}};
      cell.config.scheme = &SchemeRegistry::Get(p);
      requests.push_back(cell);
      cell.config.opt_level = 1;  // a repeat of the O0 cell on vanilla only
      requests.push_back(cell);
    }
  }
  const auto built = cpi::workloads::BuildWorkloads(subset, /*scale=*/1, /*jobs=*/1);
  std::vector<RunResult> fresh;
  for (const auto& cell : requests) {
    const size_t wi = static_cast<size_t>(cell.workload - subset.data());
    fresh.push_back(cpi::workloads::RunCell(*built[wi], *cell.workload, cell.config));
  }
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    CellMemo memo(/*scale=*/1, jobs);
    ExpectIdentical(requests, memo.Run(requests), fresh);
    EXPECT_EQ(memo.executed(), subset.size() * 5);  // 6 requests per workload, 5 keys
    memo.Run(requests);
    EXPECT_EQ(memo.executed(), subset.size() * 5);
  }
}

// Table 2 computes its statistics once per SPEC workload on the memo's
// built module, which no cell compiles; a cell compiles a clone. The two
// must agree field for field, and the counts must be ordered as the paper's
// columns imply (MOCPS <= MOCPI <= 100%).
TEST(MeasureDifferentialTest, ModuleStatsOfTheBuiltModuleEqualThoseOfAClone) {
  CellMemo memo(/*scale=*/1, /*jobs=*/1);
  const cpi::analysis::ClassifyOptions options;
  for (const Workload& w : cpi::workloads::SpecCpu2006()) {
    SCOPED_TRACE(w.name);
    const cpi::ir::Module& built = memo.Built(w);
    const cpi::analysis::ModuleStats a = cpi::analysis::ComputeModuleStats(built, options);
    const cpi::analysis::ModuleStats b =
        cpi::analysis::ComputeModuleStats(*cpi::ir::CloneModule(built), options);
    EXPECT_EQ(a.total_functions, b.total_functions);
    EXPECT_EQ(a.unsafe_frame_functions, b.unsafe_frame_functions);
    EXPECT_EQ(a.total_mem_ops, b.total_mem_ops);
    EXPECT_EQ(a.instrumented_cpi, b.instrumented_cpi);
    EXPECT_EQ(a.instrumented_cps, b.instrumented_cps);
    EXPECT_LE(a.instrumented_cps, a.instrumented_cpi);
    EXPECT_LE(a.instrumented_cpi, a.total_mem_ops);
  }
}

TEST(AttackMatrixDifferentialTest, SerialAndParallelMatrixAgree) {
  Config config;
  config.protection = Protection::kCpi;
  const auto serial = cpi::attacks::RunAttackMatrix(config);
  const auto parallel = cpi::attacks::RunAttackMatrix(config, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].spec.Name());
    EXPECT_EQ(serial[i].spec.Name(), parallel[i].spec.Name());
    EXPECT_EQ(serial[i].outcome, parallel[i].outcome);
    EXPECT_EQ(serial[i].status, parallel[i].status);
    EXPECT_EQ(serial[i].violation, parallel[i].violation);
    EXPECT_EQ(serial[i].message, parallel[i].message);
  }
}

}  // namespace
