// Tests for the parallel measurement harness: the work-stealing thread pool
// (src/support/pool.h), the cell-based MeasureWorkloads and the suite's
// cell memo (src/workloads/measure.h).
//
// The load-bearing property is the serial-vs-parallel differential: every
// Measurement field must be bit-identical between --jobs 1 (strictly
// serial, no worker threads) and --jobs N. The suite relies on it —
// parallelism may only change wall-clock, never a number.
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/support/pool.h"
#include "src/workloads/measure.h"

namespace {

using cpi::ThreadPool;
using cpi::core::Protection;
using cpi::workloads::CellResult;
using cpi::workloads::Measurement;
using cpi::workloads::Workload;

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ResultsLandInTheirOwnSlots) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(10000, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i + 1; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i + 1);
  }
}

TEST(ThreadPoolTest, SingleJobPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;  // no synchronisation: jobs == 1 must be serial
  pool.ParallelFor(100, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, ExceptionFromLowestIndexPropagates) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.ParallelFor(256, [&](size_t i) {
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
  ThreadPool pool(1);
  int executed = 0;
  try {
    pool.ParallelFor(64, [&](size_t i) {
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
  ThreadPool pool(3);
  std::vector<uint64_t> sums(8, 0);
  pool.ParallelFor(sums.size(), [&](size_t i) {
    std::vector<uint64_t> inner(32, 0);
    pool.ParallelFor(inner.size(), [&](size_t j) { inner[j] = 100 * i + j; });
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

TEST(ThreadPoolTest, SubmitAndAwaitFromInsideTask) {
  ThreadPool pool(2);
  auto outer = pool.SubmitTask([&pool] {
    auto inner = pool.SubmitTask([] { return 21; });
    return pool.Await(std::move(inner)) * 2;
  });
  EXPECT_EQ(pool.Await(std::move(outer)), 42);
}

TEST(ThreadPoolTest, SubmitTaskPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.SubmitTask([]() -> int { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.Await(std::move(future)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Measurement differential.

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

void ExpectIdentical(const std::vector<Measurement>& a, const std::vector<Measurement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].workload);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].language, b[i].language);
    EXPECT_EQ(a[i].vanilla_cycles, b[i].vanilla_cycles);
    EXPECT_EQ(a[i].vanilla_memory_bytes, b[i].vanilla_memory_bytes);
    // Bit-identical, not approximately equal: the cells are deterministic
    // and the reduction order is fixed, so the doubles must match exactly.
    EXPECT_EQ(a[i].overhead_pct, b[i].overhead_pct);
    EXPECT_EQ(a[i].memory_bytes, b[i].memory_bytes);
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].stats.total_functions, b[i].stats.total_functions);
    EXPECT_EQ(a[i].stats.unsafe_frame_functions, b[i].stats.unsafe_frame_functions);
    EXPECT_EQ(a[i].stats.total_mem_ops, b[i].stats.total_mem_ops);
    EXPECT_EQ(a[i].stats.instrumented_cpi, b[i].stats.instrumented_cpi);
    EXPECT_EQ(a[i].stats.instrumented_cps, b[i].stats.instrumented_cps);
  }
}

TEST(MeasureDifferentialTest, SerialAndParallelMeasurementsAreBitIdentical) {
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto protections = cpi::workloads::OverheadProtections();
  const auto serial = cpi::workloads::MeasureWorkloads(subset, protections, /*scale=*/1,
                                                       {}, /*jobs=*/1);
  const auto parallel = cpi::workloads::MeasureWorkloads(subset, protections, /*scale=*/1,
                                                         {}, /*jobs=*/4);
  ExpectIdentical(serial, parallel);
}

TEST(MeasureDifferentialTest, SharedPrebuiltModulesMatchFreshBuilds) {
  // Cells that share one build of each workload must match per-call fresh
  // builds exactly.
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto protections = cpi::workloads::OverheadProtections();
  const auto built = cpi::workloads::BuildWorkloads(subset, /*scale=*/1, /*jobs=*/4);
  const auto shared = cpi::workloads::MeasureWorkloads(
      subset, cpi::workloads::ModuleViews(built), protections, {}, /*jobs=*/4);
  const auto fresh = cpi::workloads::MeasureWorkloads(subset, protections, /*scale=*/1,
                                                      {}, /*jobs=*/1);
  ExpectIdentical(shared, fresh);
}

TEST(MeasureDifferentialTest, FailingColumnsAreReportedNotFatal) {
  // Table 3 depends on this: a SoftBound run that does not complete leaves a
  // status entry and no overhead entry instead of aborting the whole sweep.
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const std::vector<Protection> protections = {Protection::kSoftBound};
  const auto ms =
      cpi::workloads::MeasureWorkloads(subset, protections, /*scale=*/1, {}, /*jobs=*/2);
  for (const auto& m : ms) {
    ASSERT_EQ(m.status.count(Protection::kSoftBound), 1u);
    const bool ok = m.status.at(Protection::kSoftBound) == cpi::vm::RunStatus::kOk;
    EXPECT_EQ(m.overhead_pct.count(Protection::kSoftBound), ok ? 1u : 0u);
    EXPECT_EQ(m.memory_bytes.count(Protection::kSoftBound), ok ? 1u : 0u);
  }
}

// The memo's canonical key (CanonicalKey): a composite never aliases its
// first component, whose Protection id it borrows, and a built-in keys the
// same whether selected by id or by scheme pointer.
TEST(MeasureDifferentialTest, CanonicalKeysResolveSchemesNotProtectionIds) {
  using cpi::core::SchemeRegistry;
  const auto key = [](Protection p, const char* scheme) {
    cpi::core::Config config;
    config.protection = p;
    config.scheme = scheme == nullptr ? nullptr : SchemeRegistry::FindByName(scheme);
    EXPECT_TRUE(scheme == nullptr || config.scheme != nullptr) << scheme;
    return cpi::workloads::CanonicalKey("401.bzip2", config);
  };
  EXPECT_NE(key(Protection::kCpi, "cpi+ptrenc-ret-chain"), key(Protection::kCpi, nullptr));
  EXPECT_NE(key(Protection::kPtrEnc, "ptrenc+safestack"), key(Protection::kPtrEnc, nullptr));
  EXPECT_EQ(key(Protection::kCpi, nullptr), key(Protection::kNone, "cpi"));
  EXPECT_EQ(key(Protection::kCpi, nullptr), key(Protection::kCpi, "cpi"));

  // Every other knob is part of the key: changing any one of them from a
  // CPI base gives a key no other variant shares.
  using cpi::core::Config;
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

void ExpectSameCell(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.safe_store_bytes, b.safe_store_bytes);
  EXPECT_EQ(a.safe_store_ops, b.safe_store_ops);
  EXPECT_EQ(a.store_contended_ops, b.store_contended_ops);
  EXPECT_EQ(a.shard_migrations, b.shard_migrations);
  EXPECT_EQ(a.stats.total_functions, b.stats.total_functions);
  EXPECT_EQ(a.stats.unsafe_frame_functions, b.stats.unsafe_frame_functions);
  EXPECT_EQ(a.stats.total_mem_ops, b.stats.total_mem_ops);
  EXPECT_EQ(a.stats.instrumented_cpi, b.stats.instrumented_cpi);
  EXPECT_EQ(a.stats.instrumented_cps, b.stats.instrumented_cps);
}

// The two knobs CanonicalKey drops — opt_level on vanilla, migrate at one
// shard — leave every CellResult field unchanged, on single-threaded SPEC
// models and on threaded servers.
TEST(MeasureDifferentialTest, DroppedKnobsLeaveTheFullCellResultUnchanged) {
  const std::vector<const Workload*> workloads = {
      cpi::workloads::FindWorkload("400.perlbench"), cpi::workloads::FindWorkload("447.dealII"),
      &cpi::workloads::ConcurrentServer().front(), &cpi::workloads::ChurnServer().front()};
  for (const Workload* w : workloads) {
    ASSERT_NE(w, nullptr);
    SCOPED_TRACE(w->name);
    const auto built = w->build(/*scale=*/1);
    cpi::core::Config o0;
    cpi::core::Config o1;
    o1.opt_level = 1;
    cpi::core::Config fixed;
    fixed.protection = Protection::kCpi;
    cpi::core::Config migrating = fixed;
    migrating.migrate = true;
    for (const auto& [a, b] : {std::pair(o0, o1), std::pair(fixed, migrating)}) {
      EXPECT_EQ(cpi::workloads::CanonicalKey(w->name, a),
                cpi::workloads::CanonicalKey(w->name, b));
      ExpectSameCell(cpi::workloads::RunCell(*built, *w, a),
                     cpi::workloads::RunCell(*built, *w, b));
    }
  }
}

// A memoized cell equals a fresh RunCells execution of the same cell, at any
// jobs value; a repeated request (exact or under the canonical key) runs
// nothing new.
TEST(MeasureDifferentialTest, MemoizedCellsMatchFreshRunCells) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  std::vector<cpi::workloads::MeasureCell> cells;
  for (size_t wi = 0; wi < subset.size(); ++wi) {
    for (Protection p : {Protection::kNone, Protection::kCpi, Protection::kPtrEnc}) {
      cpi::workloads::MeasureCell cell{wi, {}};
      cell.config.protection = p;
      cells.push_back(cell);
      cell.config.opt_level = 1;  // a repeat of the O0 cell on vanilla only
      cells.push_back(cell);
    }
  }
  const auto built = cpi::workloads::BuildWorkloads(subset, /*scale=*/1, /*jobs=*/1);
  const auto fresh =
      cpi::workloads::RunCells(subset, cpi::workloads::ModuleViews(built), cells, /*jobs=*/1);
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    cpi::workloads::CellMemo memo(/*scale=*/1, jobs);
    std::vector<cpi::workloads::CellRequest> requests;
    for (const auto& cell : cells) {
      requests.push_back({&subset[cell.workload], cell.config});
    }
    const auto memoized = memo.Run(requests);
    ASSERT_EQ(memoized.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      ExpectSameCell(memoized[i], fresh[i]);
    }
    EXPECT_EQ(memo.executed(), subset.size() * 5);  // 6 requests per workload, 5 keys
    memo.Run(requests);
    EXPECT_EQ(memo.executed(), subset.size() * 5);
  }
}

TEST(AttackMatrixDifferentialTest, SerialAndParallelMatrixAgree) {
  cpi::core::Config config;
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
