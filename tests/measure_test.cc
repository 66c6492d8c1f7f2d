// Tests for the parallel measurement harness: cpi::ParallelFor
// (src/support/pool.h) and the cell memo every measurement runs through
// (src/workloads/measure.h).
//
// The load-bearing property is the serial-vs-parallel differential: every
// Measurement field must be bit-identical between --jobs 1 (strictly
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
#include "src/support/stats.h"
#include "src/workloads/measure.h"

namespace {

using cpi::ParallelFor;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::core::ProtectionScheme;
using cpi::core::SchemeRegistry;
using cpi::workloads::CellMemo;
using cpi::workloads::CellResult;
using cpi::workloads::Measurement;
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

// What CellMemo::Measure must produce, from direct RunCell calls on a fresh
// build of the workload per cell: no memo, no shared build, no threads.
std::vector<Measurement> MeasureDirect(const std::vector<Workload>& workloads,
                                       const std::vector<const ProtectionScheme*>& schemes) {
  std::vector<Measurement> out;
  for (const Workload& w : workloads) {
    const auto run = [&w](const ProtectionScheme* scheme) {
      Config config;
      config.scheme = scheme;
      return cpi::workloads::RunCell(*w.build(/*scale=*/1), w, config);
    };
    Measurement m;
    m.workload = w.name;
    m.language = w.language;
    m.vanilla_cycles = run(&SchemeRegistry::Get(Protection::kNone)).cycles;
    for (const ProtectionScheme* scheme : schemes) {
      const CellResult r = run(scheme);
      m.status[scheme] = r.status;
      if (r.status == cpi::vm::RunStatus::kOk) {
        m.overhead_pct[scheme] = cpi::OverheadPercent(static_cast<double>(r.cycles),
                                                      static_cast<double>(m.vanilla_cycles));
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

void ExpectIdentical(const std::vector<Measurement>& a, const std::vector<Measurement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].workload);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].language, b[i].language);
    EXPECT_EQ(a[i].vanilla_cycles, b[i].vanilla_cycles);
    // Bit-identical, not approximately equal: the cells are deterministic
    // and the reduction order is fixed, so the doubles must match exactly.
    EXPECT_EQ(a[i].overhead_pct, b[i].overhead_pct);
    EXPECT_EQ(a[i].status, b[i].status);
  }
}

TEST(MeasureDifferentialTest, SerialAndParallelMeasurementsAreBitIdentical) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto schemes = SchemeRegistry::OverheadColumns();
  const auto serial = CellMemo(/*scale=*/1, /*jobs=*/1).Measure(subset, schemes);
  const auto parallel = CellMemo(/*scale=*/1, /*jobs=*/4).Measure(subset, schemes);
  ExpectIdentical(serial, parallel);
}

TEST(MeasureDifferentialTest, SharedPrebuiltModulesMatchFreshBuilds) {
  // The memo's cells share one build of each workload; they must match
  // cells that each build the workload afresh, exactly.
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto schemes = SchemeRegistry::OverheadColumns();
  const auto shared = CellMemo(/*scale=*/1, /*jobs=*/4).Measure(subset, schemes);
  ExpectIdentical(shared, MeasureDirect(subset, schemes));
}

// A composite is its own column, never its first component's: CPI and the
// PACStack-style cpi+ptrenc-ret-chain, PtrEnc and ptrenc+safestack measure
// side by side, as four memo keys per workload besides vanilla, and each
// column equals the overhead of direct RunCell executions.
TEST(MeasureDifferentialTest, CompositesAreTheirOwnColumns) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  std::vector<const ProtectionScheme*> schemes;
  for (const char* name : {"cpi", "cpi+ptrenc-ret-chain", "ptrenc", "ptrenc+safestack"}) {
    schemes.push_back(SchemeRegistry::FindByName(name));
    ASSERT_NE(schemes.back(), nullptr) << name;
  }
  CellMemo memo(/*scale=*/1, /*jobs=*/2);
  const auto ms = memo.Measure(subset, schemes);
  EXPECT_EQ(memo.executed(), subset.size() * (1 + schemes.size()));
  for (const Measurement& m : ms) {
    SCOPED_TRACE(m.workload);
    EXPECT_EQ(m.overhead_pct.size(), schemes.size());
    EXPECT_NE(m.OverheadPct(schemes[0]), m.OverheadPct(schemes[1]));
  }
  ExpectIdentical(ms, MeasureDirect(subset, schemes));
}

TEST(MeasureDifferentialTest, FailingColumnsAreReportedNotFatal) {
  // Table 3 depends on this: a SoftBound run that does not complete leaves a
  // status entry and no overhead entry instead of aborting the whole sweep.
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  const ProtectionScheme* softbound = &SchemeRegistry::Get(Protection::kSoftBound);
  const auto ms = CellMemo(/*scale=*/1, /*jobs=*/2).Measure(subset, {softbound});
  for (const auto& m : ms) {
    ASSERT_EQ(m.status.count(softbound), 1u);
    const bool ok = m.status.at(softbound) == cpi::vm::RunStatus::kOk;
    EXPECT_EQ(m.overhead_pct.count(softbound), ok ? 1u : 0u);
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
    ExpectSameCell(cpi::workloads::RunCell(*built, *w, legacy),
                   cpi::workloads::RunCell(*built, *w, engine));
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
      ExpectSameCell(cpi::workloads::RunCell(*built, *w, a),
                     cpi::workloads::RunCell(*built, *w, b));
    }
  }
}

// A memoized cell equals a fresh RunCell execution of the same cell on a
// separate build, at any jobs value; a repeated request (exact or under the
// canonical key) runs nothing new.
TEST(MeasureDifferentialTest, MemoizedCellsMatchFreshRunCells) {
  const std::vector<Workload> subset = Subset();
  ASSERT_FALSE(subset.empty());
  std::vector<cpi::workloads::CellRequest> requests;
  for (const Workload& w : subset) {
    for (Protection p : {Protection::kNone, Protection::kCpi, Protection::kPtrEnc}) {
      cpi::workloads::CellRequest cell{&w, {}};
      cell.config.scheme = &SchemeRegistry::Get(p);
      requests.push_back(cell);
      cell.config.opt_level = 1;  // a repeat of the O0 cell on vanilla only
      requests.push_back(cell);
    }
  }
  const auto built = cpi::workloads::BuildWorkloads(subset, /*scale=*/1, /*jobs=*/1);
  std::vector<CellResult> fresh;
  for (const auto& cell : requests) {
    const size_t wi = static_cast<size_t>(cell.workload - subset.data());
    fresh.push_back(cpi::workloads::RunCell(*built[wi], *cell.workload, cell.config));
  }
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    CellMemo memo(/*scale=*/1, jobs);
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
