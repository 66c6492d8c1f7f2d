// The bench suite: every paper table and figure in one process.
//
//   suite                 human-readable report, every table
//   suite --json          one machine-readable report (one table:
//                         `suite --json | jq .tables.NAME`)
//   suite --scale N       workload size multiplier ("small" == 1)
//   suite --jobs N        cell parallelism (default: hardware concurrency)
//   suite --time          append the wall-clock summary to the human report
//   suite --opt N         add the ablation_opt table (per-scheme overhead with
//                         the post-instrumentation optimizer off/on). Every
//                         other table runs at O0 and stays byte-identical at
//                         any --opt value.
//   suite --engine E      VM tier; tables are bit-identical across tiers
//
// Each table is declared once, in kTables: its name and a function that
// requests the cells it needs, reduces them, and returns its JSON and text
// printers. Every cell goes through one workloads::CellMemo keyed on
// (workload, canonical Config), and every attack matrix through a memo keyed
// the same way, so a table asks for its own baselines and a cell another
// table already ran costs a lookup. Tables run in a fixed order (`run`);
// each table's wall time charges only the cells it is first to request.
//
// Table values are bit-identical at any --jobs value (the cost model is
// simulated; the pool only changes wall-clock). The JSON keeps everything
// that varies between runs (wall_ms, table_wall_ms, jobs, host concurrency,
// fusion counts) outside "tables", so `jq .tables` is byte-stable; CI diffs
// it against the committed BENCH_pr10.json baseline (recorded at --opt 1).
//
// docs/PAPER_MAP.md maps each table emitted here back to the paper.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/flags.h"
#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/support/stats.h"
#include "src/support/table.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"

namespace {

using cpi::Table;
using cpi::attacks::AttackResult;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::core::ProtectionScheme;
using cpi::core::SchemeRegistry;
using cpi::runtime::StoreKind;
using cpi::workloads::CellRequest;
using cpi::workloads::CellResult;
using cpi::workloads::Measurement;
using cpi::workloads::Workload;

// values[row][column]
using Grid = std::vector<std::vector<double>>;

class Stopwatch {
 public:
  double Ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

const char* SchemeName(Protection p) { return SchemeRegistry::Get(p).name(); }

std::vector<std::string> SchemeNames(const std::vector<Protection>& columns) {
  std::vector<std::string> names;
  for (Protection p : columns) {
    names.push_back(SchemeName(p));
  }
  return names;
}

bool Failed(const Measurement& m, Protection p) {
  return m.status.count(p) != 0 && m.status.at(p) != cpi::vm::RunStatus::kOk;
}

std::vector<double> ColumnMeans(const Grid& grid) {
  std::vector<double> means;
  for (size_t c = 0; !grid.empty() && c < grid[0].size(); ++c) {
    std::vector<double> column;
    for (const auto& row : grid) {
      column.push_back(row[c]);
    }
    means.push_back(cpi::Mean(column));
  }
  return means;
}

std::vector<std::string> Names(const std::vector<const Workload*>& workloads) {
  std::vector<std::string> names;
  for (const Workload* w : workloads) {
    names.push_back(w->name);
  }
  return names;
}

std::vector<const Workload*> Rows(std::initializer_list<const std::vector<Workload>*> sets) {
  std::vector<const Workload*> rows;
  for (const auto* set : sets) {
    for (const Workload& w : *set) {
      rows.push_back(&w);
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// The run context every table draws its cells and attack matrices from.

class Suite {
 public:
  explicit Suite(const cpi::bench::Flags& flags)
      : flags(flags), memo(flags.scale, flags.jobs) {}

  const cpi::bench::Flags& flags;
  cpi::workloads::CellMemo memo;
  int failures = 0;  // unexpected failing cells (see Overheads)

  // The standard tables' base configuration: O0, every knob at its default
  // except the engine.
  Config Base(Protection p = Protection::kNone) const {
    Config config;
    config.protection = p;
    config.engine = flags.engine;
    return config;
  }

  // Vanilla plus each of `protections` per workload. Failing columns are
  // tolerated (they surface in the JSON "fails" arrays) so one bad scheme
  // cannot abort a long sweep, but each is reported and makes the suite
  // exit non-zero — except SoftBound, which the paper reports breaking on
  // unsafe pointer idioms (Table 3).
  std::vector<Measurement> Overheads(const char* table, const std::vector<Workload>& workloads,
                                     const std::vector<Protection>& protections) {
    std::vector<Measurement> ms = memo.Measure(workloads, protections, Base());
    for (const Measurement& m : ms) {
      for (const auto& [p, status] : m.status) {
        if (status != cpi::vm::RunStatus::kOk && p != Protection::kSoftBound) {
          std::fprintf(stderr, "suite: FAILED cell %s/%s under %s: %s\n", table,
                       m.workload.c_str(), SchemeName(p), cpi::vm::RunStatusName(status));
          ++failures;
        }
      }
    }
    return ms;
  }

  // Per workload, one cell per config (config 0 is usually the baseline);
  // every cell must complete. Returns [workload][config].
  std::vector<std::vector<CellResult>> Sweep(const std::vector<const Workload*>& workloads,
                                             const std::vector<Config>& configs) {
    std::vector<CellRequest> cells;
    for (const Workload* w : workloads) {
      for (const Config& config : configs) {
        cells.push_back({w, config});
      }
    }
    const std::vector<CellResult> results = memo.Run(cells);
    std::vector<std::vector<CellResult>> out;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
      out.emplace_back(results.begin() + wi * configs.size(),
                       results.begin() + (wi + 1) * configs.size());
      for (const CellResult& r : out.back()) {
        CPI_CHECK(r.status == cpi::vm::RunStatus::kOk);
      }
    }
    return out;
  }

  // The RIPE-style matrix (or its cross-thread rows) under `scheme`.
  const std::vector<AttackResult>& Matrix(const ProtectionScheme* scheme, bool cross_thread) {
    Config config = Base(scheme->id());
    config.scheme = scheme;
    const auto key = cpi::workloads::CanonicalKey(cross_thread ? "ripe_concurrent" : "ripe",
                                                  config);
    auto it = matrices_.find(key);
    if (it == matrices_.end()) {
      it = matrices_
               .emplace(key, cross_thread
                                 ? cpi::attacks::RunCrossThreadMatrix(config, flags.jobs)
                                 : cpi::attacks::RunAttackMatrix(config, flags.jobs))
               .first;
    }
    return it->second;
  }

 private:
  std::map<cpi::workloads::CellKey, std::vector<AttackResult>> matrices_;
};

// Overhead (%) of columns 1.. of each sweep row against its column 0.
Grid OverheadGrid(const std::vector<std::vector<CellResult>>& sweep) {
  Grid grid;
  for (const auto& row : sweep) {
    std::vector<double> out;
    for (size_t c = 1; c < row.size(); ++c) {
      out.push_back(cpi::OverheadPercent(static_cast<double>(row[c].cycles),
                                         static_cast<double>(row[0].cycles)));
    }
    grid.push_back(std::move(out));
  }
  return grid;
}

// Share (%) of safe-store ops that paid the shard-crossing premium.
double ContendedPct(const CellResult& r) {
  return r.safe_store_ops == 0 ? 0.0
                               : 100.0 * static_cast<double>(r.store_contended_ops) /
                                     static_cast<double>(r.safe_store_ops);
}

// ---------------------------------------------------------------------------
// JSON emission. Percents use %.3f.

// "k0":v0,"k1":v1,... with each value printed by `format`.
void JsonFields(const std::vector<std::string>& keys, const std::vector<double>& values,
                const char* format = "%.3f") {
  for (size_t i = 0; i < keys.size(); ++i) {
    std::printf("%s\"%s\":", i == 0 ? "" : ",", keys[i].c_str());
    std::printf(format, values[i]);
  }
}

void JsonMap(const std::vector<std::string>& keys, const std::vector<double>& values,
             const char* format = "%.3f") {
  std::printf("{");
  JsonFields(keys, values, format);
  std::printf("}");
}

// [row(0),row(1),...]
void JsonArray(size_t n, const std::function<void(size_t)>& row) {
  std::printf("[");
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s", i == 0 ? "" : ",");
    row(i);
  }
  std::printf("]");
}

// The table1 / table3 / table4 / fig4 shape.
void JsonOverheadTable(const std::vector<Measurement>& ms, const std::vector<Protection>& columns,
                       bool lang, bool fails) {
  std::printf("{\"rows\":");
  JsonArray(ms.size(), [&](size_t i) {
    const Measurement& m = ms[i];
    std::printf("{\"workload\":\"%s\",", m.workload.c_str());
    if (lang) {
      std::printf("\"lang\":\"%s\",", m.language.c_str());
    }
    std::vector<std::string> keys;
    std::vector<double> values;
    std::vector<std::string> failed;
    for (Protection p : columns) {
      if (Failed(m, p)) {
        failed.push_back(std::string("\"") + SchemeName(p) + "\"");
      } else {
        keys.push_back(SchemeName(p));
        values.push_back(m.overhead_pct.at(p));
      }
    }
    std::printf("\"overhead_pct\":");
    JsonMap(keys, values);
    if (fails) {
      std::printf(",\"fails\":");
      JsonArray(failed.size(), [&](size_t k) { std::printf("%s", failed[k].c_str()); });
    }
    std::printf("}");
  });
  std::printf("}");
}

// ---------------------------------------------------------------------------
// Human rendering.

Table OverheadTable(const std::vector<Measurement>& ms, const std::vector<Protection>& columns,
                    bool lang) {
  std::vector<std::string> header = {"Benchmark"};
  if (lang) {
    header.push_back("Lang");
  }
  for (Protection p : columns) {
    header.push_back(SchemeName(p));
  }
  Table table(header);
  for (const Measurement& m : ms) {
    std::vector<std::string> row = {m.workload};
    if (lang) {
      row.push_back(m.language);
    }
    for (Protection p : columns) {
      row.push_back(Failed(m, p) ? "fails" : Table::FormatPercent(m.overhead_pct.at(p)));
    }
    table.AddRow(row);
  }
  return table;
}

// Rows of percents plus an Average row of the column means.
void PrintGrid(std::vector<std::string> header, const std::vector<std::string>& names,
               const Grid& grid) {
  Table table(std::move(header));
  for (size_t wi = 0; wi < names.size(); ++wi) {
    std::vector<std::string> row = {names[wi]};
    for (double v : grid[wi]) {
      row.push_back(Table::FormatPercent(v));
    }
    table.AddRow(row);
  }
  table.AddSeparator();
  std::vector<std::string> avg = {"Average"};
  for (double v : ColumnMeans(grid)) {
    avg.push_back(Table::FormatPercent(v));
  }
  table.AddRow(avg);
  table.Print();
}

// Columns a0, b0, a1, b1, ...
Grid Interleave(const Grid& a, const Grid& b) {
  Grid out;
  for (size_t wi = 0; wi < a.size(); ++wi) {
    std::vector<double> row;
    for (size_t c = 0; c < a[wi].size(); ++c) {
      row.push_back(a[wi][c]);
      row.push_back(b[wi][c]);
    }
    out.push_back(std::move(row));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The tables. Each requests its cells, reduces them, and returns printers
// over the reduced values.

struct Printers {
  std::function<void()> json;  // the table's value under "tables"
  std::function<void()> text;  // its section of the human report
};

Printers Table1(Suite& s) {
  const auto columns = cpi::workloads::OverheadProtections();
  const auto ms = s.Overheads("table1_spec_overhead", cpi::workloads::SpecCpu2006(), columns);
  return {[=] { JsonOverheadTable(ms, columns, /*lang=*/true, /*fails=*/false); },
          [=] {
            std::printf("Table 1 / Fig. 3 — SPEC CPU2006 performance overhead\n\n");
            Table t = OverheadTable(ms, columns, /*lang=*/true);
            t.AddSeparator();
            // The paper's headline summary rows.
            const auto median = +[](const std::vector<double>& xs) { return cpi::Median(xs); };
            const struct {
              const char* label;
              const char* language;  // "" = all
              double (*reduce)(const std::vector<double>&);
            } summaries[] = {
                {"Average (C/C++)", "", cpi::Mean},  {"Median (C/C++)", "", median},
                {"Maximum (C/C++)", "", cpi::Max},   {"Average (C only)", "C", cpi::Mean},
                {"Median (C only)", "C", median},    {"Maximum (C only)", "C", cpi::Max},
            };
            for (const auto& summary : summaries) {
              std::vector<std::string> row = {summary.label, ""};
              for (Protection p : columns) {
                row.push_back(Table::FormatPercent(summary.reduce(
                    summary.language[0] == '\0'
                        ? cpi::workloads::OverheadColumn(ms, p)
                        : cpi::workloads::OverheadColumnForLanguage(ms, p, summary.language))));
              }
              t.AddRow(row);
            }
            t.Print();
            std::printf(
                "\nPaper reference: SafeStack 0.0%% / CPS 1.9%% / CPI 8.4%% average (C/C++);\n"
                "C-only averages -0.4%% / 1.2%% / 2.9%%. Expect the same ordering and the\n"
                "C++ rows (omnetpp, xalancbmk, dealII) dominating CPI. PtrEnc has no paper\n"
                "counterpart; expect it near CPS (same instrumented ops, PAC-style costs).\n\n");
          }};
}

// Under --opt >= 1: CPI's instrumentation counts before/after the optimizer
// and its per-pass breakdown aggregated over the SPEC set (compile only).
void PrintCpiOptCounts(Suite& s) {
  const auto& spec = cpi::workloads::SpecCpu2006();
  std::printf("CPI instrumentation counts at --opt %d "
              "(instructions: vanilla / instrumented / optimized)\n\n",
              s.flags.opt);
  Config config = s.Base(Protection::kCpi);
  config.opt_level = s.flags.opt;
  Table counts({"Benchmark", "Vanilla", "Instrumented", "Optimized", "Removed", "ChecksElim",
                "StoreOpsElim"});
  std::map<std::string, cpi::opt::PassStats> per_pass;
  for (const Workload& w : spec) {
    auto clone = cpi::ir::CloneModule(s.memo.Built(w));
    const cpi::core::CompileOutput co = cpi::core::Compiler(config).Instrument(*clone);
    uint64_t checks = 0;
    uint64_t store_ops = 0;
    for (const cpi::opt::PassStats& ps : co.opt.passes) {
      checks += ps.eliminated_checks;
      store_ops += ps.eliminated_safe_store_ops;
      cpi::opt::PassStats& agg = per_pass[ps.pass];
      agg.pass = ps.pass;
      agg.removed_instructions += ps.removed_instructions;
      agg.eliminated_checks += ps.eliminated_checks;
      agg.eliminated_safe_store_ops += ps.eliminated_safe_store_ops;
      agg.eliminated_seal_ops += ps.eliminated_seal_ops;
      agg.forwarded_loads += ps.forwarded_loads;
      agg.leaf_ret_elisions += ps.leaf_ret_elisions;
    }
    counts.AddRow({w.name, std::to_string(co.instructions_before),
                   std::to_string(co.instructions_after),
                   std::to_string(co.instructions_after_opt),
                   std::to_string(co.opt.TotalRemoved()), std::to_string(checks),
                   std::to_string(store_ops)});
  }
  counts.Print();
  std::printf("\nPer-pass statistics (aggregated over the SPEC set):\n\n");
  Table passes({"Pass", "Removed", "ChecksElim", "StoreOpsElim", "SealOpsElim",
                "ForwardedLoads", "LeafRetElisions"});
  for (const auto& [name, ps] : per_pass) {
    passes.AddRow({name, std::to_string(ps.removed_instructions),
                   std::to_string(ps.eliminated_checks),
                   std::to_string(ps.eliminated_safe_store_ops),
                   std::to_string(ps.eliminated_seal_ops), std::to_string(ps.forwarded_loads),
                   std::to_string(ps.leaf_ret_elisions)});
  }
  passes.Print();
  std::printf("\n");
}

// Table 2: static compilation statistics of the vanilla cells.
Printers Table2(Suite& s) {
  const auto rows = Rows({&cpi::workloads::SpecCpu2006()});
  const auto sweep = s.Sweep(rows, {s.Base()});
  std::vector<std::pair<const Workload*, cpi::analysis::ModuleStats>> stats;
  for (size_t wi = 0; wi < rows.size(); ++wi) {
    stats.emplace_back(rows[wi], sweep[wi][0].stats);
  }
  return {[=] {
            std::printf("{\"rows\":");
            JsonArray(stats.size(), [&](size_t i) {
              const auto& [w, st] = stats[i];
              std::printf("{\"workload\":\"%s\",\"lang\":\"%s\",\"fnustack_pct\":%.3f,"
                          "\"mocps_pct\":%.3f,\"mocpi_pct\":%.3f}",
                          w->name.c_str(), w->language.c_str(), st.FnuStackPercent(),
                          st.MoCpsPercent(), st.MoCpiPercent());
            });
            std::printf("}");
          },
          [=, &s] {
            std::printf("Table 2 — Levee compilation statistics\n\n");
            Table t({"Benchmark", "Lang", "FNUStack", "MOCPS", "MOCPI"});
            for (const auto& [w, st] : stats) {
              t.AddRow({w->name, w->language, Table::FormatPercent(st.FnuStackPercent()),
                        Table::FormatPercent(st.MoCpsPercent()),
                        Table::FormatPercent(st.MoCpiPercent())});
            }
            t.Print();
            std::printf("\nPaper reference: FNUStack 6.9%%-75.8%%, MOCPS 0.1%%-17.5%%, "
                        "MOCPI 0.1%%-36.6%%;\nMOCPS <= MOCPI on every row, C++ rows "
                        "highest.\n\n");
            if (s.flags.opt >= 1) {
              PrintCpiOptCounts(s);
            }
          }};
}

Printers Table3(Suite& s) {
  std::vector<Protection> columns = cpi::workloads::OverheadProtections();
  columns.push_back(Protection::kSoftBound);  // the subject column
  const auto ms = s.Overheads("table3_softbound", cpi::workloads::SpecCpu2006(), columns);
  return {[=] { JsonOverheadTable(ms, columns, /*lang=*/false, /*fails=*/true); },
          [=] {
            std::printf("Table 3 — Levee vs SoftBound-style full memory safety\n\n");
            OverheadTable(ms, columns, /*lang=*/false).Print();
            const auto failures = std::count_if(ms.begin(), ms.end(), [](const Measurement& m) {
              return Failed(m, Protection::kSoftBound);
            });
            std::printf("\nSoftBound failures: %d (the paper likewise reports that many SPEC\n"
                        "benchmarks do not compile or run under SoftBound).\n"
                        "Paper reference rows: bzip2 2.8%% CPI vs 90.2%% SoftBound; h264ref\n"
                        "5.8%% vs 249.4%% — CPI should be an order of magnitude cheaper.\n\n",
                        static_cast<int>(failures));
          }};
}

// The table1-shaped overhead tables over their own workload sets.
Printers SimpleOverheads(Suite& s, const char* name, const std::vector<Workload>& workloads,
                         const char* title, const char* footnote) {
  const auto columns = cpi::workloads::OverheadProtections();
  const auto ms = s.Overheads(name, workloads, columns);
  return {[=] { JsonOverheadTable(ms, columns, /*lang=*/false, /*fails=*/false); },
          [=] {
            std::printf("%s\n\n", title);
            OverheadTable(ms, columns, /*lang=*/false).Print();
            std::printf("\n%s\n", footnote);
          }};
}

constexpr const char* kTable4Reference =
    "Paper reference: static 1.7/8.9/16.9%, wsgi 1.0/4.0/15.3%, dynamic\n"
    "1.4/15.9/138.8% (SafeStack/CPS/CPI) — expect the same ordering with the\n"
    "dynamic page dominating CPI, single- and multi-threaded alike.\n";

Printers Table4(Suite& s) {
  return SimpleOverheads(s, "table4_webserver", cpi::workloads::WebServer(),
                         "Table 4 — web-server stack throughput overhead", kTable4Reference);
}

// Table 4's scenarios as multi-worker servers on the VM's thread scheduler
// (per-thread safe stacks, shared safe store), plus a producer/consumer
// pair. Deterministic at any --jobs value and scheduler quantum.
Printers Table4Concurrent(Suite& s) {
  return SimpleOverheads(s, "table4_concurrent", cpi::workloads::ConcurrentServer(),
                         "Table 4 (concurrent) — multi-worker servers, simulated threads",
                         kTable4Reference);
}

Printers Fig4(Suite& s) {
  return SimpleOverheads(s, "fig4_phoronix", cpi::workloads::Phoronix(),
                         "Fig. 4 — Phoronix suite performance overhead",
                         "Paper reference: most Phoronix overheads within measurement noise "
                         "for\nSafeStack/CPS; pybench the clear CPI outlier.\n");
}

// Fig. 5: each defense row's matrix verdict plus its average overhead on
// the Table-3 subset.
Printers Fig5(Suite& s) {
  struct Row {
    const ProtectionScheme* scheme;
    int hijacked = 0;
    int attacks = 0;
    bool some_fail = false;
    bool has_overhead = false;
    double avg_overhead_pct = 0;
  };
  std::vector<Workload> subset;  // in SPEC order
  for (const Workload& w : cpi::workloads::SpecCpu2006()) {
    for (const char* name : {"401.bzip2", "447.dealII", "458.sjeng", "464.h264ref"}) {
      if (w.name == name) {
        subset.push_back(w);
      }
    }
  }
  const auto defenses = SchemeRegistry::DefenseRows();
  std::vector<Protection> columns;
  for (const ProtectionScheme* d : defenses) {
    columns.push_back(d->id());
  }
  const auto ms = s.Overheads("fig5_defense_matrix", subset, columns);
  std::vector<Row> rows;
  for (const ProtectionScheme* d : defenses) {
    Row row{d};
    for (const AttackResult& r : s.Matrix(d, /*cross_thread=*/false)) {
      ++row.attacks;
      row.hijacked += r.Hijacked() ? 1 : 0;
    }
    std::vector<double> overheads;
    for (const Measurement& m : ms) {
      if (Failed(m, d->id())) {
        row.some_fail = true;
      } else {
        overheads.push_back(m.overhead_pct.at(d->id()));
      }
    }
    row.has_overhead = !overheads.empty();
    row.avg_overhead_pct = row.has_overhead ? cpi::Mean(overheads) : 0;
    rows.push_back(row);
  }
  return {[=] {
            std::printf("{\"rows\":");
            JsonArray(rows.size(), [&](size_t i) {
              const Row& r = rows[i];
              std::printf("{\"name\":\"%s\",\"mechanism\":\"%s\",\"hijacked\":%d,"
                          "\"attacks\":%d,\"stops_all\":%s,\"some_fail\":%s,"
                          "\"avg_overhead_pct\":",
                          r.scheme->name(), r.scheme->description(), r.hijacked, r.attacks,
                          r.hijacked == 0 ? "true" : "false", r.some_fail ? "true" : "false");
              if (r.has_overhead) {
                std::printf("%.3f}", r.avg_overhead_pct);
              } else {
                std::printf("null}");
              }
            });
            std::printf("}");
          },
          [=] {
            std::printf("Fig. 5 — control-flow hijack defense mechanisms\n\n");
            Table t({"Mechanism", "Stops all control-flow hijacks?", "Avg overhead"});
            for (const Row& r : rows) {
              std::string overhead = r.has_overhead ? Table::FormatPercent(r.avg_overhead_pct)
                                                    : std::string("n/a");
              if (r.some_fail) {
                overhead += " (some fail)";
              }
              t.AddRow({r.scheme->description(),
                        r.hijacked == 0 ? "Yes"
                                        : "No: " + std::to_string(r.hijacked) + "/" +
                                              std::to_string(r.attacks) +
                                              " attacks still hijack",
                        overhead});
            }
            t.Print();
            std::printf(
                "\nPaper reference (Fig. 5 avg overheads): memory safety 116%%, CPI 8.4%%,\n"
                "CPS 1.9%%, SafeStack ~0%%, cookies ~2%%, CFI 20%%. Only memory safety and\n"
                "CPI stop all hijacks; CPS stops all attacks in practice (all matrix\n"
                "attacks here); cookies/CFI are bypassed.\n\n");
          }};
}

// A per-workload ablation over SPEC: CPI under each variant config, as
// overhead vs vanilla, with an "average" row.
Printers SpecAblation(Suite& s, const std::vector<Config>& variants,
                      const std::vector<std::string>& keys, bool nested, const char* title,
                      const std::vector<std::string>& header, const char* footnote) {
  const auto rows = Rows({&cpi::workloads::SpecCpu2006()});
  std::vector<Config> configs = {s.Base()};
  configs.insert(configs.end(), variants.begin(), variants.end());
  const Grid grid = OverheadGrid(s.Sweep(rows, configs));
  const auto names = Names(rows);
  const auto fields = [=](const std::vector<double>& values) {
    if (nested) {
      std::printf("\"overhead_pct\":");
      JsonMap(keys, values);
    } else {
      JsonFields(keys, values);
    }
  };
  return {[=] {
            std::printf("{\"rows\":");
            JsonArray(names.size(), [&](size_t wi) {
              std::printf("{\"workload\":\"%s\",", names[wi].c_str());
              fields(grid[wi]);
              std::printf("}");
            });
            std::printf(",\"average\":");
            JsonMap(keys, ColumnMeans(grid));
            std::printf("}");
          },
          [=] {
            std::printf("%s\n\n", title);
            PrintGrid(header, names, grid);
            std::printf("\n%s\n", footnote);
          }};
}

Printers AblationIsolation(Suite& s) {
  std::vector<Config> variants;
  for (auto isolation : {cpi::runtime::IsolationKind::kSegment,
                         cpi::runtime::IsolationKind::kInfoHiding,
                         cpi::runtime::IsolationKind::kSfi}) {
    variants.push_back(s.Base(Protection::kCpi));
    variants.back().isolation = isolation;
  }
  return SpecAblation(s, variants, {"segment", "info-hiding", "sfi"}, /*nested=*/true,
                      "Ablation (§3.2.3) — isolation mechanism cost under CPI",
                      {"Benchmark", "segment", "info-hiding", "sfi"},
                      "Paper reference: \"the additional overhead introduced by SFI was less\n"
                      "than 5%\"; segments and info-hiding are free per-access.\n");
}

Printers AblationMpx(Suite& s) {
  Config assisted = s.Base(Protection::kCpi);
  assisted.mpx_assist = true;
  return SpecAblation(s, {s.Base(Protection::kCpi), assisted}, {"software_pct", "mpx_pct"},
                      /*nested=*/false,
                      "Ablation (§4) — projected hardware-assisted (MPX-style) CPI",
                      {"Benchmark", "CPI (software)", "CPI (MPX-assisted)"},
                      "The paper projects (no numbers available at the time) that MPX-style\n"
                      "hardware \"can reduce the overhead of a software-only CPI\" the way\n"
                      "HardBound/Watchdog reduced SoftBound's. Expect assisted <= software "
                      "on\nevery row.\n");
}

// §5.1: one row per registry RipeRow scheme, or the cross-thread rows
// (thread A corrupting thread B's saved return address and probing its
// safe-stack home).
Printers Ripe(Suite& s, bool cross_thread) {
  struct Row {
    const char* name;
    int counts[4] = {0, 0, 0, 0};  // AttackOutcome order
  };
  std::vector<Row> rows;
  for (const ProtectionScheme* scheme : SchemeRegistry::RipeRows()) {
    Row row{scheme->name()};
    for (const AttackResult& r : s.Matrix(scheme, cross_thread)) {
      ++row.counts[static_cast<int>(r.outcome)];
    }
    rows.push_back(row);
  }
  const int attacks = static_cast<int>(cross_thread
                                           ? cpi::attacks::GenerateCrossThreadMatrix().size()
                                           : cpi::attacks::GenerateAttackMatrix().size());
  std::vector<std::string> cfi_bypasses;
  if (!cross_thread) {
    for (const AttackResult& r : s.Matrix(&SchemeRegistry::Get(Protection::kCfi), false)) {
      if (r.Hijacked()) {
        cfi_bypasses.push_back(r.spec.Name());
      }
    }
  }
  return {[=] {
            std::printf("{\"attacks\":%d,\"rows\":", attacks);
            JsonArray(rows.size(), [&](size_t i) {
              const Row& r = rows[i];
              std::printf("{\"name\":\"%s\",\"hijacked\":%d,\"prevented\":%d,"
                          "\"crashed\":%d,\"no_effect\":%d}",
                          r.name, r.counts[0], r.counts[1], r.counts[2], r.counts[3]);
            });
            std::printf("}");
          },
          [=] {
            if (cross_thread) {
              std::printf("Cross-thread attack matrix: %d combinations (thread A vs thread "
                          "B)\n\n",
                          attacks);
            } else {
              std::printf("RIPE-style attack matrix (§5.1): %d attack combinations\n\n",
                          attacks);
            }
            Table t({"Protection", "Hijacked", "Prevented", "Crashed", "No effect"});
            for (const Row& r : rows) {
              t.AddRow({r.name, std::to_string(r.counts[0]), std::to_string(r.counts[1]),
                        std::to_string(r.counts[2]), std::to_string(r.counts[3])});
            }
            t.Print();
            if (!cross_thread) {
              std::printf("\nDetailed CFI bypasses (the [19,15,9]-style attacks):\n");
              for (const std::string& name : cfi_bypasses) {
                std::printf("  HIJACKED under CFI: %s\n", name.c_str());
              }
              std::printf("\nPaper reference: vanilla Ubuntu 6.06 833-848/850 exploits "
                          "succeed;\nwith CPS or CPI, none do. Expect 0 hijacks for cps, cpi "
                          "and ptrenc rows.\n");
            }
            std::printf("\n");
          }};
}

Printers RipeEffectiveness(Suite& s) { return Ripe(s, /*cross_thread=*/false); }
Printers RipeConcurrent(Suite& s) { return Ripe(s, /*cross_thread=*/true); }

// Per-scheme SPEC overhead with the post-instrumentation optimizer off and
// on, each level against its own vanilla baseline.
Printers AblationOpt(Suite& s) {
  const auto rows = Rows({&cpi::workloads::SpecCpu2006()});
  const auto columns = cpi::workloads::OverheadProtections();
  const auto overheads_at = [&](int level) {
    std::vector<Config> configs = {s.Base()};
    for (Protection p : columns) {
      configs.push_back(s.Base(p));
    }
    for (Config& c : configs) {
      c.opt_level = level;
    }
    return OverheadGrid(s.Sweep(rows, configs));
  };
  const Grid o0 = overheads_at(0);
  const Grid on = overheads_at(s.flags.opt);
  const std::vector<std::string> keys = SchemeNames(columns);
  const Grid grid = Interleave(o0, on);  // [wi][2 * scheme + level]
  const auto names = Names(rows);
  const int opt = s.flags.opt;
  const auto json_levels = [=](const std::vector<double>& values) {
    std::printf("{");
    for (size_t k = 0; k < keys.size(); ++k) {
      std::printf("%s\"%s\":", k == 0 ? "" : ",", keys[k].c_str());
      JsonMap({"o0", "o1"}, {values[2 * k], values[2 * k + 1]});
    }
    std::printf("}");
  };
  return {[=] {
            std::printf("{\"opt_level\":%d,\"rows\":", opt);
            JsonArray(names.size(), [&](size_t wi) {
              std::printf("{\"workload\":\"%s\",\"overhead_pct\":", names[wi].c_str());
              json_levels(grid[wi]);
              std::printf("}");
            });
            std::printf(",\"average\":");
            json_levels(ColumnMeans(grid));
            std::printf("}");
          },
          [=] {
            std::printf("Ablation — post-instrumentation optimizer (overhead at O0 vs O%d)\n\n",
                        opt);
            std::vector<std::string> header = {"Benchmark"};
            for (const std::string& k : keys) {
              header.push_back(k + " O0");
              header.push_back(k + " O" + std::to_string(opt));
            }
            PrintGrid(header, names, grid);
            std::printf("\nPaper reference (§5.2): the reported 8.4%% CPI / 1.9%% CPS averages\n"
                        "assume post-instrumentation optimization; expect every protected\n"
                        "column to drop from O0 to O%d, most for CPI (redundant safe-store\n"
                        "gets and dominated bounds checks fold away).\n\n",
                        opt);
          }};
}

// §5.2: median memory overhead and resident safe-store bytes per store
// organisation and overhead scheme.
Printers MemOverhead(Suite& s) {
  struct Row {
    StoreKind store = StoreKind::kArray;
    std::vector<double> median_overhead_pct;      // per scheme
    std::vector<double> median_safe_store_bytes;  // per scheme
  };
  const auto rows = Rows({&cpi::workloads::SpecCpu2006()});
  const auto columns = cpi::workloads::OverheadProtections();
  const std::vector<std::string> keys = SchemeNames(columns);
  std::vector<Row> stores;
  for (StoreKind store : {StoreKind::kHash, StoreKind::kTwoLevel, StoreKind::kArray}) {
    std::vector<Config> configs = {s.Base()};
    for (Protection p : columns) {
      configs.push_back(s.Base(p));
      configs.back().store = store;
    }
    const auto sweep = s.Sweep(rows, configs);
    Row row;
    row.store = store;
    for (size_t pi = 0; pi < columns.size(); ++pi) {
      std::vector<double> overheads;
      std::vector<double> bytes;
      for (const auto& cells : sweep) {
        overheads.push_back(cpi::OverheadPercent(static_cast<double>(cells[1 + pi].memory_bytes),
                                                 static_cast<double>(cells[0].memory_bytes)));
        bytes.push_back(static_cast<double>(cells[1 + pi].safe_store_bytes));
      }
      row.median_overhead_pct.push_back(cpi::Median(overheads));
      row.median_safe_store_bytes.push_back(cpi::Median(bytes));
    }
    stores.push_back(row);
  }
  return {[=] {
            std::printf("{\"stores\":");
            JsonArray(stores.size(), [&](size_t i) {
              std::printf("{\"store\":\"%s\",\"median_overhead_pct\":",
                          cpi::runtime::StoreKindName(stores[i].store));
              JsonMap(keys, stores[i].median_overhead_pct);
              std::printf(",\"median_safe_store_bytes\":");
              JsonMap(keys, stores[i].median_safe_store_bytes, "%.0f");
              std::printf("}");
            });
            std::printf("}");
          },
          [=] {
            std::printf("§5.2 — memory overhead of the safe region (median over SPEC "
                        "models)\n\n");
            std::vector<std::string> header = {"Configuration"};
            header.insert(header.end(), keys.begin(), keys.end());
            Table percents(header);
            Table bytes(header);
            for (const Row& row : stores) {
              const std::string label =
                  std::string("store = ") + cpi::runtime::StoreKindName(row.store);
              std::vector<std::string> p = {label};
              std::vector<std::string> b = {label};
              for (size_t k = 0; k < keys.size(); ++k) {
                p.push_back(Table::FormatPercent(row.median_overhead_pct[k]));
                b.push_back(std::to_string(static_cast<uint64_t>(row.median_safe_store_bytes[k])));
              }
              percents.AddRow(p);
              bytes.AddRow(b);
            }
            percents.Print();
            std::printf("\nMedian resident safe-store bytes (runtime shape per scheme):\n\n");
            bytes.Print();
            std::printf(
                "\nPaper reference (medians): safe stack 0.1%%; CPS 2.1%% hash / 5.6%% array;\n"
                "CPI 13.9%% hash / 105%% array. Expect hash << array for CPI, CPS well below\n"
                "CPI for every organisation, and ptrenc at exactly 0 safe-store bytes (its\n"
                "MACs live in the pointers' own high bits).\n\n");
          }};
}

const std::vector<uint32_t> kShardCounts = {1, 2, 4, 8, 16, 64};

// A per-workload, per-shard-count value grid under its JSON key.
struct ShardGrid {
  const char* key;
  Grid values;
  const char* format = "%.3f";
};

// {"shard_counts":[...],"rows":[{"workload":W, key:{count:value,...},...}],
//  "average":{key:{count:mean,...},...}}
void JsonShardTable(const std::vector<std::string>& names, const std::vector<ShardGrid>& rows,
                    const std::vector<ShardGrid>& averages) {
  std::vector<std::string> keys;
  for (uint32_t shards : kShardCounts) {
    keys.push_back(std::to_string(shards));
  }
  std::printf("{\"shard_counts\":");
  JsonArray(kShardCounts.size(), [](size_t si) { std::printf("%u", kShardCounts[si]); });
  std::printf(",\"rows\":");
  JsonArray(names.size(), [&](size_t wi) {
    std::printf("{\"workload\":\"%s\"", names[wi].c_str());
    for (const ShardGrid& g : rows) {
      std::printf(",\"%s\":", g.key);
      JsonMap(keys, g.values[wi], g.format);
    }
    std::printf("}");
  });
  std::printf(",\"average\":{");
  for (size_t i = 0; i < averages.size(); ++i) {
    std::printf("%s\"%s\":", i == 0 ? "" : ",", averages[i].key);
    JsonMap(keys, ColumnMeans(averages[i].values));
  }
  std::printf("}}");
}

// ablation_shards: CPI at each safe-region shard count on the event-loop
// server plus the concurrent scenarios. S=1 is the historical flat
// contention model; sharding only re-prices accesses, so the safe-store op
// count must not move.
Printers AblationShards(Suite& s) {
  const auto rows = Rows({&cpi::workloads::EventLoop(), &cpi::workloads::ConcurrentServer()});
  std::vector<Config> configs = {s.Base()};
  for (uint32_t shards : kShardCounts) {
    configs.push_back(s.Base(Protection::kCpi));
    configs.back().shards = shards;
  }
  const auto sweep = s.Sweep(rows, configs);
  Grid contended;
  for (const auto& cells : sweep) {
    std::vector<double> row;
    for (size_t si = 0; si < kShardCounts.size(); ++si) {
      CPI_CHECK(cells[1 + si].safe_store_ops == cells[1].safe_store_ops);
      row.push_back(ContendedPct(cells[1 + si]));
    }
    contended.push_back(std::move(row));
  }
  const Grid overhead = OverheadGrid(sweep);
  const auto names = Names(rows);
  return {[=] {
            JsonShardTable(names, {{"overhead_pct", overhead}, {"contended_pct", contended}},
                           {{"overhead_pct", overhead}, {"contended_pct", contended}});
          },
          [=] {
            std::printf("Ablation — safe-region shard count (event-loop + concurrent "
                        "servers)\n\n");
            std::vector<std::string> header = {"Benchmark"};
            for (uint32_t shards : kShardCounts) {
              header.push_back("S=" + std::to_string(shards));
            }
            std::printf("CPI overhead vs vanilla at each shard count:\n\n");
            PrintGrid(header, names, overhead);
            std::printf("\nShare of safe-store ops paying the shard-crossing premium:\n\n");
            PrintGrid(header, names, contended);
            std::printf("\nS=1 is the historical flat model (every concurrent access pays the\n"
                        "sync premium); the floor at high shard counts is the workload's true\n"
                        "cross-thread share of safe-store traffic.\n\n");
          }};
}

// ablation_churn: static vs epoch-versioned shard ownership
// (Config::migrate). The churn server retires and respawns its worker pool
// so connection cells outlive the generation that allocated them; the
// ablation_shards workloads ride along to show migration never charges
// more than the static table. Per shard count: identical safe-store op
// counts, epoch contended ops <= static, no migrations with the flag off.
Printers AblationChurn(Suite& s) {
  const auto rows = Rows({&cpi::workloads::ChurnServer(), &cpi::workloads::EventLoop(),
                          &cpi::workloads::ConcurrentServer()});
  std::vector<Config> configs = {s.Base()};
  for (uint32_t shards : kShardCounts) {
    for (bool migrate : {false, true}) {
      configs.push_back(s.Base(Protection::kCpi));
      configs.back().shards = shards;
      configs.back().migrate = migrate;
    }
  }
  const auto sweep = s.Sweep(rows, configs);
  const Grid both = OverheadGrid(sweep);  // [wi][2 * si + migrate]
  Grid st_over(rows.size()), ep_over(rows.size()), st_cont(rows.size()), ep_cont(rows.size()),
      migrations(rows.size());
  uint64_t total_migrations = 0;
  for (size_t wi = 0; wi < rows.size(); ++wi) {
    for (size_t si = 0; si < kShardCounts.size(); ++si) {
      const CellResult& st = sweep[wi][1 + 2 * si];
      const CellResult& ep = sweep[wi][2 + 2 * si];
      CPI_CHECK(st.safe_store_ops == sweep[wi][1].safe_store_ops);
      CPI_CHECK(ep.safe_store_ops == st.safe_store_ops);
      CPI_CHECK(ep.store_contended_ops <= st.store_contended_ops);
      CPI_CHECK(st.shard_migrations == 0);
      st_over[wi].push_back(both[wi][2 * si]);
      ep_over[wi].push_back(both[wi][2 * si + 1]);
      st_cont[wi].push_back(ContendedPct(st));
      ep_cont[wi].push_back(ContendedPct(ep));
      migrations[wi].push_back(static_cast<double>(ep.shard_migrations));
      total_migrations += ep.shard_migrations;
    }
  }
  const auto names = Names(rows);
  return {[=] {
            JsonShardTable(names,
                           {{"static_overhead_pct", st_over},
                            {"epoch_overhead_pct", ep_over},
                            {"static_contended_pct", st_cont},
                            {"epoch_contended_pct", ep_cont},
                            {"migrations", migrations, "%.0f"}},
                           {{"static_contended_pct", st_cont}, {"epoch_contended_pct", ep_cont}});
          },
          [=] {
            std::printf("Ablation — static vs epoch shard ownership (worker churn)\n\n");
            std::vector<std::string> header = {"Benchmark"};
            for (uint32_t shards : kShardCounts) {
              header.push_back("S=" + std::to_string(shards) + " st");
              header.push_back("S=" + std::to_string(shards) + " ep");
            }
            std::printf("CPI overhead vs vanilla, static (st) vs epoch (ep) ownership:\n\n");
            PrintGrid(header, names, Interleave(st_over, ep_over));
            std::printf("\nShare of safe-store ops paying the shard-crossing premium:\n\n");
            PrintGrid(header, names, Interleave(st_cont, ep_cont));
            std::printf("\nEpoch publishes charged %llu shard-owner migrations in total\n"
                        "(one OpCosts::sync each). The st columns reproduce the static\n"
                        "ablation_shards pricing; the ep columns re-derive owners at every\n"
                        "spawn/join so worker heirs stop paying for inherited connection\n"
                        "cells and frozen read-mostly shards stop paying altogether.\n\n",
                        static_cast<unsigned long long>(total_migrations));
          }};
}

// table_composites: the composable schemes (SchemeRegistry::
// CompositeTableRows) — SPEC overhead plus both attack matrices, with the
// auth-abort count (kPointerAuthFailure verdicts) broken out; the ret-chain
// schemes turn ret-hijacks into exactly these. Cells select by
// Config::scheme, since a composite borrows its first component's
// Protection id.
Printers TableComposites(Suite& s) {
  struct Matrix {
    int counts[4] = {0, 0, 0, 0};  // AttackOutcome order
    int auth_aborts = 0;
  };
  struct Row {
    const ProtectionScheme* scheme = nullptr;
    std::vector<double> overhead_pct;  // per SPEC workload
    Matrix ripe;
    Matrix ripe_concurrent;
  };
  const auto rows = Rows({&cpi::workloads::SpecCpu2006()});
  const auto schemes = SchemeRegistry::CompositeTableRows();
  std::vector<Config> configs = {s.Base()};
  for (const ProtectionScheme* scheme : schemes) {
    configs.push_back(s.Base(scheme->id()));
    configs.back().scheme = scheme;
  }
  const Grid grid = OverheadGrid(s.Sweep(rows, configs));
  std::vector<Row> out;
  for (size_t si = 0; si < schemes.size(); ++si) {
    Row row;
    row.scheme = schemes[si];
    for (const auto& per_workload : grid) {
      row.overhead_pct.push_back(per_workload[si]);
    }
    for (bool cross_thread : {false, true}) {
      Matrix& m = cross_thread ? row.ripe_concurrent : row.ripe;
      for (const AttackResult& r : s.Matrix(schemes[si], cross_thread)) {
        ++m.counts[static_cast<int>(r.outcome)];
        m.auth_aborts += r.violation == cpi::runtime::Violation::kPointerAuthFailure ? 1 : 0;
      }
    }
    out.push_back(std::move(row));
  }
  const auto names = Names(rows);
  const int attacks = static_cast<int>(cpi::attacks::GenerateAttackMatrix().size());
  const int concurrent_attacks =
      static_cast<int>(cpi::attacks::GenerateCrossThreadMatrix().size());
  return {[=] {
            std::printf("{\"attacks\":%d,\"concurrent_attacks\":%d,\"rows\":", attacks,
                        concurrent_attacks);
            const auto json_matrix = [](const char* key, const Matrix& m) {
              std::printf("\"%s\":{\"hijacked\":%d,\"prevented\":%d,\"crashed\":%d,"
                          "\"no_effect\":%d,\"auth_aborts\":%d}",
                          key, m.counts[0], m.counts[1], m.counts[2], m.counts[3],
                          m.auth_aborts);
            };
            JsonArray(out.size(), [&](size_t ri) {
              const Row& row = out[ri];
              std::printf("{\"name\":\"%s\",\"mechanism\":\"%s\",\"avg_overhead_pct\":%.3f,"
                          "\"overhead_pct\":",
                          row.scheme->name(), row.scheme->description(),
                          cpi::Mean(row.overhead_pct));
              JsonMap(names, row.overhead_pct);
              std::printf(",");
              json_matrix("ripe", row.ripe);
              std::printf(",");
              json_matrix("ripe_concurrent", row.ripe_concurrent);
              std::printf("}");
            });
            std::printf("}");
          },
          [=] {
            std::printf("Composite schemes — stacked pipelines (overhead + both matrices)\n\n");
            Table t({"Scheme", "Avg overhead", "RIPE hijacked", "RIPE auth-aborts",
                     "X-thread hijacked", "X-thread auth-aborts"});
            for (const Row& row : out) {
              t.AddRow({row.scheme->name(), Table::FormatPercent(cpi::Mean(row.overhead_pct)),
                        std::to_string(row.ripe.counts[0]) + "/" + std::to_string(attacks),
                        std::to_string(row.ripe.auth_aborts),
                        std::to_string(row.ripe_concurrent.counts[0]) + "/" +
                            std::to_string(concurrent_attacks),
                        std::to_string(row.ripe_concurrent.auth_aborts)});
            }
            t.Print();
            std::printf("\nThe ret-chain rows convert saved-return corruption — including the\n"
                        "cross-thread variants — into kPointerAuthFailure aborts "
                        "(auth-aborts).\n\n");
          }};
}

// ---------------------------------------------------------------------------
// Every table, in report order. `run` is the execution order, which decides
// which table a shared cell is charged to: table1 absorbs the SPEC sweep,
// table4_concurrent the S=1 cells of ablation_shards, which in turn absorbs
// most of ablation_churn's static column, and ripe_effectiveness the
// matrices fig5 reads.
struct TableDef {
  const char* name;
  int run;
  bool opt_only;  // emitted only at --opt >= 1
  Printers (*make)(Suite&);
};

const TableDef kTables[] = {
    {"table1_spec_overhead", 0, false, Table1},
    {"table2_compile_stats", 1, false, Table2},
    {"table3_softbound", 2, false, Table3},
    {"table4_webserver", 7, false, Table4},
    {"table4_concurrent", 8, false, Table4Concurrent},
    {"fig4_phoronix", 6, false, Fig4},
    {"fig5_defense_matrix", 13, false, Fig5},
    {"ablation_isolation", 3, false, AblationIsolation},
    {"ablation_mpx", 4, false, AblationMpx},
    {"ripe_effectiveness", 11, false, RipeEffectiveness},
    {"ripe_concurrent", 12, false, RipeConcurrent},
    {"ablation_opt", 15, true, AblationOpt},
    {"mem_overhead", 5, false, MemOverhead},
    {"ablation_shards", 9, false, AblationShards},
    {"ablation_churn", 10, false, AblationChurn},
    {"table_composites", 14, false, TableComposites},
};

}  // namespace

int main(int argc, char** argv) {
  const cpi::bench::Flags flags = cpi::bench::Parse(argc, argv);
  const Stopwatch total;
  Suite suite(flags);

  constexpr size_t kCount = sizeof(kTables) / sizeof(kTables[0]);
  std::vector<size_t> order;
  for (size_t i = 0; i < kCount; ++i) {
    if (!kTables[i].opt_only || flags.opt >= 1) {
      order.push_back(i);
    }
  }
  std::vector<size_t> run_order = order;
  std::sort(run_order.begin(), run_order.end(),
            [](size_t a, size_t b) { return kTables[a].run < kTables[b].run; });
  std::vector<Printers> printers(kCount);
  std::map<std::string, double> table_wall_ms;
  for (size_t i : run_order) {
    const Stopwatch watch;
    printers[i] = kTables[i].make(suite);
    table_wall_ms[kTables[i].name] = watch.Ms();
  }
  const double wall_ms = total.Ms();

  if (suite.failures != 0) {
    std::fprintf(stderr, "suite: %d unexpected cell failure(s); exiting non-zero\n",
                 suite.failures);
  }
  const int exit_code = suite.failures == 0 ? 0 : 1;

  if (flags.json) {
    std::printf("{\"bench\":\"suite\",\"scale\":%d,\"jobs\":%d,"
                "\"hardware_concurrency\":%d,\"wall_ms\":%.1f,\"table_wall_ms\":{",
                flags.scale, flags.jobs, cpi::ThreadPool::DefaultJobs(), wall_ms);
    bool first = true;
    for (const auto& [name, ms] : table_wall_ms) {
      std::printf("%s\"%s\":%.1f", first ? "" : ",", name.c_str(), ms);
      first = false;
    }
    std::printf("},\"tables\":{");
    for (size_t k = 0; k < order.size(); ++k) {
      std::printf("%s\"%s\":", k == 0 ? "" : ",", kTables[order[k]].name);
      printers[order[k]].json();
    }
    std::printf("}");  // closes "tables" — byte-identical across engines

    // Fusion statistics live OUTSIDE .tables: they describe the execution
    // tier, not the measured program, and vary with --engine while the
    // tables never do.
    const cpi::vm::FusionStats fusion = cpi::vm::GetFusionStats();
    std::printf(",\"engine\":\"%s\",\"fusion\":{\"modules\":%llu,"
                "\"ops_before\":%llu,\"ops_after\":%llu,\"patterns\":",
                cpi::vm::EngineKindName(flags.engine),
                static_cast<unsigned long long>(fusion.modules),
                static_cast<unsigned long long>(fusion.ops_before),
                static_cast<unsigned long long>(fusion.ops_after));
    JsonArray(std::min<size_t>(fusion.patterns.size(), 10), [&](size_t i) {
      const cpi::vm::FusionPatternStat& ps = fusion.patterns[i];
      std::printf("{\"name\":\"%s\",\"sites\":%llu,\"weight\":%llu,\"hits\":%llu}",
                  ps.name.c_str(), static_cast<unsigned long long>(ps.sites),
                  static_cast<unsigned long long>(ps.weight),
                  static_cast<unsigned long long>(ps.hits));
    });
    std::printf("}}\n");
    return exit_code;
  }

  std::printf("Unified bench suite — all paper tables, one process "
              "(scale %d, jobs %d)\n\n",
              flags.scale, flags.jobs);
  for (size_t i : order) {
    printers[i].text();
  }
  if (flags.timing) {
    std::printf("wall-clock: %.1f ms total (scale %d, jobs %d, %zu distinct cells)\n", wall_ms,
                flags.scale, flags.jobs, suite.memo.executed());
    for (const auto& [name, ms] : table_wall_ms) {
      std::printf("  %-22s %8.1f ms\n", name.c_str(), ms);
    }
  }
  return exit_code;
}
