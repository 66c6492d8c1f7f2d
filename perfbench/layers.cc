// In-process workloads of the repository benchmark, and the traced
// layer-by-layer replay (see README.md).
//
//   perfbench_layers fuzz-campaign|mt-servers
//       --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints one JSON object of raw samples and counts on stdout; run.py reduces
// it into metrics. Everything runs on the calling thread (--jobs 1, scale 1).
//
// Untraced runs go through the facade (core::Compiler::Instrument +
// core::Run, or fuzz::RunCase). The traced run replays each cell through the
// public entry points in the order the facade calls them, with a span around
// each call, and requires the replay's result to equal the facade's: if they
// differed, the trace would be measuring a different program.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/classify.h"
#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"
#include "src/instrument/passes.h"
#include "src/ir/clone.h"
#include "src/ir/verifier.h"
#include "src/opt/pass_manager.h"
#include "src/support/check.h"
#include "src/vm/decode.h"
#include "src/vm/fault.h"
#include "src/vm/machine.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace cpi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  CPI_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// The time-bounded loops start another unit of work only while it is
// expected to end inside the budget, and always run at least `min_units`.
bool StartAnother(const std::vector<double>& unit_s, double elapsed, double budget,
                  size_t min_units) {
  return unit_s.size() < min_units || elapsed + Mean(unit_s) <= budget;
}

// ---------------------------------------------------------------------------
// Spans. Each layer call of a replayed cell is one span; the spans of one
// cell share its id and are children of that cell's "cell" span. Spans stay
// in memory and are written out once, at the end.

struct Span {
  const char* name;
  uint32_t cell;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), name_(name), start_(Clock::now()) {}
    ~Scope() { tracer_.Record(name_, start_, Clock::now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point start_;
  };

  uint32_t NextCell() { return ++cell_; }
  size_t size() const { return spans_.size(); }

  // Summed duration in ms of the spans named `name` in [from, to).
  double TotalMs(const char* name, size_t from, size_t to) const {
    int64_t ns = 0;
    for (size_t i = from; i < to; ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        ns += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return static_cast<double>(ns) / 1e6;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"cell\":" << s.cell
          << ",\"parent\":" << (std::strcmp(s.name, "cell") == 0 ? "null" : "\"cell\"")
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  void Record(const char* name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, cell_, Ns(start), Ns(end)});
  }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  uint32_t cell_ = 0;
  std::vector<Span> spans_;
};

// Work counted at the same layer boundaries as the spans.
struct LayerCounts {
  uint64_t cells = 0;
  uint64_t clones = 0;
  uint64_t instructions_added = 0;
  uint64_t opt_removed = 0;
  uint64_t checks_eliminated = 0;
  uint64_t decode_ops = 0;
  uint64_t fused_ops_before = 0;
  uint64_t fused_ops_after = 0;
  uint64_t runs = 0;
  uint64_t sim_instructions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t mem_accesses = 0;
  uint64_t store_ops = 0;
  uint64_t store_contended = 0;
  uint64_t shard_migrations = 0;
  uint64_t store_bytes = 0;
  uint64_t seal_ops = 0;

  auto Tie() const {
    return std::tie(cells, clones, instructions_added, opt_removed, checks_eliminated,
                    decode_ops, fused_ops_before, fused_ops_after, runs, sim_instructions,
                    cache_hits, cache_misses, mem_accesses, store_ops, store_contended,
                    shard_migrations, store_bytes, seal_ops);
  }
  bool operator==(const LayerCounts& o) const { return Tie() == o.Tie(); }
};

const core::ProtectionScheme& SchemeFor(const core::Config& config) {
  return config.scheme != nullptr ? *config.scheme
                                  : core::SchemeRegistry::Get(config.protection);
}

void VerifyOrDie(const ir::Module& module) {
  const std::vector<std::string> errors = ir::VerifyModule(module);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: module %s: %s\n", module.name().c_str(), e.c_str());
  }
  CPI_CHECK(errors.empty());
}

// The RunOptions core::Run derives from a Config.
vm::RunOptions RunOptionsFor(const core::Config& config, const core::Input& input) {
  vm::RunOptions options;
  SchemeFor(config).ConfigureRun(options);
  options.store = config.store;
  options.isolation = config.isolation;
  options.shards = config.shards;
  options.migrate = config.migrate;
  options.mpx_assist = config.mpx_assist;
  options.engine = config.reference_interpreter ? vm::EngineKind::kReference : config.engine;
  options.quantum = config.thread_quantum;
  options.max_steps = config.max_steps;
  options.seed = config.seed;
  options.input_words = input.words;
  options.input_bytes = input.bytes;
  options.faults = config.faults;
  return options;
}

// The facade path, as workloads::RunCell takes it.
vm::RunResult FacadeRun(const ir::Module& base, const core::Config& config,
                        const core::Input& input) {
  auto module = ir::CloneModule(base);
  core::Compiler(config).Instrument(*module);
  return core::Run(*module, config, input);
}

// The same cell, one span per public entry point: ir::CloneModule,
// ir::VerifyModule, analysis::ComputeModuleStats, ProtectionScheme::Instrument,
// ir::VerifyModule, opt::PassManager::Run, vm::DecodedModule, vm::Execute.
// The decoded module is built once more on its own so that vm.execute_ms can
// be the Execute span minus the decode span.
vm::RunResult ReplayCell(const ir::Module& base, const core::Config& config,
                         const core::Input& input, Tracer& tracer, LayerCounts& n) {
  tracer.NextCell();
  Tracer::Scope cell(tracer, "cell");
  ++n.cells;
  std::unique_ptr<ir::Module> module;
  {
    Tracer::Scope s(tracer, "ir.clone");
    module = ir::CloneModule(base);
  }
  ++n.clones;
  {
    Tracer::Scope s(tracer, "ir.verify");
    VerifyOrDie(*module);
  }
  const core::ProtectionScheme& scheme = SchemeFor(config);
  const size_t before = module->InstructionCount();
  {
    Tracer::Scope s(tracer, "analysis.classify");
    analysis::ClassifyOptions copts;
    copts.char_star_heuristic = config.char_star_heuristic;
    copts.cast_dataflow = config.cast_dataflow;
    scheme.ConfigureClassification(copts);
    analysis::ComputeModuleStats(*module, copts);
  }
  {
    Tracer::Scope s(tracer, "instrument");
    instrument::PassOptions popts;
    popts.char_star_heuristic = config.char_star_heuristic;
    popts.cast_dataflow = config.cast_dataflow;
    popts.debug_mode = config.debug_mode;
    popts.temporal = config.temporal;
    scheme.Instrument(*module, popts);
  }
  {
    Tracer::Scope s(tracer, "ir.verify");
    VerifyOrDie(*module);
  }
  n.instructions_added += module->InstructionCount() - before;
  if (config.opt_level >= 1) {
    Tracer::Scope s(tracer, "opt");
    opt::PassManager pm;
    pm.Add(opt::CreateMem2RegPass());
    pm.Add(opt::CreateRedundancyEliminationPass());
    scheme.ContributeOptPasses(pm);
    pm.Add(opt::CreateDcePass());
    const opt::OptReport report = pm.Run(*module);
    n.opt_removed += report.TotalRemoved();
    n.checks_eliminated += report.TotalEliminatedChecks();
  }
  const vm::RunOptions options = RunOptionsFor(config, input);
  if (options.engine != vm::EngineKind::kReference) {
    Tracer::Scope s(tracer, "vm.decode");
    const bool fuse = options.engine == vm::EngineKind::kFused;
    const vm::DecodedModule decoded(*module, vm::ComputeProgramLayout(*module), fuse);
    n.decode_ops += decoded.ops_before_fusion();
    if (fuse) {
      n.fused_ops_before += decoded.ops_before_fusion();
      n.fused_ops_after += decoded.ops_after_fusion();
    }
  }
  vm::RunResult r;
  {
    Tracer::Scope s(tracer, "vm.execute");
    r = vm::Execute(*module, options);
  }
  ++n.runs;
  n.sim_instructions += r.counters.instructions;
  n.cache_hits += r.counters.cache_hits;
  n.cache_misses += r.counters.cache_misses;
  n.mem_accesses += r.counters.mem_accesses;
  n.store_ops += r.counters.safe_store_ops;
  n.store_contended += r.counters.store_contended_ops;
  n.shard_migrations += r.counters.shard_migrations;
  n.store_bytes += r.memory.safe_store_bytes;
  n.seal_ops += r.counters.seal_ops;
  return r;
}

// Empty when the two runs agree on status, violation, exit code, output,
// every Counters field and the memory footprint.
std::string DiffRuns(const vm::RunResult& a, const vm::RunResult& b) {
  const vm::Counters& x = a.counters;
  const vm::Counters& y = b.counters;
  const auto counters = [](const vm::Counters& c) {
    return std::make_tuple(c.instructions, c.cycles, c.mem_accesses, c.safe_store_ops,
                           c.store_contended_ops, c.shard_migrations, c.seal_ops, c.checks,
                           c.calls, c.hijack_transfers, c.cache_hits, c.cache_misses,
                           c.thread_spawns);
  };
  if (a.status != b.status) return "status";
  if (a.violation != b.violation) return "violation";
  if (a.exit_code != b.exit_code) return "exit code";
  if (a.output != b.output) return "output";
  if (counters(x) != counters(y)) return "counters";
  if (a.memory.TotalBytes() != b.memory.TotalBytes() ||
      a.memory.safe_store_entries != b.memory.safe_store_entries) {
    return "memory footprint";
  }
  return "";
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& Key(const char* k) {
    Sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& Int(uint64_t v) {
    Sep();
    out_ << v;
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& Nums(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    return Close(']');
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// Per-layer times (median over passes of each pass's total) and the counts of
// the first pass; every pass replays the same cells, so the counts must
// repeat exactly.
struct LayerReport {
  std::vector<LayerCounts> pass_counts;
  std::vector<double> pass_s;                // replay time per pass (cell spans)
  std::vector<std::vector<double>> pass_ms;  // per layer name, per pass
  size_t fidelity_cells = 0;
  std::vector<std::string> fidelity_failures;
};

const char* const kLayerSpans[] = {"ir.clone", "ir.verify", "analysis.classify",
                                   "instrument", "opt", "vm.decode", "vm.execute"};
constexpr size_t kNumLayerSpans = sizeof(kLayerSpans) / sizeof(kLayerSpans[0]);

void AddPass(LayerReport& report, const Tracer& tracer, size_t from, const LayerCounts& n) {
  report.pass_counts.push_back(n);
  report.pass_s.push_back(tracer.TotalMs("cell", from, tracer.size()) / 1000.0);
  report.pass_ms.resize(kNumLayerSpans);
  for (size_t i = 0; i < kNumLayerSpans; ++i) {
    report.pass_ms[i].push_back(tracer.TotalMs(kLayerSpans[i], from, tracer.size()));
  }
}

void WriteLayers(Json& j, const LayerReport& report) {
  const LayerCounts& n = report.pass_counts.front();
  bool repeat = true;
  for (const LayerCounts& c : report.pass_counts) repeat = repeat && c == n;
  std::vector<double> ms(kNumLayerSpans);
  for (size_t i = 0; i < kNumLayerSpans; ++i) ms[i] = Median(report.pass_ms[i]);
  const double decode_ms = ms[5];
  const double execute_ms = ms[6] - decode_ms;
  j.Key("layers").Open('{');
  j.Key("passes").Int(report.pass_counts.size());
  j.Key("counts_repeat").Bool(repeat);
  j.Key("fidelity_cells").Int(report.fidelity_cells);
  j.Key("fidelity_failures").Open('[');
  for (const std::string& f : report.fidelity_failures) j.Str(f);
  j.Close(']');
  j.Key("ir.clone_ms").Num(ms[0]);
  j.Key("ir.clones").Int(n.clones);
  j.Key("ir.verify_ms").Num(ms[1]);
  j.Key("analysis.classify_ms").Num(ms[2]);
  j.Key("instrument.ms").Num(ms[3]);
  j.Key("instrument.instructions_added").Int(n.instructions_added);
  j.Key("opt.ms").Num(ms[4]);
  j.Key("opt.instructions_removed").Int(n.opt_removed);
  j.Key("opt.checks_eliminated").Int(n.checks_eliminated);
  j.Key("vm.decode_ms").Num(decode_ms);
  j.Key("vm.decode_ops").Int(n.decode_ops);
  j.Key("vm.fused_ops_before").Int(n.fused_ops_before);
  j.Key("vm.fused_ops_after").Int(n.fused_ops_after);
  j.Key("vm.execute_ms").Num(execute_ms);
  j.Key("vm.runs").Int(n.runs);
  j.Key("vm.sim_instructions").Int(n.sim_instructions);
  j.Key("vm.cache_hits").Int(n.cache_hits);
  j.Key("vm.cache_misses").Int(n.cache_misses);
  j.Key("vm.mem_accesses").Int(n.mem_accesses);
  j.Key("runtime.store_ops").Int(n.store_ops);
  j.Key("runtime.store_contended").Int(n.store_contended);
  j.Key("runtime.shard_migrations").Int(n.shard_migrations);
  j.Key("runtime.store_bytes").Int(n.store_bytes);
  j.Key("runtime.seal_ops").Int(n.seal_ops);
  j.Close('}');
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

// Set-up takes milliseconds, so one timing would be mostly noise. It is
// repeated for this many seconds (at least five times); setup_s is the median.
constexpr double kSetupSeconds = 2.0;

// Builds the frontend input modules repeatedly for kSetupSeconds and keeps
// the last build.
struct Setup {
  std::vector<double> seconds;
  uint64_t modules = 0;
  uint64_t ir_instructions = 0;
  std::vector<std::unique_ptr<ir::Module>> built;
};

Setup BuildInputs(const std::vector<workloads::Workload>& sets) {
  Setup setup;
  const Clock::time_point begin = Clock::now();
  while (StartAnother(setup.seconds, SecondsSince(begin), kSetupSeconds, 5)) {
    const Clock::time_point start = Clock::now();
    setup.built = workloads::BuildWorkloads(sets, /*scale=*/1, /*jobs=*/1);
    setup.seconds.push_back(SecondsSince(start));
  }
  setup.modules = setup.built.size();
  for (const auto& m : setup.built) setup.ir_instructions += m->InstructionCount();
  return setup;
}

void WriteSetup(Json& j, const Setup& setup) {
  j.Key("setup_s").Nums(setup.seconds);
  j.Key("frontend").Open('{');
  j.Key("build_ms").Num(1000.0 * Median(setup.seconds));
  j.Key("modules").Int(setup.modules);
  j.Key("ir_instructions").Int(setup.ir_instructions);
  j.Close('}');
}

std::vector<workloads::Workload> Concat(
    std::initializer_list<const std::vector<workloads::Workload>*> sets) {
  std::vector<workloads::Workload> out;
  for (const auto* s : sets) out.insert(out.end(), s->begin(), s->end());
  return out;
}

struct Cell {
  size_t workload;
  core::Config config;
  const char* column = "";  // mt-servers: the gate column this cell feeds
};

// Replays `cells` in passes (the first one also runs the facade and checks
// fidelity) until the budget is spent, with at least two passes.
LayerReport ReplayPasses(const std::vector<workloads::Workload>& sets,
                         const std::vector<std::unique_ptr<ir::Module>>& built,
                         const std::vector<Cell>& cells, double budget, Tracer& tracer) {
  LayerReport report;
  const Clock::time_point start = Clock::now();
  while (StartAnother(report.pass_s, SecondsSince(start), budget, 2)) {
    const size_t from = tracer.size();
    LayerCounts n;
    for (const Cell& c : cells) {
      const workloads::Workload& w = sets[c.workload];
      const vm::RunResult traced = ReplayCell(*built[c.workload], c.config, w.input, tracer, n);
      if (report.pass_counts.empty()) {
        ++report.fidelity_cells;
        const std::string diff = DiffRuns(FacadeRun(*built[c.workload], c.config, w.input), traced);
        if (!diff.empty()) report.fidelity_failures.push_back(w.name + ": " + diff);
      }
    }
    AddPass(report, tracer, from, n);
  }
  return report;
}

// ---------------------------------------------------------------------------
// mt-servers: the concurrent, event-loop and churn servers, each as vanilla
// and CPI at shards=1, and at shards=16 with migrate off and on.

struct MtCell {
  const char* column;
  core::Protection protection;
  uint32_t shards;
  bool migrate;
};
const MtCell kMtCells[] = {{"vanilla", core::Protection::kNone, 1, false},
                           {"s1", core::Protection::kCpi, 1, false},
                           {"s16_static", core::Protection::kCpi, 16, false},
                           {"s16_epoch", core::Protection::kCpi, 16, true}};

void MtServers(const Args& args, Json& j, Tracer& tracer) {
  const auto sets = Concat({&workloads::ConcurrentServer(), &workloads::EventLoop(),
                            &workloads::ChurnServer()});
  const Setup setup = BuildInputs(sets);
  WriteSetup(j, setup);

  std::vector<Cell> cells;
  for (size_t wi = 0; wi < sets.size(); ++wi) {
    for (const MtCell& m : kMtCells) {
      Cell c{wi, {}, m.column};
      c.config.protection = m.protection;
      c.config.shards = m.shards;
      c.config.migrate = m.migrate;
      cells.push_back(c);
    }
  }
  // The seed rotates the order the cells run in; results must not move.
  const size_t rotate = args.seed % cells.size();
  std::rotate(cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(rotate), cells.end());

  // Untraced sweeps through the facade. In the traced run they take half the
  // budget and give the baseline of the tracing overhead.
  std::vector<vm::RunResult> first(cells.size());
  std::vector<double> sweep_s;
  std::vector<std::vector<double>> cell_s;  // per sweep, per cell
  std::vector<std::string> failures;
  size_t attempted = 0;
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const Clock::time_point start = Clock::now();
  while (StartAnother(sweep_s, SecondsSince(start), untraced_budget, 2)) {
    const Clock::time_point sweep_start = Clock::now();
    std::vector<vm::RunResult> results(cells.size());
    cell_s.emplace_back();
    for (size_t i = 0; i < cells.size(); ++i) {
      const Clock::time_point cell_start = Clock::now();
      results[i] = FacadeRun(*setup.built[cells[i].workload], cells[i].config,
                             sets[cells[i].workload].input);
      cell_s.back().push_back(SecondsSince(cell_start));
    }
    sweep_s.push_back(SecondsSince(sweep_start));
    for (size_t i = 0; i < cells.size(); ++i) {
      ++attempted;
      const std::string& name = sets[cells[i].workload].name;
      if (results[i].status != vm::RunStatus::kOk) {
        failures.push_back(name + ": " + vm::RunStatusName(results[i].status));
      } else if (sweep_s.size() > 1 && !DiffRuns(first[i], results[i]).empty()) {
        failures.push_back(name + ": sweep differs from the first");
      }
    }
    if (sweep_s.size() == 1) first = std::move(results);
  }
  j.Key("unit_s").Nums(sweep_s);
  j.Key("pieces_s").Open('[');
  for (const std::vector<double>& sweep : cell_s) j.Nums(sweep);
  j.Close(']');
  j.Key("unit_cells").Int(cells.size());
  j.Key("attempted").Int(attempted);
  j.Key("failures").Open('[');
  for (const std::string& f : failures) j.Str(f);
  j.Close(']');

  // The gate input: per program, cycles and safe-store traffic per column.
  j.Key("churn").Open('[');
  for (size_t wi = 0; wi < sets.size(); ++wi) {
    j.Open('{').Key("workload").Str(sets[wi].name);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].workload != wi) continue;
      const vm::Counters& c = first[i].counters;
      j.Key(cells[i].column).Open('{');
      j.Key("cycles").Int(c.cycles).Key("store_ops").Int(c.safe_store_ops);
      j.Key("contended").Int(c.store_contended_ops).Key("instructions").Int(c.instructions);
      j.Close('}');
    }
    j.Close('}');
  }
  j.Close(']');
  if (!args.trace) return;

  // Traced sweeps, one replay pass each, over the other half of the budget.
  const LayerReport report = ReplayPasses(sets, setup.built, cells, args.seconds / 2, tracer);
  j.Key("traced_unit_s").Nums(report.pass_s);
  WriteLayers(j, report);
}

// ---------------------------------------------------------------------------
// fuzz-campaign: fuzz::MakePlan -> fuzz::Materialize -> fuzz::RunCase with
// the bench/fuzz defaults (hazards, threads and the fault campaign on), over
// a fixed batch: the first kBatchCases cases of the default campaign
// (`bench/fuzz --seed 1`, case i from seed 1 + i). The run repeats the batch,
// so its work never depends on how fast the program is. Case times differ
// fivefold, and batches of 16 drawn per seed differed from each other by ~15%
// (inter-quartile range over median), most of a bound; so the seed only
// rotates the order of the cases.

constexpr size_t kBatchCases = 8;

uint64_t CaseSeed(uint64_t seed, size_t i) { return 1 + (seed + i) % kBatchCases; }

fuzz::GenOptions CampaignGenOptions() {
  fuzz::GenOptions g;
  g.hazards = true;
  g.threads = true;
  return g;
}

// fuzz::RunCase's firing-point salt for the fault campaign.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A mirror of the cell matrix fuzz::RunCase (src/fuzz/differential.cc) runs
// for one scheme after its oracle, in its order. ReplayCase checks per case
// that the mirror reproduces RunCase's cell count, fuel skips and fault
// coverage, so a change to RunCase's matrix shows up as a fidelity failure.
//
// How RunCase reads each cell: a fuel-capped behaviour cell, or a fuel-capped
// reference half of a reference/fused pair, is one fuel skip; a fault cell
// whose injection landed adds (scheme, kind) to the coverage.
enum class Role { kIdentity, kSkipIfOutOfFuel, kFault };

// Fault plans are stored alongside so the Config pointers stay valid.
struct FuzzCell {
  core::Config config;
  Role role;
  std::unique_ptr<vm::FaultPlan> faults;
};

std::vector<FuzzCell> SchemeCells(const core::ProtectionScheme* s, const fuzz::Plan& plan,
                                  uint64_t oracle_instructions,
                                  const fuzz::DiffOptions& options) {
  core::Config base;
  base.protection = s->id();
  base.scheme = s;
  base.max_steps = options.max_steps;
  std::vector<FuzzCell> out;
  const auto add = [&out](const core::Config& c, Role role = Role::kIdentity) {
    out.push_back({c, role, nullptr});
  };
  const std::pair<vm::EngineKind, uint64_t> id_cells[] = {{vm::EngineKind::kDecoded, 64},
                                                          {vm::EngineKind::kFused, 64},
                                                          {vm::EngineKind::kFused, 1},
                                                          {vm::EngineKind::kFused, 4096}};
  for (const auto& [engine, quantum] : id_cells) {
    core::Config c = base;
    c.engine = engine;
    c.thread_quantum = quantum;
    add(c);
  }
  const std::pair<int, runtime::StoreKind> beh_cells[] = {{1, runtime::StoreKind::kArray},
                                                          {0, runtime::StoreKind::kHash},
                                                          {0, runtime::StoreKind::kTwoLevel}};
  for (const auto& [opt, store] : beh_cells) {
    core::Config c = base;
    c.opt_level = opt;
    c.store = store;
    add(c, Role::kSkipIfOutOfFuel);
  }
  const auto ref_and_fused = [&](core::Config c) {
    c.engine = vm::EngineKind::kReference;
    add(c, Role::kSkipIfOutOfFuel);
    c.engine = vm::EngineKind::kFused;
    add(c);
  };
  for (uint32_t shards : {2u, 64u}) {
    core::Config c = base;
    c.shards = shards;
    ref_and_fused(c);
  }
  {
    core::Config c = base;
    c.shards = 8;
    c.migrate = true;
    ref_and_fused(c);
  }
  if (std::string(s->name()) == "cpi") {
    for (int mode = 0; mode < 2; ++mode) {
      core::Config c = base;
      c.debug_mode = mode == 0;
      c.temporal = mode == 1;
      ref_and_fused(c);
    }
  }
  if (options.fault_campaign) {
    const vm::FaultKind kinds[] = {
        vm::FaultKind::kCorruptSafeStack, vm::FaultKind::kCorruptSafeStore,
        vm::FaultKind::kOomSafeStore,     vm::FaultKind::kOomHeapArena,
        vm::FaultKind::kOomPageAlloc,     vm::FaultKind::kForcePreempt,
        vm::FaultKind::kCorruptShard,     vm::FaultKind::kOomShard,
    };
    const uint64_t span = oracle_instructions;
    for (vm::FaultKind kind : kinds) {
      auto fplan = std::make_unique<vm::FaultPlan>();
      fplan->events.push_back({kind, std::max<uint64_t>(1, span / 3),
                               Mix(plan.seed, static_cast<uint64_t>(kind))});
      fplan->events.push_back({kind, std::max<uint64_t>(2, 2 * span / 3),
                               Mix(plan.seed, 16 + static_cast<uint64_t>(kind))});
      core::Config c = base;
      if (kind == vm::FaultKind::kCorruptShard || kind == vm::FaultKind::kOomShard) {
        c.shards = 8;
      }
      c.faults = fplan.get();
      out.push_back({c, Role::kFault, std::move(fplan)});
    }
  }
  return out;
}

// RunCase's cell path: a freshly materialized module per cell.
vm::RunResult FuzzFacade(const fuzz::Plan& plan, const core::Config& config) {
  auto module = fuzz::Materialize(plan);
  return core::InstrumentAndRun(*module, config);
}

// What fuzz::RunCase reports about a passing case besides its verdict.
struct CaseShape {
  int cells = 0;
  int fuel_skips = 0;
  std::vector<std::pair<std::string, std::string>> fault_coverage;

  bool operator==(const CaseShape& o) const {
    return cells == o.cells && fuel_skips == o.fuel_skips && fault_coverage == o.fault_coverage;
  }
};

std::string Describe(const CaseShape& c) {
  return std::to_string(c.cells) + " cells, " + std::to_string(c.fuel_skips) +
         " fuel skips, " + std::to_string(c.fault_coverage.size()) + " faults landed";
}

// Replays one case's whole matrix from a single materialized module, and
// counts its cells, fuel skips and fault coverage the way RunCase does.
CaseShape ReplayCase(const fuzz::Plan& plan, const ir::Module& base,
                     const fuzz::DiffOptions& options, bool check_fidelity, Tracer& tracer,
                     LayerCounts& n, LayerReport& report) {
  const core::Input no_input;
  CaseShape shape;
  const auto run = [&](const core::Config& config) {
    ++shape.cells;
    const vm::RunResult r = ReplayCell(base, config, no_input, tracer, n);
    if (check_fidelity) {
      ++report.fidelity_cells;
      const std::string diff = DiffRuns(FuzzFacade(plan, config), r);
      if (!diff.empty()) {
        report.fidelity_failures.push_back("case " + std::to_string(plan.seed) + "/" +
                                           SchemeFor(config).name() + ": " + diff);
      }
    }
    return r;
  };
  for (const core::ProtectionScheme* s : core::SchemeRegistry::All()) {
    core::Config oracle;
    oracle.protection = s->id();
    oracle.scheme = s;
    oracle.max_steps = options.max_steps;
    oracle.engine = vm::EngineKind::kReference;
    const vm::RunResult o = run(oracle);
    if (o.status == vm::RunStatus::kOutOfFuel) {
      ++shape.fuel_skips;
      continue;
    }
    for (const FuzzCell& c : SchemeCells(s, plan, o.counters.instructions, options)) {
      const vm::RunResult r = run(c.config);
      if (c.role == Role::kSkipIfOutOfFuel && r.status == vm::RunStatus::kOutOfFuel) {
        ++shape.fuel_skips;
      } else if (c.role == Role::kFault && r.faults_injected > 0) {
        shape.fault_coverage.emplace_back(s->name(),
                                          vm::FaultKindName(c.faults->events.front().kind));
      }
    }
  }
  return shape;
}

std::string CaseFailure(const fuzz::Plan& plan, const fuzz::CaseResult& r) {
  return "case " + std::to_string(plan.seed) + ": " + fuzz::CaseStatusName(r.status) + " " +
         r.detail;
}

void FuzzCampaign(const Args& args, Json& j, Tracer& tracer) {
  const fuzz::GenOptions gopts = CampaignGenOptions();
  const fuzz::DiffOptions dopts;

  // Set-up: plan + materialize the batch, repeated for the set-up window.
  std::vector<fuzz::Plan> plans;
  std::vector<std::unique_ptr<ir::Module>> modules;
  std::vector<double> setup_s, plan_ms, materialize_ms;
  const Clock::time_point begin = Clock::now();
  while (StartAnother(setup_s, SecondsSince(begin), kSetupSeconds, 5)) {
    plans.clear();
    modules.clear();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kBatchCases; ++i) {
      plans.push_back(fuzz::MakePlan(CaseSeed(args.seed, i), gopts));
    }
    const Clock::time_point planned = Clock::now();
    for (const fuzz::Plan& p : plans) modules.push_back(fuzz::Materialize(p));
    setup_s.push_back(SecondsSince(start));
    plan_ms.push_back(1000.0 * std::chrono::duration<double>(planned - start).count());
    materialize_ms.push_back(1000.0 * SecondsSince(planned));
  }
  uint64_t ir_instructions = 0;
  for (const auto& m : modules) ir_instructions += m->InstructionCount();
  j.Key("setup_s").Nums(setup_s);
  j.Key("frontend").Open('{');
  j.Key("build_ms").Num(Median(materialize_ms));
  j.Key("modules").Int(modules.size());
  j.Key("ir_instructions").Int(ir_instructions);
  j.Close('}');
  j.Key("case_seeds").Open('[');
  for (const fuzz::Plan& p : plans) j.Int(p.seed);
  j.Close(']');
  j.Key("fuzz").Open('{');
  j.Key("plan_ms").Num(Median(plan_ms)).Key("materialize_ms").Num(Median(materialize_ms));

  std::vector<std::string> failures;
  size_t attempted = 0;
  if (!args.trace) {
    // The batch, again and again; every repetition must run the same cells.
    std::vector<double> batch_s;
    std::vector<std::vector<double>> case_s;
    std::vector<CaseShape> first;
    const Clock::time_point start = Clock::now();
    while (StartAnother(batch_s, SecondsSince(start), args.seconds, 2)) {
      std::vector<CaseShape> shapes;
      const Clock::time_point batch_start = Clock::now();
      case_s.emplace_back();
      for (const fuzz::Plan& plan : plans) {
        const Clock::time_point case_start = Clock::now();
        const fuzz::CaseResult r = fuzz::RunCase(plan, dopts);
        case_s.back().push_back(SecondsSince(case_start));
        ++attempted;
        shapes.push_back({r.cells_run, r.fuel_skips, r.fault_coverage});
        if (r.status != fuzz::CaseStatus::kPass) failures.push_back(CaseFailure(plan, r));
      }
      batch_s.push_back(SecondsSince(batch_start));
      if (first.empty()) {
        first = std::move(shapes);
      } else if (shapes != first) {
        failures.push_back("batch " + std::to_string(batch_s.size()) + " differs from the first");
      }
    }
    uint64_t cells = 0;
    uint64_t fuel_skips = 0;
    for (const CaseShape& c : first) {
      cells += static_cast<uint64_t>(c.cells);
      fuel_skips += static_cast<uint64_t>(c.fuel_skips);
    }
    j.Key("cells").Int(cells).Key("fuel_skips").Int(fuel_skips);
    j.Close('}');
    j.Key("unit_s").Nums(batch_s);
    j.Key("pieces_s").Open('[');
    for (const std::vector<double>& batch : case_s) j.Nums(batch);
    j.Close(']');
    j.Key("unit_cases").Int(kBatchCases);
    j.Key("unit_cells").Int(cells);
  } else {
    // Two passes over the batch: RunCase, then the replay of its matrix.
    // The first pass also checks every replayed cell against RunCase's own
    // cell path.
    LayerReport report;
    std::vector<double> runcase_ms;
    std::vector<uint64_t> pass_cells;
    uint64_t fuel_skips = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const size_t from = tracer.size();
      LayerCounts n;
      double ms = 0;
      uint64_t cells = 0;
      for (size_t i = 0; i < kBatchCases; ++i) {
        const fuzz::Plan& plan = plans[i];
        const Clock::time_point case_start = Clock::now();
        const fuzz::CaseResult r = fuzz::RunCase(plan, dopts);
        ms += 1000.0 * SecondsSince(case_start);
        cells += static_cast<uint64_t>(r.cells_run);
        const CaseShape replayed =
            ReplayCase(plan, *modules[i], dopts, pass == 0, tracer, n, report);
        if (pass > 0) continue;
        ++attempted;
        fuel_skips += static_cast<uint64_t>(r.fuel_skips);
        const CaseShape want{r.cells_run, r.fuel_skips, r.fault_coverage};
        if (r.status != fuzz::CaseStatus::kPass) {
          failures.push_back(CaseFailure(plan, r));
        } else if (!(replayed == want)) {
          failures.push_back("case " + std::to_string(plan.seed) + ": replay has " +
                             Describe(replayed) + ", RunCase " + Describe(want));
        }
      }
      runcase_ms.push_back(ms);
      pass_cells.push_back(cells);
      AddPass(report, tracer, from, n);
    }
    j.Key("runcase_ms").Num(Median(runcase_ms)).Key("cells").Int(pass_cells[0]);
    j.Key("fuel_skips").Int(fuel_skips);
    j.Key("cells_repeat").Bool(pass_cells[0] == pass_cells[1]);
    j.Close('}');
    WriteLayers(j, report);
  }
  j.Key("attempted").Int(attempted);
  j.Key("failures").Open('[');
  for (const std::string& f : failures) j.Str(f);
  j.Close(']');
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s fuzz-campaign|mt-servers --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n",
                 argv[0]);
    std::exit(2);
  }
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", key.c_str());
      std::exit(2);
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Json j;
  Tracer tracer;
  j.Open('{');
  j.Key("compiler").Str(PERFBENCH_COMPILER).Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  if (args.workload == "fuzz-campaign") {
    FuzzCampaign(args, j, tracer);
  } else if (args.workload == "mt-servers") {
    MtServers(args, j, tracer);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  j.Key("spans").Int(tracer.size());
  j.Close('}');
  if (!args.spans.empty() && tracer.size() > 0 && !tracer.Write(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace cpi::perfbench

int main(int argc, char** argv) { return cpi::perfbench::Main(argc, argv); }
