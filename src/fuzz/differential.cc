#include "src/fuzz/differential.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/support/rng.h"
#include "src/vm/decode.h"
#include "src/vm/fault.h"

namespace cpi::fuzz {

namespace {

struct Cell {
  vm::RunResult result;
  bool ok = false;  // ran to a reported RunResult without a host exception
  std::string host_error;
};

// The instrumented modules of one case, one per compile key: everything
// core::Compiler::Instrument reads from a Config (the resolved scheme,
// core::SchemeOf, so a composite never shares its first component's module;
// opt level, debug and temporal modes, classification flags). Engine,
// quantum, store, shard count, migration and fault plan are runtime
// settings; vm::Execute takes the module and its decode const, so every cell
// of a key runs on the same module, and every decoded or fused cell of a key
// on the same decode.
class SharedModules {
 public:
  explicit SharedModules(const Plan& plan) : plan_(plan) {}

  // Runs `config` on its key's module, compiling it on the key's first use
  // and decoding it on the first use of each predecoded tier. A compile or
  // decode that throws leaves nothing behind, so the exception reaches the
  // cell that asked.
  vm::RunResult Run(const core::Config& config) {
    Compiled& c = compiled_[std::make_tuple(&core::SchemeOf(config), config.opt_level,
                                            config.debug_mode, config.temporal,
                                            config.char_star_heuristic, config.cast_dataflow)];
    if (c.module == nullptr) {
      auto fresh = Materialize(plan_);
      core::Compiler(config).Instrument(*fresh);
      c.module = std::move(fresh);
    }
    if (config.engine == vm::EngineKind::kReference) {
      return core::Run(*c.module, config);
    }
    const bool fuse = config.engine == vm::EngineKind::kFused;
    std::unique_ptr<vm::DecodedModule>& decoded = c.decoded[fuse];
    if (decoded == nullptr) {
      decoded = std::make_unique<vm::DecodedModule>(*c.module,
                                                    vm::ComputeProgramLayout(*c.module), fuse);
    }
    return core::Run(*decoded, config);
  }

 private:
  using Key = std::tuple<const core::ProtectionScheme*, int, bool, bool, bool, bool>;
  struct Compiled {
    std::unique_ptr<ir::Module> module;
    std::unique_ptr<vm::DecodedModule> decoded[2];  // [fuse]: decoded, fused
  };
  const Plan& plan_;
  std::map<Key, Compiled> compiled_;
};

// Runs one cell and traps any host-level exception: a cell can fail, the
// campaign cannot. With `shared`, the cell runs on its compile key's shared
// module and decode. Without it, the cell materializes and instruments a
// module of its own: RunCase does that for the first reference-engine cell
// of each key, so every counter-identity comparison has one independently
// compiled side.
Cell RunCell(const Plan& plan, const core::Config& config, SharedModules* shared = nullptr) {
  Cell cell;
  try {
    if (shared != nullptr) {
      cell.result = shared->Run(config);
    } else {
      auto module = Materialize(plan);
      cell.result = core::InstrumentAndRun(*module, config);
    }
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.host_error = e.what();
  } catch (...) {
    cell.host_error = "non-standard host exception";
  }
  return cell;
}

// Behaviour tuple: what every configuration of a scheme-preserving pipeline
// must agree on. Messages are excluded (schemes word their verdicts
// differently); counters are excluded (legitimately configuration-shaped).
std::string DiffBehaviour(const vm::RunResult& a, const vm::RunResult& b) {
  std::ostringstream out;
  if (a.status != b.status) {
    out << "status " << vm::RunStatusName(a.status) << " vs " << vm::RunStatusName(b.status);
  } else if (a.violation != b.violation) {
    out << "violation kind differs";
  } else if (a.exit_code != b.exit_code) {
    out << "exit " << a.exit_code << " vs " << b.exit_code;
  } else if (a.output != b.output) {
    out << "output differs (" << a.output.size() << " vs " << b.output.size() << " words)";
  }
  return out.str();
}

// Full identity: behaviour plus the trap message, every counter, the fault
// count and every memory-footprint field. This is the contract between
// engines and across quanta.
std::string DiffCounters(const vm::RunResult& a, const vm::RunResult& b) {
  // A new Counters or MemoryFootprint field must be compared below too.
  static_assert(sizeof(vm::Counters) == 13 * sizeof(uint64_t), "add the field to kCounters");
  static_assert(sizeof(vm::MemoryFootprint) == 4 * sizeof(uint64_t),
                "compare the new field below");
  static constexpr struct {
    const char* name;
    uint64_t vm::Counters::*field;
  } kCounters[] = {
      {"instructions", &vm::Counters::instructions},
      {"cycles", &vm::Counters::cycles},
      {"mem_accesses", &vm::Counters::mem_accesses},
      {"safe_store_ops", &vm::Counters::safe_store_ops},
      {"store_contended_ops", &vm::Counters::store_contended_ops},
      {"shard_migrations", &vm::Counters::shard_migrations},
      {"seal_ops", &vm::Counters::seal_ops},
      {"checks", &vm::Counters::checks},
      {"calls", &vm::Counters::calls},
      {"hijack_transfers", &vm::Counters::hijack_transfers},
      {"cache_hits", &vm::Counters::cache_hits},
      {"cache_misses", &vm::Counters::cache_misses},
      {"thread_spawns", &vm::Counters::thread_spawns},
  };
  std::string d = DiffBehaviour(a, b);
  if (!d.empty()) {
    return d;
  }
  if (a.message != b.message) {
    return "trap message differs";
  }
  for (const auto& [name, field] : kCounters) {
    if (a.counters.*field != b.counters.*field) {
      return std::string(name) + " " + std::to_string(a.counters.*field) + " vs " +
             std::to_string(b.counters.*field);
    }
  }
  const vm::MemoryFootprint& x = a.memory;
  const vm::MemoryFootprint& y = b.memory;
  if (x.regular_bytes != y.regular_bytes || x.safe_store_bytes != y.safe_store_bytes ||
      x.safe_stack_bytes != y.safe_stack_bytes || x.safe_store_entries != y.safe_store_entries) {
    return "memory footprint differs";
  }
  if (a.faults_injected != b.faults_injected) {
    return "faults_injected " + std::to_string(a.faults_injected) + " vs " +
           std::to_string(b.faults_injected);
  }
  return "";
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return SplitMix64(seed + salt * 0x9e3779b97f4a7c15ULL);
}

// One cell of a scheme's matrix. RunCase runs a scheme's rows in order after
// its oracle, so adding a cell means adding a row to SchemeRows.
struct Row {
  enum Kind {
    kIdentity,     // full counter identity with the oracle
    kBehaviour,    // behaviour identity with the oracle; skipped if fuel-capped
    kPair,         // `config` on the reference and fused engines at full counter
                   // identity, and the reference's behaviour vs the oracle;
                   // skipped if the reference is fuel-capped
    kCrossScheme,  // the oracle's behaviour vs the vanilla oracle (runs no cell)
    kFault,        // `fault` injected mid-run must be contained; forced
                   // preemption must also keep the oracle's behaviour
  };
  Kind kind;
  std::string label;
  core::Config config;
  // kPair in a compile mode the oracle lacks (CPI's debug and temporal modes):
  // the reference half compiles its own module, so the pair has an
  // independently compiled side, and behaviour is not compared with the
  // oracle (temporal checks legitimately turn stale reads into violations).
  bool own_mode = false;
  vm::FaultKind fault = vm::FaultKind::kNone;  // kFault
};

// Scheme `s`'s cells, in the order RunCase runs them.
std::vector<Row> SchemeRows(const core::ProtectionScheme* s, const DiffOptions& options) {
  core::Config base;
  base.scheme = s;
  base.max_steps = options.max_steps;
  const std::string name = s->name();
  std::vector<Row> rows;

  // Counter identity: the three engines and the fused quantum sweep.
  static const std::tuple<const char*, vm::EngineKind, uint64_t> kEngines[] = {
      {"decoded/O0", vm::EngineKind::kDecoded, 64},
      {"fused/O0", vm::EngineKind::kFused, 64},
      {"fused/O0/q1", vm::EngineKind::kFused, 1},
      {"fused/O0/q4096", vm::EngineKind::kFused, 4096},
  };
  for (const auto& [label, engine, quantum] : kEngines) {
    rows.push_back({Row::kIdentity, label, base});
    rows.back().config.engine = engine;
    rows.back().config.thread_quantum = quantum;
  }
  // Behaviour: the optimizer and the other store organisations.
  static const std::tuple<const char*, int, runtime::StoreKind> kBehaviours[] = {
      {"fused/O1", 1, runtime::StoreKind::kArray},
      {"fused/O0/hash", 0, runtime::StoreKind::kHash},
      {"fused/O0/two-level", 0, runtime::StoreKind::kTwoLevel},
  };
  for (const auto& [label, opt, store] : kBehaviours) {
    rows.push_back({Row::kBehaviour, label, base});
    rows.back().config.opt_level = opt;
    rows.back().config.store = store;
  }
  // Sharded store, then epoch migration (Config::migrate): the shard count
  // must be invisible to behaviour, and the engines agree on the
  // shard-crossing premium, publish charges and shard_migrations.
  for (uint32_t shards : {2u, 64u}) {
    rows.push_back({Row::kPair, "shards" + std::to_string(shards), base});
    rows.back().config.shards = shards;
  }
  rows.push_back({Row::kPair, "migrate", base});
  rows.back().config.shards = 8;
  rows.back().config.migrate = true;
  if (name != "vanilla") {
    rows.push_back({Row::kCrossScheme, "cross-scheme", base});
  }
  // CPI extras: debug (mirror-and-compare) and the temporal extension.
  if (name == "cpi") {
    for (bool debug : {true, false}) {
      rows.push_back({Row::kPair, debug ? "debug" : "temporal", base, /*own_mode=*/true});
      rows.back().config.debug_mode = debug;
      rows.back().config.temporal = !debug;
    }
  }
  // Fault campaign: every kind (kNone excepted), mid-run, on the fused tier.
  if (options.fault_campaign) {
    for (int k = 1; k < vm::kNumFaultKinds; ++k) {
      const auto kind = static_cast<vm::FaultKind>(k);
      rows.push_back({Row::kFault, std::string("fault/") + vm::FaultKindName(kind), base});
      rows.back().fault = kind;
      if (kind == vm::FaultKind::kCorruptShard || kind == vm::FaultKind::kOomShard) {
        rows.back().config.shards = 8;  // per-shard containment needs real shards
      }
    }
  }
  return rows;
}

}  // namespace

const char* CaseStatusName(CaseStatus s) {
  switch (s) {
    case CaseStatus::kPass:
      return "pass";
    case CaseStatus::kDivergence:
      return "divergence";
    case CaseStatus::kHostError:
      return "host-error";
  }
  return "?";
}

CaseResult RunCase(const Plan& plan, const DiffOptions& options) {
  CaseResult out;
  auto fail = [&out](CaseStatus status, const std::string& where, const std::string& what) {
    out.status = status;
    out.detail = where + ": " + what;
    return out;
  };

  vm::RunResult vanilla_oracle;
  bool have_vanilla = false;
  SharedModules shared(plan);

  // The scheme axis is the registry itself, so the ret-chain variant and the
  // registered composites join the sweep automatically.
  for (const core::ProtectionScheme* s : core::SchemeRegistry::All()) {
    const std::string scheme = s->name();

    // In-scheme oracle: the reference tree-walker at O0, array store, the
    // default quantum, on a module of its own.
    core::Config oracle_config;
    oracle_config.scheme = s;
    oracle_config.max_steps = options.max_steps;
    oracle_config.engine = vm::EngineKind::kReference;
    const Cell oracle = RunCell(plan, oracle_config);
    ++out.cells_run;
    if (!oracle.ok) {
      return fail(CaseStatus::kHostError, scheme + "/oracle", oracle.host_error);
    }
    if (oracle.result.status == vm::RunStatus::kOutOfFuel) {
      // The budget edge is not comparable across configurations
      // (instrumentation changes instruction counts); skip the scheme.
      ++out.fuel_skips;
      continue;
    }
    if (scheme == "vanilla") {
      vanilla_oracle = oracle.result;
      have_vanilla = true;
    }

    for (const Row& row : SchemeRows(s, options)) {
      const std::string where = scheme + "/" + row.label;
      std::string diff;
      switch (row.kind) {
        case Row::kIdentity:
        case Row::kBehaviour: {
          const Cell c = RunCell(plan, row.config, &shared);
          ++out.cells_run;
          if (!c.ok) {
            return fail(CaseStatus::kHostError, where, c.host_error);
          }
          if (row.kind == Row::kBehaviour) {
            if (c.result.status == vm::RunStatus::kOutOfFuel) {
              ++out.fuel_skips;
              continue;
            }
            diff = DiffBehaviour(oracle.result, c.result);
            break;
          }
          diff = DiffCounters(oracle.result, c.result);
          // Self-test: deliberately misreport this one cell so the harness's
          // detect -> minimize -> replay machinery is exercised end to end.
          if (diff.empty() && options.inject_divergence_at != 0 && where == "cpi/fused/O0" &&
              oracle.result.counters.instructions >= options.inject_divergence_at) {
            diff = "self-test injected divergence (oracle instructions " +
                   std::to_string(oracle.result.counters.instructions) +
                   " >= " + std::to_string(options.inject_divergence_at) + ")";
          }
          break;
        }
        case Row::kPair: {
          core::Config ref = row.config;
          ref.engine = vm::EngineKind::kReference;
          core::Config fused = row.config;
          fused.engine = vm::EngineKind::kFused;
          const Cell cr = RunCell(plan, ref, row.own_mode ? nullptr : &shared);
          const Cell cf = RunCell(plan, fused, &shared);
          out.cells_run += 2;
          if (!cr.ok || !cf.ok) {
            return fail(CaseStatus::kHostError, where, !cr.ok ? cr.host_error : cf.host_error);
          }
          if (cr.result.status == vm::RunStatus::kOutOfFuel) {
            ++out.fuel_skips;
            continue;
          }
          diff = DiffCounters(cr.result, cf.result);
          if (diff.empty() && !row.own_mode) {
            diff = DiffBehaviour(oracle.result, cr.result);
          }
          break;
        }
        case Row::kCrossScheme:
          // Instrumentation must preserve behaviour against vanilla.
          if (have_vanilla) {
            diff = DiffBehaviour(vanilla_oracle, oracle.result);
          }
          break;
        case Row::kFault: {
          // Two firings, a third and two thirds into the oracle's run, so
          // they land inside the program rather than after it.
          const uint64_t span = oracle.result.counters.instructions;
          const auto salt = static_cast<uint64_t>(row.fault);
          vm::FaultPlan fplan;
          fplan.events.push_back(
              {row.fault, std::max<uint64_t>(1, span / 3), Mix(plan.seed, salt)});
          fplan.events.push_back(
              {row.fault, std::max<uint64_t>(2, 2 * span / 3), Mix(plan.seed, 16 + salt)});
          core::Config config = row.config;
          config.faults = &fplan;
          const Cell c = RunCell(plan, config, &shared);
          ++out.cells_run;
          if (!c.ok) {
            // The whole point: an injected fault must surface as a reported
            // RunResult, never as an escaped exception.
            return fail(CaseStatus::kHostError, where, c.host_error);
          }
          if (row.fault == vm::FaultKind::kForcePreempt &&
              c.result.status != vm::RunStatus::kOutOfFuel) {
            // Scheduling is unobservable for race-free programs.
            diff = DiffBehaviour(oracle.result, c.result);
          }
          if (diff.empty() && c.result.faults_injected > 0) {
            out.fault_coverage.emplace_back(scheme, vm::FaultKindName(row.fault));
          }
          break;
        }
      }
      if (!diff.empty()) {
        return fail(CaseStatus::kDivergence, where, diff);
      }
    }
  }
  return out;
}

}  // namespace cpi::fuzz
