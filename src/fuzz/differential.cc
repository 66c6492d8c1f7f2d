#include "src/fuzz/differential.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "src/core/levee.h"
#include "src/core/scheme.h"
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

// Full identity: behaviour plus every counter, the memory footprint and the
// trap message. This is the contract between engines and across quanta.
std::string DiffCounters(const vm::RunResult& a, const vm::RunResult& b) {
  std::string d = DiffBehaviour(a, b);
  if (!d.empty()) {
    return d;
  }
  std::ostringstream out;
  const vm::Counters& x = a.counters;
  const vm::Counters& y = b.counters;
  if (a.message != b.message) {
    out << "trap message differs";
  } else if (x.instructions != y.instructions) {
    out << "instructions " << x.instructions << " vs " << y.instructions;
  } else if (x.cycles != y.cycles) {
    out << "cycles " << x.cycles << " vs " << y.cycles;
  } else if (x.mem_accesses != y.mem_accesses) {
    out << "mem_accesses " << x.mem_accesses << " vs " << y.mem_accesses;
  } else if (x.safe_store_ops != y.safe_store_ops) {
    out << "safe_store_ops " << x.safe_store_ops << " vs " << y.safe_store_ops;
  } else if (x.store_contended_ops != y.store_contended_ops) {
    out << "store_contended_ops " << x.store_contended_ops << " vs " << y.store_contended_ops;
  } else if (x.shard_migrations != y.shard_migrations) {
    out << "shard_migrations " << x.shard_migrations << " vs " << y.shard_migrations;
  } else if (x.seal_ops != y.seal_ops) {
    out << "seal_ops " << x.seal_ops << " vs " << y.seal_ops;
  } else if (x.checks != y.checks) {
    out << "checks " << x.checks << " vs " << y.checks;
  } else if (x.calls != y.calls) {
    out << "calls " << x.calls << " vs " << y.calls;
  } else if (x.hijack_transfers != y.hijack_transfers) {
    out << "hijack_transfers " << x.hijack_transfers << " vs " << y.hijack_transfers;
  } else if (x.cache_hits != y.cache_hits) {
    out << "cache_hits " << x.cache_hits << " vs " << y.cache_hits;
  } else if (x.cache_misses != y.cache_misses) {
    out << "cache_misses " << x.cache_misses << " vs " << y.cache_misses;
  } else if (x.thread_spawns != y.thread_spawns) {
    out << "thread_spawns " << x.thread_spawns << " vs " << y.thread_spawns;
  } else if (a.memory.TotalBytes() != b.memory.TotalBytes() ||
             a.memory.safe_store_entries != b.memory.safe_store_entries) {
    out << "memory footprint differs";
  }
  return out.str();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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
  };

  // The scheme axis is the registry itself, so the ret-chain variant and the
  // registered composites (ptrenc+safestack, cpi+ptrenc-ret-chain) join the
  // sweep automatically. Cells select by Config::scheme.
  auto base_config = [&options](const core::ProtectionScheme* s) {
    core::Config c;
    c.scheme = s;
    c.max_steps = options.max_steps;
    return c;
  };

  vm::RunResult vanilla_oracle;
  bool have_vanilla = false;
  SharedModules shared(plan);

  for (const core::ProtectionScheme* s : core::SchemeRegistry::All()) {
    const std::string scheme = s->name();

    // In-scheme oracle: the reference tree-walker at O0, array store, the
    // default quantum.
    core::Config oracle_config = base_config(s);
    oracle_config.engine = vm::EngineKind::kReference;
    Cell oracle = RunCell(plan, oracle_config);
    ++out.cells_run;
    if (!oracle.ok) {
      fail(CaseStatus::kHostError, scheme + "/oracle", oracle.host_error);
      return out;
    }
    if (oracle.result.status == vm::RunStatus::kOutOfFuel) {
      // The budget edge is not comparable across configurations
      // (instrumentation changes instruction counts); skip the scheme.
      ++out.fuel_skips;
      continue;
    }

    // Counter-identity cells: engines and the quantum sweep.
    struct IdCell {
      const char* label;
      vm::EngineKind engine;
      uint64_t quantum;
    };
    static const IdCell kIdCells[] = {
        {"decoded/O0", vm::EngineKind::kDecoded, 64},
        {"fused/O0", vm::EngineKind::kFused, 64},
        {"fused/O0/q1", vm::EngineKind::kFused, 1},
        {"fused/O0/q4096", vm::EngineKind::kFused, 4096},
    };
    for (const IdCell& spec : kIdCells) {
      core::Config config = base_config(s);
      config.engine = spec.engine;
      config.thread_quantum = spec.quantum;
      Cell c = RunCell(plan, config, &shared);
      ++out.cells_run;
      if (!c.ok) {
        fail(CaseStatus::kHostError, scheme + "/" + spec.label, c.host_error);
        return out;
      }
      std::string diff = DiffCounters(oracle.result, c.result);
      // Self-test: deliberately misreport this one cell so the harness's
      // detect -> minimize -> replay machinery is exercised end to end.
      if (diff.empty() && options.inject_divergence_at != 0 &&
          scheme == "cpi" && std::string(spec.label) == "fused/O0" &&
          oracle.result.counters.instructions >= options.inject_divergence_at) {
        std::ostringstream msg;
        msg << "self-test injected divergence (oracle instructions "
            << oracle.result.counters.instructions << " >= " << options.inject_divergence_at
            << ")";
        diff = msg.str();
      }
      if (!diff.empty()) {
        fail(CaseStatus::kDivergence, scheme + "/" + spec.label, diff);
        return out;
      }
    }

    // Behaviour cells: the optimizer and the other store organisations.
    struct BehCell {
      const char* label;
      int opt;
      runtime::StoreKind store;
    };
    static const BehCell kBehCells[] = {
        {"fused/O1", 1, runtime::StoreKind::kArray},
        {"fused/O0/hash", 0, runtime::StoreKind::kHash},
        {"fused/O0/two-level", 0, runtime::StoreKind::kTwoLevel},
    };
    for (const BehCell& spec : kBehCells) {
      core::Config config = base_config(s);
      config.opt_level = spec.opt;
      config.store = spec.store;
      Cell c = RunCell(plan, config, &shared);
      ++out.cells_run;
      if (!c.ok) {
        fail(CaseStatus::kHostError, scheme + "/" + spec.label, c.host_error);
        return out;
      }
      if (c.result.status == vm::RunStatus::kOutOfFuel) {
        ++out.fuel_skips;
        continue;
      }
      const std::string diff = DiffBehaviour(oracle.result, c.result);
      if (!diff.empty()) {
        fail(CaseStatus::kDivergence, scheme + "/" + spec.label, diff);
        return out;
      }
    }

    // Sharded-store cells: the shard count must be invisible to behaviour,
    // and at any fixed count the engines must stay at full counter identity
    // (the shard-crossing premium is part of the deterministic cost model,
    // so reference and fused have to agree on it cycle for cycle).
    static const uint32_t kShardCounts[] = {2, 64};
    for (uint32_t shards : kShardCounts) {
      core::Config ref = base_config(s);
      ref.shards = shards;
      ref.engine = vm::EngineKind::kReference;
      core::Config fused = ref;
      fused.engine = vm::EngineKind::kFused;
      Cell cr = RunCell(plan, ref, &shared);
      Cell cf = RunCell(plan, fused, &shared);
      out.cells_run += 2;
      const std::string label = "shards" + std::to_string(shards);
      if (!cr.ok || !cf.ok) {
        fail(CaseStatus::kHostError, scheme + "/" + label,
             !cr.ok ? cr.host_error : cf.host_error);
        return out;
      }
      if (cr.result.status == vm::RunStatus::kOutOfFuel) {
        ++out.fuel_skips;
        continue;
      }
      std::string diff = DiffCounters(cr.result, cf.result);
      if (diff.empty()) {
        diff = DiffBehaviour(oracle.result, cr.result);
      }
      if (!diff.empty()) {
        fail(CaseStatus::kDivergence, scheme + "/" + label, diff);
        return out;
      }
    }

    // Epoch-migration cell: with ownership re-derived at every spawn/join
    // boundary (Config::migrate), the engines must still agree at full
    // counter identity — publish charges and shard_migrations included —
    // and behaviour must match the flat oracle exactly.
    {
      core::Config ref = base_config(s);
      ref.shards = 8;
      ref.migrate = true;
      ref.engine = vm::EngineKind::kReference;
      core::Config fused = ref;
      fused.engine = vm::EngineKind::kFused;
      Cell cr = RunCell(plan, ref, &shared);
      Cell cf = RunCell(plan, fused, &shared);
      out.cells_run += 2;
      if (!cr.ok || !cf.ok) {
        fail(CaseStatus::kHostError, scheme + "/migrate",
             !cr.ok ? cr.host_error : cf.host_error);
        return out;
      }
      if (cr.result.status != vm::RunStatus::kOutOfFuel) {
        std::string diff = DiffCounters(cr.result, cf.result);
        if (diff.empty()) {
          diff = DiffBehaviour(oracle.result, cr.result);
        }
        if (!diff.empty()) {
          fail(CaseStatus::kDivergence, scheme + "/migrate", diff);
          return out;
        }
      } else {
        ++out.fuel_skips;
      }
    }

    // Cross-scheme: instrumentation must preserve behaviour against vanilla.
    if (scheme == "vanilla") {
      vanilla_oracle = oracle.result;
      have_vanilla = true;
    } else if (have_vanilla) {
      const std::string diff = DiffBehaviour(vanilla_oracle, oracle.result);
      if (!diff.empty()) {
        fail(CaseStatus::kDivergence, scheme + "/cross-scheme", diff);
        return out;
      }
    }

    // CPI extras: debug (mirror-and-compare) and the temporal extension,
    // each at full reference-vs-fused counter identity. (Not compared to
    // the plain oracle: temporal checks legitimately turn a hazardous
    // program's stale reads into violations.)
    if (scheme == "cpi") {
      for (int mode = 0; mode < 2; ++mode) {
        const char* label = mode == 0 ? "debug" : "temporal";
        core::Config ref = base_config(s);
        ref.debug_mode = mode == 0;
        ref.temporal = mode == 1;
        ref.engine = vm::EngineKind::kReference;
        core::Config fused = ref;
        fused.engine = vm::EngineKind::kFused;
        Cell cr = RunCell(plan, ref);
        Cell cf = RunCell(plan, fused, &shared);
        out.cells_run += 2;
        if (!cr.ok || !cf.ok) {
          fail(CaseStatus::kHostError, scheme + std::string("/") + label,
               !cr.ok ? cr.host_error : cf.host_error);
          return out;
        }
        if (cr.result.status == vm::RunStatus::kOutOfFuel) {
          ++out.fuel_skips;
          continue;
        }
        const std::string diff = DiffCounters(cr.result, cf.result);
        if (!diff.empty()) {
          fail(CaseStatus::kDivergence, scheme + std::string("/") + label, diff);
          return out;
        }
      }
    }

    // Fault campaign: inject every kind mid-run on the fused tier and
    // require graceful containment. Firing points derive from the oracle's
    // instruction count so they land inside the program, not after it.
    if (options.fault_campaign) {
      const uint64_t span = oracle.result.counters.instructions;
      static const vm::FaultKind kKinds[] = {
          vm::FaultKind::kCorruptSafeStack, vm::FaultKind::kCorruptSafeStore,
          vm::FaultKind::kOomSafeStore,     vm::FaultKind::kOomHeapArena,
          vm::FaultKind::kOomPageAlloc,     vm::FaultKind::kForcePreempt,
          vm::FaultKind::kCorruptShard,     vm::FaultKind::kOomShard,
      };
      for (vm::FaultKind kind : kKinds) {
        vm::FaultPlan fplan;
        fplan.events.push_back(
            {kind, std::max<uint64_t>(1, span / 3), Mix(plan.seed, static_cast<uint64_t>(kind))});
        fplan.events.push_back({kind, std::max<uint64_t>(2, 2 * span / 3),
                                Mix(plan.seed, 16 + static_cast<uint64_t>(kind))});
        core::Config config = base_config(s);
        if (kind == vm::FaultKind::kCorruptShard || kind == vm::FaultKind::kOomShard) {
          config.shards = 8;  // per-shard containment needs real shards
        }
        config.faults = &fplan;
        Cell c = RunCell(plan, config, &shared);
        ++out.cells_run;
        const char* kind_name = vm::FaultKindName(kind);
        if (!c.ok) {
          // The whole point: an injected fault must surface as a reported
          // RunResult, never as an escaped exception.
          fail(CaseStatus::kHostError, scheme + "/fault/" + kind_name, c.host_error);
          return out;
        }
        if (kind == vm::FaultKind::kForcePreempt &&
            c.result.status != vm::RunStatus::kOutOfFuel) {
          // Scheduling is unobservable for race-free programs, so forced
          // preemption must leave behaviour intact.
          const std::string diff = DiffBehaviour(oracle.result, c.result);
          if (!diff.empty()) {
            fail(CaseStatus::kDivergence, scheme + "/fault/" + kind_name, diff);
            return out;
          }
        }
        if (c.result.faults_injected > 0) {
          out.fault_coverage.emplace_back(scheme, kind_name);
        }
      }
    }
  }
  return out;
}

}  // namespace cpi::fuzz
