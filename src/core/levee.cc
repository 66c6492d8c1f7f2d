#include "src/core/levee.h"

#include "src/core/scheme.h"
#include "src/ir/verifier.h"

namespace cpi::core {

const ProtectionScheme& SchemeOf(const Config& config) {
  return config.scheme != nullptr ? *config.scheme
                                  : SchemeRegistry::Get(config.protection);
}

const char* ProtectionName(Protection p) { return SchemeRegistry::Get(p).name(); }

CompileOutput Compiler::Instrument(ir::Module& module) const {
  ir::VerifyOrDie(module, "module " + module.name() + " (before instrumentation)");

  const ProtectionScheme& scheme = SchemeOf(config_);

  CompileOutput out;
  out.instructions_before = module.InstructionCount();

  instrument::PassOptions popts;
  popts.char_star_heuristic = config_.char_star_heuristic;
  popts.cast_dataflow = config_.cast_dataflow;
  popts.debug_mode = config_.debug_mode;
  popts.temporal = config_.temporal;

  scheme.Instrument(module, popts);
  ir::VerifyOrDie(module, "module " + module.name() + " (after instrumentation)");

  out.instructions_after = module.InstructionCount();
  out.instructions_after_opt = out.instructions_after;

  if (config_.opt_level >= 1) {
    // Standard pipeline, then scheme-specific cleanup, then DCE last so it
    // sweeps whatever the other passes left without uses. The pass manager
    // re-verifies the module after every pass.
    opt::PassManager pm;
    pm.Add(opt::CreateMem2RegPass());
    pm.Add(opt::CreateRedundancyEliminationPass());
    scheme.ContributeOptPasses(pm);
    pm.Add(opt::CreateDcePass());
    out.opt = pm.Run(module);
    out.instructions_after_opt = module.InstructionCount();
  }
  return out;
}

namespace {

vm::RunOptions RunOptionsFor(const Config& config, const Input& input) {
  vm::RunOptions options;
  SchemeOf(config).ConfigureRun(options);
  options.store = config.store;
  options.isolation = config.isolation;
  options.shards = config.shards;
  options.migrate = config.migrate;
  options.mpx_assist = config.mpx_assist;
  options.engine =
      config.reference_interpreter ? vm::EngineKind::kReference : config.engine;
  options.quantum = config.thread_quantum;
  options.max_steps = config.max_steps;
  options.seed = config.seed;
  options.input_words = input.words;
  options.input_bytes = input.bytes;
  options.faults = config.faults;
  return options;
}

}  // namespace

vm::RunResult Run(const ir::Module& module, const Config& config, const Input& input) {
  return vm::Execute(module, RunOptionsFor(config, input));
}

vm::RunResult Run(const vm::DecodedModule& decoded, const Config& config, const Input& input) {
  return vm::Execute(decoded, RunOptionsFor(config, input));
}

vm::RunResult InstrumentAndRun(ir::Module& module, const Config& config, const Input& input) {
  Compiler compiler(config);
  compiler.Instrument(module);
  return Run(module, config, input);
}

}  // namespace cpi::core
