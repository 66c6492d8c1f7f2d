// Standing differential fuzzing campaign (see docs/FUZZING.md).
//
//   ./fuzz --cases 500 --seed 7            # the CI acceptance invocation
//   ./fuzz --replay corpus/case-123.plan   # re-run one saved corpus entry
//
// Each case: generate a random well-typed program (src/fuzz/generator),
// run it across engines x schemes x opt levels x quanta x store
// organisations plus the fault-injection campaign (src/fuzz/differential),
// and flag any disagreement. Failures are auto-minimized by delta-debugging
// the generator's decision trace and written to the corpus directory with an
// exact repro command.
//
// Flags (parsed by bench::ParseFuzz in bench/flags.h, which rejects a
// non-numeric or out-of-range value with usage + exit 2):
//
//   --cases N        programs to generate (default 100)
//   --seed S         base seed; case i uses seed S+i (default 1)
//   --jobs N         parallel cases; 0 = hardware concurrency (default 0)
//   --max-steps N    per-cell step budget (default 2000000)
//   --corpus-dir D   where failures and self-test entries are written
//   --replay FILE    replay one corpus entry instead of a campaign
//   --inject N       arm the self-test divergence at oracle-instruction
//                    threshold N (used by the printed self-test repro)
//   --no-hazards     generate only hazard-free programs
//   --no-threads     generate only single-threaded programs
//   --no-self-test   skip the end-of-campaign injected-divergence self-test
//   --json           machine-readable summary on stdout
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/flags.h"
#include "src/core/scheme.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/minimize.h"
#include "src/support/pool.h"

namespace cpi {
namespace {

using bench::FuzzFlags;

fuzz::DiffOptions DiffOptionsFor(const FuzzFlags& flags) {
  fuzz::DiffOptions options;
  options.max_steps = flags.max_steps;
  options.inject_divergence_at = flags.inject;
  return options;
}

int Replay(const FuzzFlags& flags, const char* argv0) {
  fuzz::Plan plan;
  if (!fuzz::LoadPlanFile(flags.replay, &plan)) {
    std::fprintf(stderr, "%s: cannot load corpus entry %s\n", argv0, flags.replay.c_str());
    return 2;
  }
  const fuzz::CaseResult result = fuzz::RunCase(plan, DiffOptionsFor(flags));
  std::printf("replay %s: %s%s%s (%d cells, %d fuel-skips)\n", flags.replay.c_str(),
              fuzz::CaseStatusName(result.status), result.detail.empty() ? "" : " — ",
              result.detail.c_str(), result.cells_run, result.fuel_skips);
  return result.status == fuzz::CaseStatus::kPass ? 0 : 1;
}

struct SelfTestOutcome {
  bool detected = false;
  bool minimized = false;
  bool reproduced = false;
  size_t ops_before = 0;
  size_t ops_after = 0;
  std::string entry;
};

// End-of-campaign honesty check: arm the executor's deliberate misreport,
// confirm the campaign machinery catches it, shrinks it, and reproduces it
// from the corpus entry it wrote. A harness that cannot detect its own
// injected divergence cannot be trusted with real ones.
SelfTestOutcome RunSelfTest(const FuzzFlags& flags, const fuzz::GenOptions& gopts) {
  SelfTestOutcome outcome;
  fuzz::DiffOptions st = DiffOptionsFor(flags);
  st.inject_divergence_at = 500;
  st.fault_campaign = false;  // irrelevant to the injected signal; saves time

  fuzz::Plan plan;
  for (int k = 0; k < 10 && !outcome.detected; ++k) {
    plan = fuzz::MakePlan(flags.seed + 1000 + static_cast<uint64_t>(k), gopts);
    const fuzz::CaseResult r = fuzz::RunCase(plan, st);
    outcome.detected = r.status == fuzz::CaseStatus::kDivergence &&
                       r.detail.find("self-test") != std::string::npos;
  }
  if (!outcome.detected) {
    return outcome;
  }
  outcome.ops_before = plan.ops.size();

  const fuzz::MinimizeResult mr = fuzz::Minimize(plan, st, fuzz::CaseStatus::kDivergence);
  outcome.ops_after = mr.plan.ops.size();
  outcome.minimized = outcome.ops_after <= outcome.ops_before;

  std::filesystem::create_directories(flags.corpus_dir);
  outcome.entry = flags.corpus_dir + "/self-test.plan";
  if (!fuzz::SavePlanFile(outcome.entry, mr.plan)) {
    return outcome;
  }
  fuzz::Plan reloaded;
  if (fuzz::LoadPlanFile(outcome.entry, &reloaded)) {
    outcome.reproduced = fuzz::RunCase(reloaded, st).status == fuzz::CaseStatus::kDivergence;
  }
  return outcome;
}

int Main(int argc, char** argv) {
  const FuzzFlags flags = bench::ParseFuzz(argc, argv);
  if (!flags.replay.empty()) {
    return Replay(flags, argv[0]);
  }

  fuzz::GenOptions gopts;
  gopts.hazards = flags.hazards;
  gopts.threads = flags.threads;
  const fuzz::DiffOptions dopts = DiffOptionsFor(flags);

  const size_t n = static_cast<size_t>(flags.cases);
  std::vector<fuzz::CaseResult> results(n);
  std::vector<fuzz::Plan> plans(n);
  {
    ThreadPool pool(flags.jobs);
    pool.ParallelFor(n, [&](size_t i) {
      plans[i] = fuzz::MakePlan(flags.seed + i, gopts);
      results[i] = fuzz::RunCase(plans[i], dopts);
    });
  }

  int divergences = 0;
  int host_errors = 0;
  int fuel_skips = 0;
  long cells = 0;
  std::map<std::string, std::set<std::string>> coverage;  // scheme -> kinds
  for (size_t i = 0; i < n; ++i) {
    const fuzz::CaseResult& r = results[i];
    cells += r.cells_run;
    fuel_skips += r.fuel_skips;
    for (const auto& [scheme, kind] : r.fault_coverage) {
      coverage[scheme].insert(kind);
    }
    if (r.status == fuzz::CaseStatus::kPass) {
      continue;
    }
    (r.status == fuzz::CaseStatus::kDivergence ? divergences : host_errors) += 1;
    const uint64_t case_seed = flags.seed + i;
    std::fprintf(stderr, "case seed=%llu: %s — %s\n",
                 static_cast<unsigned long long>(case_seed), fuzz::CaseStatusName(r.status),
                 r.detail.c_str());
    // Shrink and persist so the failure outlives this campaign.
    const fuzz::MinimizeResult mr = fuzz::Minimize(plans[i], dopts, r.status);
    std::filesystem::create_directories(flags.corpus_dir);
    const std::string entry = flags.corpus_dir + "/case-" + std::to_string(case_seed) + ".plan";
    fuzz::SavePlanFile(entry, mr.plan);
    std::fprintf(stderr,
                 "  minimized %zu -> %zu ops; saved %s\n  repro: %s --replay %s%s\n",
                 plans[i].ops.size(), mr.plan.ops.size(), entry.c_str(), argv[0],
                 entry.c_str(), flags.inject != 0 ? " --inject ..." : "");
  }

  // Every scheme must have at least one landed-and-contained fault category.
  const size_t schemes_covered = coverage.size();
  const size_t schemes_total = cpi::core::SchemeRegistry::All().size();
  const bool coverage_ok = schemes_covered == schemes_total;

  SelfTestOutcome self_test;
  if (flags.self_test) {
    self_test = RunSelfTest(flags, gopts);
  }
  const bool self_test_ok =
      !flags.self_test || (self_test.detected && self_test.minimized && self_test.reproduced);

  if (flags.json) {
    std::printf("{\n");
    std::printf("  \"cases\": %d,\n", flags.cases);
    std::printf("  \"cells\": %ld,\n", cells);
    std::printf("  \"divergences\": %d,\n", divergences);
    std::printf("  \"host_errors\": %d,\n", host_errors);
    std::printf("  \"fuel_skips\": %d,\n", fuel_skips);
    std::printf("  \"fault_coverage_schemes\": %zu,\n", schemes_covered);
    std::printf("  \"fault_coverage\": {\n");
    size_t si = 0;
    for (const auto& [scheme, kinds] : coverage) {
      std::printf("    \"%s\": [", scheme.c_str());
      size_t ki = 0;
      for (const std::string& kind : kinds) {
        std::printf("%s\"%s\"", ki++ == 0 ? "" : ", ", kind.c_str());
      }
      std::printf("]%s\n", ++si == coverage.size() ? "" : ",");
    }
    std::printf("  },\n");
    if (flags.self_test) {
      std::printf("  \"self_test\": {\"detected\": %s, \"minimized\": %s, \"reproduced\": %s, "
                  "\"ops_before\": %zu, \"ops_after\": %zu},\n",
                  self_test.detected ? "true" : "false", self_test.minimized ? "true" : "false",
                  self_test.reproduced ? "true" : "false", self_test.ops_before,
                  self_test.ops_after);
    }
    std::printf("  \"ok\": %s\n", divergences == 0 && host_errors == 0 && coverage_ok && self_test_ok
                                      ? "true"
                                      : "false");
    std::printf("}\n");
  } else {
    std::printf("fuzz: %d cases, %ld cells — %d divergences, %d host errors, %d fuel-skips\n",
                flags.cases, cells, divergences, host_errors, fuel_skips);
    std::printf("fault coverage: %zu/%zu schemes with >=1 contained category\n",
                schemes_covered, schemes_total);
    if (flags.self_test) {
      std::printf("self-test: detected=%s minimized(%zu->%zu) reproduced=%s (%s)\n",
                  self_test.detected ? "yes" : "NO", self_test.ops_before, self_test.ops_after,
                  self_test.reproduced ? "yes" : "NO", self_test.entry.c_str());
    }
  }

  return divergences == 0 && host_errors == 0 && coverage_ok && self_test_ok ? 0 : 1;
}

}  // namespace
}  // namespace cpi

int main(int argc, char** argv) { return cpi::Main(argc, argv); }
