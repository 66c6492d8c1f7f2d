// Shared CLI parsing for the bench drivers.
//
//   --json       machine-readable output (where the driver supports it)
//   --time       print harness wall-clock
//   --scale N    workload size multiplier, N >= 1 (also accepts "small" == 1)
//   --jobs N     measurement-cell parallelism; 0 or omitted = hardware
//                concurrency, 1 = strictly serial (bit-identical tables
//                either way — only wall-clock changes)
//   --opt N      post-instrumentation optimization level, 0 or 1 (default
//                0; every historical table is recorded at O0). Most drivers
//                measure at the given level; the suite instead keeps its
//                standard tables at O0 and adds the ablation_opt O0-vs-O1
//                table.
//   --engine E   VM execution tier: fused (default), decoded, reference.
//                Simulated counters — and therefore every table — are
//                bit-identical across tiers; only wall-clock changes.
//   --shards N   safe-pointer-store shard count, N >= 1 (default 1 — the
//                legacy shared store every historical table is recorded at).
//                Behaviour is shard-count-invariant; cycles model per-shard
//                contention (see bench/ablation_shards).
//   --migrate    epoch-based shard-ownership migration (default off — the
//                static owner table every historical table is recorded
//                under). Only meaningful with --shards > 1: ownership then
//                republishes at spawn/join boundaries and readers take the
//                RCU-style epoch path (see bench/ablation_churn).
//   --scheme S   a registered scheme name ("cpi") or a composite spec
//                ("ptrenc+safestack") resolved through
//                core::SchemeRegistry::FindOrRegisterComposite. Unknown
//                components and write-conflicting stacks fail with usage +
//                exit 2, like any other bad argument. Drivers that sweep the
//                registry ignore it; drivers that evaluate one configuration
//                (e.g. bench/ripe_effectiveness) consume Flags::scheme.
//
// A numeric value that is not a whole number in its range fails with usage
// + exit 2 as well.
#ifndef CPI_BENCH_FLAGS_H_
#define CPI_BENCH_FLAGS_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/support/pool.h"

namespace cpi::bench {

struct Flags {
  bool json = false;
  bool timing = false;
  int scale = 1;
  int jobs = 0;  // resolved to ThreadPool::DefaultJobs() by Parse
  int opt = 0;   // core::Config::opt_level for the measured cells
  vm::EngineKind engine = vm::EngineKind::kFused;  // core::Config::engine
  uint32_t shards = 1;   // core::Config::shards for the measured cells
  bool migrate = false;  // core::Config::migrate for the measured cells
  // Resolved --scheme selection (nullptr: not given). Deliberately NOT
  // applied by BaseConfig: Config::scheme overrides Config::protection, so
  // auto-applying it would silently pin every cell of a registry-sweeping
  // driver to one scheme. Drivers opt in where a single-scheme evaluation
  // makes sense.
  const core::ProtectionScheme* scheme = nullptr;
};

// The Config every measured cell starts from under these flags.
inline core::Config BaseConfig(const Flags& flags) {
  core::Config config;
  config.opt_level = flags.opt;
  config.engine = flags.engine;
  config.shards = flags.shards;
  config.migrate = flags.migrate;
  return config;
}

inline void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--time] [--scale N|small] [--jobs N] [--opt N] "
               "[--engine fused|decoded|reference] [--shards N] [--migrate] "
               "[--scheme NAME[+NAME...]]\n",
               argv0);
}

// The value of numeric flag `name`: a whole decimal number in [min, max].
// Anything else (empty, trailing characters, out of range) prints usage and
// exits 2, like any other bad argument, so a typo can never run a table
// under a silently substituted value.
inline int ParseCount(const char* name, const char* text, long min, long max,
                      const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
    std::fprintf(stderr, "invalid %s: '%s' (expected an integer in [%ld, %ld])\n", name, text,
                 min, max);
    PrintUsage(argv0);
    std::exit(2);
  }
  return static_cast<int>(value);
}

inline Flags Parse(int argc, char** argv) {
  constexpr long kMaxCount = std::numeric_limits<int>::max();
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else if (std::strcmp(argv[i], "--time") == 0) {
      flags.timing = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      ++i;
      flags.scale = std::strcmp(argv[i], "small") == 0
                        ? 1
                        : ParseCount("--scale", argv[i], 1, kMaxCount, argv[0]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      flags.jobs = ParseCount("--jobs", argv[++i], 0, kMaxCount, argv[0]);
    } else if (std::strcmp(argv[i], "--opt") == 0 && i + 1 < argc) {
      flags.opt = ParseCount("--opt", argv[++i], 0, 1, argv[0]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      flags.shards =
          static_cast<uint32_t>(ParseCount("--shards", argv[++i], 1, kMaxCount, argv[0]));
    } else if (std::strcmp(argv[i], "--migrate") == 0) {
      flags.migrate = true;
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      ++i;
      std::string error;
      flags.scheme = core::SchemeRegistry::FindOrRegisterComposite(argv[i], &error);
      if (flags.scheme == nullptr) {
        std::fprintf(stderr, "bad --scheme: %s\n", error.c_str());
        PrintUsage(argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "fused") == 0) {
        flags.engine = vm::EngineKind::kFused;
      } else if (std::strcmp(argv[i], "decoded") == 0) {
        flags.engine = vm::EngineKind::kDecoded;
      } else if (std::strcmp(argv[i], "reference") == 0) {
        flags.engine = vm::EngineKind::kReference;
      } else {
        std::fprintf(stderr, "unknown --engine: %s\n", argv[i]);
        PrintUsage(argv[0]);
        std::exit(2);
      }
    } else {
      // Unknown (or value-less) arguments used to be silently ignored, so a
      // typo like `--job 4` recorded a whole table under default settings.
      // Fail loudly instead.
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      std::exit(2);
    }
  }
  if (flags.jobs == 0) {
    flags.jobs = ThreadPool::DefaultJobs();
  }
  if (flags.migrate && flags.shards == 1) {
    // Ownership of a single shard can never migrate: the flag combination is
    // legal (runs are byte-identical to plain --shards 1) but almost
    // certainly not what the user meant.
    std::fprintf(stderr,
                 "warning: --migrate with --shards 1 is a no-op (nothing to migrate); "
                 "pass --shards N>1 to enable epoch ownership\n");
  }
  return flags;
}

}  // namespace cpi::bench

#endif  // CPI_BENCH_FLAGS_H_
