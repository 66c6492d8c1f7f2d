// Strict CLI parsing for the bench binaries: Parse for bench/suite,
// ParseFuzz for bench/fuzz.
//
// suite:
//   --json       machine-readable output
//   --time       print harness wall-clock
//   --scale N    workload size multiplier, N >= 1 (also accepts "small" == 1)
//   --jobs N     measurement-cell parallelism, 0..kMaxJobs; 0 or omitted =
//                hardware concurrency, 1 = strictly serial (bit-identical
//                tables either way — only wall-clock changes)
//   --opt N      0 or 1 (default 0). The standard tables always run at O0,
//                every historical table's level; 1 adds the ablation_opt
//                O0-vs-O1 table.
//   --engine E   VM execution tier: fused (default), decoded, reference.
//                Simulated counters — and therefore every table — are
//                bit-identical across tiers; only wall-clock changes.
//
// fuzz (see bench/fuzz.cc):
//   --cases N (>= 1)  --seed S  --jobs N (<= kMaxJobs)  --max-steps N  --inject N
//   --corpus-dir DIR  --replay FILE  --no-hazards  --no-threads
//   --no-self-test  --json
//
// An unknown argument, a missing value, or a numeric value that is not a
// whole decimal number in its range prints usage and exits 2, so a typo can
// never run under a silently substituted value.
#ifndef CPI_BENCH_FLAGS_H_
#define CPI_BENCH_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/core/levee.h"
#include "src/support/pool.h"

namespace cpi::bench {

// One parser's walk over argv.
struct Args {
  int argc;
  char** argv;
  const char* usage;  // the flag synopsis printed after "usage: argv0"
  int i = 0;

  bool Next() { return ++i < argc; }
  bool Is(const char* flag) const { return std::strcmp(argv[i], flag) == 0; }

  [[noreturn]] void Fail(const std::string& reason) const {
    std::fprintf(stderr, "%s\nusage: %s %s\n", reason.c_str(), argv[0], usage);
    std::exit(2);
  }

  // The current flag's value.
  const char* Value() {
    if (i + 1 >= argc) {
      Fail(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  }
};

// The current flag's value as a whole decimal number in [min, max].
// Anything else (empty, a sign, trailing characters, out of range) fails.
inline uint64_t ParseCount(Args& args, uint64_t min, uint64_t max) {
  const std::string name = args.argv[args.i];
  const char* text = args.Value();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      value < min || value > max) {
    args.Fail("invalid " + name + ": '" + text + "' (expected an integer in [" +
              std::to_string(min) + ", " + std::to_string(max) + "])");
  }
  return value;
}

constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
// Upper bound of --jobs (both usage strings state it): each ParallelFor
// starts up to jobs - 1 threads, so an unbounded value would ask for
// billions of them before any work ran.
constexpr uint64_t kMaxJobs = 256;

struct Flags {
  bool json = false;
  bool timing = false;
  int scale = 1;
  int jobs = 0;  // resolved to DefaultJobs() by Parse
  int opt = 0;   // core::Config::opt_level of the ablation_opt cells
  vm::EngineKind engine = vm::EngineKind::kFused;  // core::Config::engine
};

inline Flags Parse(int argc, char** argv) {
  Args args{argc, argv,
            "[--json] [--time] [--scale N|small] [--jobs N (0..256)] [--opt N] "
            "[--engine fused|decoded|reference]"};
  Flags flags;
  while (args.Next()) {
    if (args.Is("--json")) {
      flags.json = true;
    } else if (args.Is("--time")) {
      flags.timing = true;
    } else if (args.Is("--scale") && args.i + 1 < argc &&
               std::strcmp(argv[args.i + 1], "small") == 0) {
      ++args.i;  // "small" is scale 1
    } else if (args.Is("--scale")) {
      flags.scale = static_cast<int>(ParseCount(args, 1, kMaxInt));
    } else if (args.Is("--jobs")) {
      flags.jobs = static_cast<int>(ParseCount(args, 0, kMaxJobs));
    } else if (args.Is("--opt")) {
      flags.opt = static_cast<int>(ParseCount(args, 0, 1));
    } else if (args.Is("--engine")) {
      const std::string engine = args.Value();
      if (engine == "fused") {
        flags.engine = vm::EngineKind::kFused;
      } else if (engine == "decoded") {
        flags.engine = vm::EngineKind::kDecoded;
      } else if (engine == "reference") {
        flags.engine = vm::EngineKind::kReference;
      } else {
        args.Fail("unknown --engine: " + engine);
      }
    } else {
      args.Fail(std::string("unknown argument: ") + argv[args.i]);
    }
  }
  if (flags.jobs == 0) {
    flags.jobs = DefaultJobs();
  }
  return flags;
}

struct FuzzFlags {
  int cases = 100;
  uint64_t seed = 1;
  int jobs = 0;  // 0 = hardware concurrency
  uint64_t max_steps = 2'000'000;
  std::string corpus_dir = "fuzz_corpus";
  std::string replay;
  uint64_t inject = 0;
  bool hazards = true;
  bool threads = true;
  bool self_test = true;
  bool json = false;
};

inline FuzzFlags ParseFuzz(int argc, char** argv) {
  Args args{argc, argv,
            "[--cases N] [--seed S] [--jobs N (0..256)] [--max-steps N]\n"
            "       [--corpus-dir DIR] [--replay FILE] [--inject N]\n"
            "       [--no-hazards] [--no-threads] [--no-self-test] [--json]"};
  FuzzFlags flags;
  while (args.Next()) {
    if (args.Is("--cases")) {
      flags.cases = static_cast<int>(ParseCount(args, 1, kMaxInt));
    } else if (args.Is("--seed")) {
      flags.seed = ParseCount(args, 0, kMaxU64);
    } else if (args.Is("--jobs")) {
      flags.jobs = static_cast<int>(ParseCount(args, 0, kMaxJobs));
    } else if (args.Is("--max-steps")) {
      flags.max_steps = ParseCount(args, 0, kMaxU64);
    } else if (args.Is("--inject")) {
      flags.inject = ParseCount(args, 0, kMaxU64);
    } else if (args.Is("--corpus-dir")) {
      flags.corpus_dir = args.Value();
    } else if (args.Is("--replay")) {
      flags.replay = args.Value();
    } else if (args.Is("--no-hazards")) {
      flags.hazards = false;
    } else if (args.Is("--no-threads")) {
      flags.threads = false;
    } else if (args.Is("--no-self-test")) {
      flags.self_test = false;
    } else if (args.Is("--json")) {
      flags.json = true;
    } else {
      args.Fail(std::string("unknown argument: ") + argv[args.i]);
    }
  }
  return flags;
}

}  // namespace cpi::bench

#endif  // CPI_BENCH_FLAGS_H_
