// Regression tests for the bench binaries' shared flag parsing: unknown (or
// value-less) arguments must abort the run instead of silently recording a
// whole table under default settings (a typo like `--job 4` used to do
// exactly that).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "bench/flags.h"

namespace cpi::bench {
namespace {

TEST(BenchFlagsTest, KnownFlagsParse) {
  char a0[] = "bench";
  char a1[] = "--json";
  char a2[] = "--scale";
  char a3[] = "3";
  char a4[] = "--jobs";
  char a5[] = "2";
  char a6[] = "--opt";
  char a7[] = "1";
  char* argv[] = {a0, a1, a2, a3, a4, a5, a6, a7};
  const Flags flags = Parse(8, argv);
  EXPECT_TRUE(flags.json);
  EXPECT_EQ(flags.scale, 3);
  EXPECT_EQ(flags.jobs, 2);
  EXPECT_EQ(flags.opt, 1);
}

TEST(BenchFlagsDeathTest, UnknownArgumentExitsNonZero) {
  // `--job` is the motivating typo; --shards, --migrate and --scheme were
  // once accepted and then ignored by the suite, so they must fail too.
  const std::pair<const char*, const char*> kUnknown[] = {
      {"--job", "4"}, {"--shards", "16"}, {"--migrate", ""}, {"--scheme", "cpi"}};
  for (const auto& [flag, value] : kUnknown) {
    char a0[] = "bench";
    std::string a1 = flag;
    std::string a2 = value;
    char* argv[] = {a0, a1.data(), a2.data()};
    EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2),
                std::string("unknown argument: ") + flag)
        << flag << " " << value;
  }
}

TEST(BenchFlagsDeathTest, MissingValueExitsNonZero) {
  char a0[] = "bench";
  char a1[] = "--scale";  // value missing
  char* argv[] = {a0, a1};
  EXPECT_EXIT(Parse(2, argv), testing::ExitedWithCode(2), "usage:");
}

// Numeric flags take whole numbers in range or nothing: `--jobs x` used to
// become hardware concurrency and `--opt x` O0, while a bad --scale warned
// and carried on.
TEST(BenchFlagsDeathTest, NonNumericOrOutOfRangeValuesExitNonZero) {
  const std::pair<const char*, const char*> kBad[] = {
      {"--jobs", "x"},    {"--jobs", "-1"},    {"--jobs", "2x"},  {"--jobs", ""},
      {"--opt", "x"},     {"--opt", "2"},      {"--opt", "-1"},   {"--scale", "big"},
      {"--scale", "0"},   {"--scale", "4.5"},  {"--scale", "+1"},
      {"--scale", "99999999999999999999"},
  };
  // bench/fuzz shares the rule, widened to 64 bits for --seed: `--cases x`
  // used to run one case and `--seed -5` to wrap through strtoull.
  const std::pair<const char*, const char*> kBadFuzz[] = {
      {"--cases", "x"}, {"--cases", "0"}, {"--seed", "-5"}, {"--jobs", "-1"},
      {"--seed", "18446744073709551616"}, {"--max-steps", "1e6"},
  };
  const auto expect_invalid = [](auto parse, const char* flag, const char* value) {
    char a0[] = "bench";
    std::string a1 = flag;
    std::string a2 = value;
    char* argv[] = {a0, a1.data(), a2.data()};
    EXPECT_EXIT(parse(3, argv), testing::ExitedWithCode(2),
                std::string("invalid ") + flag + "(.|\n)*usage:")
        << flag << " " << value;
  };
  for (const auto& [flag, value] : kBad) {
    expect_invalid(Parse, flag, value);
  }
  for (const auto& [flag, value] : kBadFuzz) {
    expect_invalid(ParseFuzz, flag, value);
  }
}

TEST(BenchFlagsTest, NumericBoundsParse) {
  char a0[] = "bench";
  char a1[] = "--jobs";
  char a2[] = "0";  // hardware concurrency
  char a3[] = "--opt";
  char a4[] = "0";
  char a5[] = "--scale";
  char a6[] = "small";
  char* argv[] = {a0, a1, a2, a3, a4, a5, a6};
  const Flags flags = Parse(7, argv);
  EXPECT_GE(flags.jobs, 1);
  EXPECT_EQ(flags.opt, 0);
  EXPECT_EQ(flags.scale, 1);

  char f0[] = "fuzz";
  char f1[] = "--seed";
  char f2[] = "18446744073709551615";  // the whole 64-bit range
  char f3[] = "--cases";
  char f4[] = "1";
  char f5[] = "--jobs";
  char f6[] = "0";
  char* fuzz_argv[] = {f0, f1, f2, f3, f4, f5, f6};
  const FuzzFlags fuzz = ParseFuzz(7, fuzz_argv);
  EXPECT_EQ(fuzz.seed, UINT64_MAX);
  EXPECT_EQ(fuzz.cases, 1);
  EXPECT_EQ(fuzz.jobs, 0);
}

}  // namespace
}  // namespace cpi::bench
