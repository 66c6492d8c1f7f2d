// Regression tests for the bench drivers' shared flag parsing: unknown (or
// value-less) arguments must abort the run instead of silently recording a
// whole table under default settings (a typo like `--job 4` used to do
// exactly that).
#include <gtest/gtest.h>

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

TEST(BenchFlagsTest, MigrateFlagParsesAndReachesConfig) {
  char a0[] = "bench";
  char a1[] = "--shards";
  char a2[] = "8";
  char a3[] = "--migrate";
  char* argv[] = {a0, a1, a2, a3};
  const Flags flags = Parse(4, argv);
  EXPECT_EQ(flags.shards, 8u);
  EXPECT_TRUE(flags.migrate);
  const core::Config config = BaseConfig(flags);
  EXPECT_EQ(config.shards, 8u);
  EXPECT_TRUE(config.migrate);
}

TEST(BenchFlagsTest, MigrateWithOneShardWarnsButParses) {
  char a0[] = "bench";
  char a1[] = "--migrate";
  char* argv[] = {a0, a1};
  testing::internal::CaptureStderr();
  const Flags flags = Parse(2, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(flags.migrate);
  EXPECT_EQ(flags.shards, 1u);
  EXPECT_NE(err.find("no-op"), std::string::npos) << err;
}

TEST(BenchFlagsTest, SchemeFlagResolvesARegisteredName) {
  char a0[] = "bench";
  char a1[] = "--scheme";
  char a2[] = "cpi";
  char* argv[] = {a0, a1, a2};
  const Flags flags = Parse(3, argv);
  ASSERT_NE(flags.scheme, nullptr);
  EXPECT_STREQ(flags.scheme->name(), "cpi");
  EXPECT_EQ(flags.scheme, core::SchemeRegistry::FindByName("cpi"));
  // Deliberately NOT applied by BaseConfig (it would pin registry-sweeping
  // drivers to one scheme); consuming drivers opt in.
  EXPECT_EQ(BaseConfig(flags).scheme, nullptr);
}

TEST(BenchFlagsTest, SchemeFlagResolvesACompositeSpec) {
  char a0[] = "bench";
  char a1[] = "--scheme";
  char a2[] = "ptrenc+safestack";
  char* argv[] = {a0, a1, a2};
  const Flags flags = Parse(3, argv);
  ASSERT_NE(flags.scheme, nullptr);
  EXPECT_STREQ(flags.scheme->name(), "ptrenc+safestack");
  // The blessed composites are pre-registered; the spec resolves to the
  // registry entry rather than minting a duplicate.
  EXPECT_EQ(flags.scheme, core::SchemeRegistry::FindByName("ptrenc+safestack"));
}

TEST(BenchFlagsDeathTest, SchemeFlagRejectsUnknownComponents) {
  char a0[] = "bench";
  char a1[] = "--scheme";
  char a2[] = "cpi+no-such-scheme";
  char* argv[] = {a0, a1, a2};
  EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2),
              "bad --scheme: unknown scheme 'no-such-scheme'");
}

TEST(BenchFlagsDeathTest, SchemeFlagRejectsWriteConflictingStacks) {
  char a0[] = "bench";
  char a1[] = "--scheme";
  char a2[] = "cpi+cps";  // both rewrite pointer loads/stores and icalls
  char* argv[] = {a0, a1, a2};
  EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2), "bad --scheme: ");
}

TEST(BenchFlagsDeathTest, UnknownArgumentExitsNonZero) {
  char a0[] = "bench";
  char a1[] = "--job";  // the motivating typo
  char a2[] = "4";
  char* argv[] = {a0, a1, a2};
  EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2), "unknown argument: --job");
}

TEST(BenchFlagsDeathTest, MissingValueExitsNonZero) {
  char a0[] = "bench";
  char a1[] = "--scale";  // value missing: falls through to the unknown path
  char* argv[] = {a0, a1};
  EXPECT_EXIT(Parse(2, argv), testing::ExitedWithCode(2), "usage:");
}

// Numeric flags take whole numbers in range or nothing: `--jobs x` used to
// become hardware concurrency and `--opt x` O0, while a bad --scale or
// --shards warned and carried on.
TEST(BenchFlagsDeathTest, NonNumericOrOutOfRangeValuesExitNonZero) {
  const std::pair<const char*, const char*> kBad[] = {
      {"--jobs", "x"},    {"--jobs", "-1"},    {"--jobs", "2x"},  {"--jobs", ""},
      {"--opt", "x"},     {"--opt", "2"},      {"--opt", "-1"},   {"--scale", "big"},
      {"--scale", "0"},   {"--shards", "0"},   {"--shards", "x"}, {"--shards", "4.5"},
      {"--scale", "99999999999999999999"},
  };
  for (const auto& [flag, value] : kBad) {
    char a0[] = "bench";
    std::string a1 = flag;
    std::string a2 = value;
    char* argv[] = {a0, a1.data(), a2.data()};
    EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2),
                std::string("invalid ") + flag + "(.|\n)*usage:")
        << flag << " " << value;
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
  char a7[] = "--shards";
  char a8[] = "1";
  char* argv[] = {a0, a1, a2, a3, a4, a5, a6, a7, a8};
  const Flags flags = Parse(9, argv);
  EXPECT_GE(flags.jobs, 1);
  EXPECT_EQ(flags.opt, 0);
  EXPECT_EQ(flags.scale, 1);
  EXPECT_EQ(flags.shards, 1u);
}

}  // namespace
}  // namespace cpi::bench
