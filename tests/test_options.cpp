#include "util/options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace swarmfuzz::util {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParsesEqualsForm) {
  EXPECT_EQ(parse({"--missions=50"}).get_int("missions", 0), 50);
}

TEST(Options, ParsesSpaceForm) {
  EXPECT_EQ(parse({"--missions", "25"}).get_int("missions", 0), 25);
}

TEST(Options, BareFlagIsTrue) {
  EXPECT_TRUE(parse({"--verbose"}).get_bool("verbose", false));
}

TEST(Options, PositionalArgumentsPreserved) {
  const Options opts = parse({"input.csv", "--k=2", "output.csv"});
  ASSERT_EQ(opts.positional().size(), 2u);
  EXPECT_EQ(opts.positional()[0], "input.csv");
  EXPECT_EQ(opts.positional()[1], "output.csv");
}

TEST(Options, FallbacksWhenMissing) {
  const Options opts = parse({});
  EXPECT_EQ(opts.get("name", "default"), "default");
  EXPECT_EQ(opts.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 1.5), 1.5);
  EXPECT_TRUE(opts.get_bool("b", true));
}

TEST(Options, MalformedNumbersFallBack) {
  const Options opts = parse({"--n=abc", "--x=zzz"});
  EXPECT_EQ(opts.get_int("n", 3), 3);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 2.5), 2.5);
}

TEST(Options, BoolParsingVariants) {
  EXPECT_TRUE(parse({"--f=yes"}).get_bool("f", false));
  EXPECT_TRUE(parse({"--f=on"}).get_bool("f", false));
  EXPECT_FALSE(parse({"--f=0"}).get_bool("f", true));
  EXPECT_FALSE(parse({"--f=no"}).get_bool("f", true));
}

TEST(Options, EnvironmentFallback) {
  ::setenv("SWARMFUZZ_TEST_OPTION", "99", 1);
  EXPECT_EQ(parse({}).get_int("test-option", 0), 99);
  // CLI overrides env.
  EXPECT_EQ(parse({"--test-option=1"}).get_int("test-option", 0), 1);
  ::unsetenv("SWARMFUZZ_TEST_OPTION");
}

TEST(Options, FlagsListsCommandLineNamesOnly) {
  ::setenv("SWARMFUZZ_FROM_ENV", "1", 1);
  const Options opts = parse({"run", "--seed=3", "--detect", "--budget", "6"});
  EXPECT_EQ(opts.flags(), (std::vector<std::string>{"budget", "detect", "seed"}));
  ::unsetenv("SWARMFUZZ_FROM_ENV");
  EXPECT_TRUE(parse({"run"}).flags().empty());
}

TEST(Options, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Options, ProgramNameCaptured) {
  EXPECT_EQ(parse({}).program(), "prog");
}

}  // namespace
}  // namespace swarmfuzz::util
