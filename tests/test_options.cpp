#include "util/options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
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

// Expects `read` to throw std::invalid_argument naming `source`.
template <typename Read>
void expect_rejected(Read read, const std::string& source) {
  try {
    read();
    ADD_FAILURE() << source << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(source), std::string::npos) << e.what();
  }
}

TEST(Options, MalformedValuesAreRejected) {
  // A malformed value used to fall back to the default or be truncated
  // (--missions=2abc ran 2 missions, --distance=ten ran at 10 m).
  const Options opts = parse({"--n=abc", "--x=zzz", "--missions=2abc",
                              "--distance=10m", "--count=1.5", "--detect=maybe",
                              "--big=99999999999"});
  expect_rejected([&] { return opts.get_int("n", 3); }, "--n=abc");
  expect_rejected([&] { return opts.get_double("x", 2.5); }, "--x=zzz");
  expect_rejected([&] { return opts.get_int("missions", 30); }, "--missions=2abc");
  expect_rejected([&] { return opts.get_double("distance", 10.0); },
                  "--distance=10m");
  expect_rejected([&] { return opts.get_int("count", 1); }, "--count=1.5");
  expect_rejected([&] { return opts.get_bool("detect", false); },
                  "--detect=maybe");
  expect_rejected([&] { return opts.get_int("big", 0); }, "--big=99999999999");
  // Well-formed values of every type still parse.
  const Options good = parse({"--n=-4", "--x=2.5e-1", "--b=off"});
  EXPECT_EQ(good.get_int("n", 0), -4);
  EXPECT_DOUBLE_EQ(good.get_double("x", 0.0), 0.25);
  EXPECT_FALSE(good.get_bool("b", true));
  // A malformed environment fallback is named by its variable.
  ::setenv("SWARMFUZZ_TEST_MALFORMED", "7up", 1);
  expect_rejected([] { return parse({}).get_int("test-malformed", 0); },
                  "SWARMFUZZ_TEST_MALFORMED=7up");
  ::unsetenv("SWARMFUZZ_TEST_MALFORMED");
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
