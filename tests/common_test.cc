#include <gtest/gtest.h>

#include <cstdlib>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace gcon {
namespace {

TEST(StringUtil, SplitBasic) {
  const auto pieces = SplitString("a,b,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtil, SplitDropsEmptyPieces) {
  const auto pieces = SplitString(",,a,,b,", ',');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(StringUtil, SplitEmptyString) { EXPECT_TRUE(SplitString("", ',').empty()); }

TEST(StringUtil, JoinRoundTrip) {
  const std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Join(pieces, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
}

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--epsilon=2.5", "--dataset=cora_ml"};
  Flags flags(3, const_cast<char**>(argv),
              {{"epsilon", "budget"}, {"dataset", "name"}});
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 1.0), 2.5);
  EXPECT_EQ(flags.GetString("dataset", ""), "cora_ml");
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--runs", "7"};
  Flags flags(3, const_cast<char**>(argv), {{"runs", "repeat count"}});
  EXPECT_EQ(flags.GetInt("runs", 1), 7);
}

TEST(Flags, BooleanSwitch) {
  const char* argv[] = {"prog", "--full"};
  Flags flags(2, const_cast<char**>(argv), {{"full", "paper scale"}});
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(Flags, DeclaredSwitchDoesNotSwallowNextToken) {
  // The bug: `--share-data eval` consumed "eval" as the switch's value,
  // so the subcommand vanished from positional().
  const char* argv[] = {"prog", "--share-data", "eval"};
  Flags flags(3, const_cast<char**>(argv),
              {{"share-data", "share one dataset"}},
              /*switches=*/{"share-data"});
  EXPECT_TRUE(flags.GetBool("share-data", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "eval");
}

TEST(Flags, DeclaredSwitchStillAcceptsEqualsForm) {
  const char* argv[] = {"prog", "--share-data=false", "eval"};
  Flags flags(3, const_cast<char**>(argv),
              {{"share-data", "share one dataset"}},
              /*switches=*/{"share-data"});
  EXPECT_FALSE(flags.GetBool("share-data", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "eval");
}

TEST(Flags, UndeclaredFlagKeepsGreedyValueForm) {
  // Flags not named in `switches` keep the "--name value" behavior.
  const char* argv[] = {"prog", "--runs", "7", "--share-data", "eval"};
  Flags flags(5, const_cast<char**>(argv),
              {{"runs", "repeats"}, {"share-data", "share"}},
              /*switches=*/{"share-data"});
  EXPECT_EQ(flags.GetInt("runs", 1), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "eval");
}

TEST(FlagsDeathTest, MalformedIntNamesFlagAndPrintsUsage) {
  // Used to escape as an uncaught std::invalid_argument from std::stoi
  // with no hint of which flag was bad.
  const char* argv[] = {"prog", "--runs=abc"};
  Flags flags(2, const_cast<char**>(argv), {{"runs", "repeat count"}});
  EXPECT_EXIT(flags.GetInt("runs", 1), ::testing::ExitedWithCode(2),
              "Invalid value for --runs: 'abc'.*Usage: prog");
}

TEST(FlagsDeathTest, TrailingJunkIntRejected) {
  const char* argv[] = {"prog", "--runs=12abc"};
  Flags flags(2, const_cast<char**>(argv), {{"runs", "repeat count"}});
  EXPECT_EXIT(flags.GetInt("runs", 1), ::testing::ExitedWithCode(2),
              "Invalid value for --runs: '12abc'");
}

TEST(FlagsDeathTest, MalformedDoubleNamesFlagAndPrintsUsage) {
  const char* argv[] = {"prog", "--scale=fast"};
  Flags flags(2, const_cast<char**>(argv), {{"scale", "dataset scale"}});
  EXPECT_EXIT(flags.GetDouble("scale", 1.0), ::testing::ExitedWithCode(2),
              "Invalid value for --scale: 'fast'.*Usage: prog");
}

TEST(FlagsDeathTest, OutOfRangeIntRejected) {
  const char* argv[] = {"prog", "--runs=99999999999999999999"};
  Flags flags(2, const_cast<char**>(argv), {{"runs", "repeat count"}});
  EXPECT_EXIT(flags.GetInt("runs", 1), ::testing::ExitedWithCode(2),
              "Invalid value for --runs");
}

TEST(FlagsDeathTest, GetPositiveIntRejectsZeroAndNegativeNamingTheFlag) {
  // Serving knobs (--threads/--max_batch) use this: zero is
  // not a mode, it is a broken invocation that must fail loudly.
  const char* argv[] = {"prog", "--threads=0", "--max_batch=-4"};
  Flags flags(3, const_cast<char**>(argv),
              {{"threads", "workers"}, {"max_batch", "batch size"}});
  EXPECT_EXIT(flags.GetPositiveInt("threads", 1),
              ::testing::ExitedWithCode(2),
              "Invalid value for --threads: '0'.*positive integer");
  EXPECT_EXIT(flags.GetPositiveInt("max_batch", 1),
              ::testing::ExitedWithCode(2),
              "Invalid value for --max_batch: '-4'.*positive integer");
}

TEST(Flags, GetPositiveIntPassesValidValuesAndDefaults) {
  const char* argv[] = {"prog", "--threads=4"};
  Flags flags(2, const_cast<char**>(argv), {{"threads", "workers"}});
  EXPECT_EQ(flags.GetPositiveInt("threads", 1), 4);
  EXPECT_EQ(flags.GetPositiveInt("absent", 32), 32);
}

TEST(Flags, WellFormedNumericsStillParse) {
  const char* argv[] = {"prog", "--runs=8", "--scale=0.25", "--shift=-3"};
  Flags flags(4, const_cast<char**>(argv),
              {{"runs", "r"}, {"scale", "s"}, {"shift", "t"}});
  EXPECT_EQ(flags.GetInt("runs", 1), 8);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.25);
  EXPECT_EQ(flags.GetInt("shift", 0), -3);
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv), {{"x", "unused"}});
  EXPECT_EQ(flags.GetInt("x", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("x", "d"), "d");
  EXPECT_FALSE(flags.Has("x"));
}

TEST(Flags, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--k=1", "pos2"};
  Flags flags(4, const_cast<char**>(argv), {{"k", "key"}});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "pos2");
}

TEST(Env, EnvIntDefaults) {
  EXPECT_EQ(EnvInt("GCON_TEST_UNSET_VARIABLE_XYZ", 17), 17);
}

TEST(Env, EnvIntReadsValue) {
  setenv("GCON_TEST_INT_VAR", "123", 1);
  EXPECT_EQ(EnvInt("GCON_TEST_INT_VAR", 0), 123);
  unsetenv("GCON_TEST_INT_VAR");
}

TEST(Env, EnvBoolReadsValue) {
  setenv("GCON_TEST_BOOL_VAR", "true", 1);
  EXPECT_TRUE(EnvBool("GCON_TEST_BOOL_VAR", false));
  setenv("GCON_TEST_BOOL_VAR", "0", 1);
  EXPECT_FALSE(EnvBool("GCON_TEST_BOOL_VAR", true));
  unsetenv("GCON_TEST_BOOL_VAR");
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += i;
  EXPECT_GE(sink, 0.0);  // keep the loop observable
  EXPECT_GE(timer.Seconds(), 0.0);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 1.0);
}

}  // namespace
}  // namespace gcon
