#include "felip/common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace felip {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, StringAndDefaults) {
  FlagParser flags = Parse({"--method=OHG"});
  EXPECT_EQ(flags.GetString("method", "OUG"), "OHG");
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

TEST(FlagParserTest, NumericTypes) {
  FlagParser flags =
      Parse({"--epsilon=1.5", "--users=100000", "--delta=-3"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.0), 1.5);
  EXPECT_EQ(flags.GetUint("users", 0), 100000u);
  EXPECT_EQ(flags.GetInt("delta", 0), -3);
}

TEST(FlagParserTest, MalformedNumbersFallBack) {
  FlagParser flags = Parse({"--epsilon=abc", "--users=12x"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 2.5), 2.5);
  EXPECT_EQ(flags.GetUint("users", 7), 7u);
}

TEST(FlagParserTest, BooleanForms) {
  FlagParser flags = Parse({"--verbose", "--no-color", "--flag=yes",
                            "--off=false"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("color", true));
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = Parse({"input.csv", "--x=1", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagParserTest, UnconsumedDetection) {
  FlagParser flags = Parse({"--used=1", "--typo=2"});
  flags.GetInt("used", 0);
  const std::vector<std::string> unread = flags.UnconsumedFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(FlagParserTest, HasDoesNotConsume) {
  FlagParser flags = Parse({"--present=1"});
  EXPECT_TRUE(flags.Has("present"));
  EXPECT_FALSE(flags.Has("absent"));
  EXPECT_EQ(flags.UnconsumedFlags().size(), 1u);
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = Parse({"--x=1", "--x=2"});
  EXPECT_EQ(flags.GetInt("x", 0), 2);
}

TEST(FlagParserTest, EmptyValueAllowed) {
  FlagParser flags = Parse({"--name="});
  EXPECT_EQ(flags.GetString("name", "zz"), "");
}

TEST(FlagParserTest, RepeatedFlagCollectsEveryValue) {
  FlagParser flags =
      Parse({"--dir=a", "--other=x", "--dir=b", "--dir=c"});
  EXPECT_EQ(flags.GetStringList("dir"),
            (std::vector<std::string>{"a", "b", "c"}));
  // The scalar accessor still sees the last value.
  EXPECT_EQ(flags.GetString("dir", ""), "c");
  EXPECT_TRUE(flags.GetStringList("missing").empty());
}

TEST(FlagParserTest, GetStringListConsumes) {
  FlagParser flags = Parse({"--dir=a", "--dir=b"});
  EXPECT_EQ(flags.UnconsumedFlags().size(), 1u);
  flags.GetStringList("dir");
  EXPECT_TRUE(flags.UnconsumedFlags().empty());
}

TEST(SplitCommaListTest, SplitsInOrder) {
  EXPECT_EQ(SplitCommaList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCommaList("127.0.0.1:7071"),
            (std::vector<std::string>{"127.0.0.1:7071"}));
}

TEST(SplitCommaListTest, DropsEmptySegmentsAndTrailingCommas) {
  EXPECT_EQ(SplitCommaList("a,,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCommaList("a,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCommaList(",a"), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_TRUE(SplitCommaList(",,,").empty());
}

}  // namespace
}  // namespace felip
