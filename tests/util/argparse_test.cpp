#include "util/argparse.hpp"

#include <gtest/gtest.h>

namespace psched::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto p = parse({"--weeks", "6"});
  EXPECT_TRUE(p.has("weeks"));
  EXPECT_EQ(p.get_int("weeks", 0), 6);
}

TEST(ArgParser, EqualsValue) {
  const auto p = parse({"--seed=99"});
  EXPECT_EQ(p.get_int("seed", 0), 99);
}

TEST(ArgParser, BooleanFlag) {
  const auto p = parse({"--verbose", "--csv", "out.csv"});
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_EQ(p.get("csv", ""), "out.csv");
}

TEST(ArgParser, Fallbacks) {
  const auto p = parse({});
  EXPECT_FALSE(p.has("missing"));
  EXPECT_EQ(p.get("missing", "d"), "d");
  EXPECT_EQ(p.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(p.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(p.get_bool("missing", true));
}

TEST(ArgParser, DoubleParsing) {
  const auto p = parse({"--load", "0.75"});
  EXPECT_DOUBLE_EQ(p.get_double("load", 0.0), 0.75);
}

TEST(ArgParser, PositionalArguments) {
  const auto p = parse({"trace.swf", "--weeks", "2", "other"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "trace.swf");
  EXPECT_EQ(p.positional()[1], "other");
}

TEST(ArgParser, ParseIntIsStrict) {
  // The building block behind get_int: full-consume base-10 only. Anything
  // else is a usage error the CLI must reject, not silently truncate.
  std::int64_t value = 0;
  EXPECT_TRUE(ArgParser::parse_int("42", value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ArgParser::parse_int("-7", value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(ArgParser::parse_int("", value));
  EXPECT_FALSE(ArgParser::parse_int("12x", value)) << "trailing garbage";
  EXPECT_FALSE(ArgParser::parse_int("4.5", value)) << "not an integer";
  EXPECT_FALSE(ArgParser::parse_int("0x10", value)) << "no hex";
  EXPECT_FALSE(ArgParser::parse_int(" 3", value)) << "no leading space";
  EXPECT_FALSE(ArgParser::parse_int("99999999999999999999", value)) << "overflow";
}

TEST(ArgParser, IntBelowLowerBoundIsAUsageError) {
  const auto p = parse({"--period", "0", "--threads", "0"});
  EXPECT_EQ(p.get_int("threads", 1, 0), 0) << "the bound itself is accepted";
  EXPECT_EQ(p.get_int("missing", 5, 1), 5) << "fallbacks are not checked";
  EXPECT_EXIT((void)p.get_int("period", 1, 1), testing::ExitedWithCode(1),
              "error: --period wants an integer >= 1, got '0'");
}

TEST(ArgParser, ParseDoubleIsStrictAndFinite) {
  double value = 0.0;
  EXPECT_TRUE(ArgParser::parse_double("0.75", value));
  EXPECT_DOUBLE_EQ(value, 0.75);
  EXPECT_TRUE(ArgParser::parse_double("-2e3", value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_FALSE(ArgParser::parse_double("", value));
  EXPECT_FALSE(ArgParser::parse_double("1.5days", value)) << "trailing garbage";
  EXPECT_FALSE(ArgParser::parse_double("nan", value)) << "NaN rejected";
  EXPECT_FALSE(ArgParser::parse_double("inf", value)) << "Inf rejected";
  EXPECT_FALSE(ArgParser::parse_double("-inf", value)) << "-Inf rejected";
  EXPECT_FALSE(ArgParser::parse_double("1e999", value)) << "overflow to Inf";
}

TEST(ArgParser, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a"));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a"));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a"));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
}

}  // namespace
}  // namespace psched::util
