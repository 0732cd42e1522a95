#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/args.hpp"

namespace fedco::util {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser{static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParser, KeyValueForms) {
  const auto args = parse({"--alpha", "3.5", "--name=fedco", "--flag"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_EQ(args.get("name"), "fedco");
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag"), "");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(ArgParser, NumericParsingAndErrors) {
  const auto args = parse({"--n", "42", "--bad", "4x2", "--f", "1e-3"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 1e-3);
  EXPECT_THROW((void)args.get_int("bad", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("bad", 0.0), std::invalid_argument);
}

/// The message of the std::invalid_argument `call` throws ("" if none).
template <typename Call>
std::string error_of(Call call) {
  try {
    (void)call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ArgParser, ValueErrorsNameTheFlag) {
  const auto args = parse({"--abc", "abc", "--huge", "99999999999999999999",
                           "--tiny", "1e999", "--frac", "1e3"});
  EXPECT_EQ(error_of([&] { return args.get_int("abc", 0); }),
            "--abc: expects an integer, got 'abc'");
  EXPECT_EQ(error_of([&] { return args.get_double("abc", 0.0); }),
            "--abc: expects a number, got 'abc'");
  EXPECT_EQ(error_of([&] { return args.get_int("huge", 0); }),
            "--huge: expects an integer, got '99999999999999999999' "
            "(out of range)");
  EXPECT_EQ(error_of([&] { return args.get_double("tiny", 0.0); }),
            "--tiny: expects a number, got '1e999' (out of range)");
  EXPECT_EQ(error_of([&] { return args.get_int("frac", 0); }),
            "--frac: expects an integer, got '1e3'");
}

TEST(ArgParser, PresentNumericFlagWithoutValueThrows) {
  const auto args = parse({"--n", "--f="});
  EXPECT_EQ(error_of([&] { return args.get_int("n", 7); }),
            "--n: needs a value");
  EXPECT_EQ(error_of([&] { return args.get_double("f", 0.5); }),
            "--f: needs a value");
}

TEST(ParseValue, WholeStringOrThrow) {
  EXPECT_EQ(parse_int("-12"), -12);
  EXPECT_DOUBLE_EQ(parse_double("2.5e-3"), 2.5e-3);
  for (const char* bad : {"", "4x2", "x", "1.5"}) {
    EXPECT_THROW((void)parse_int(bad), std::invalid_argument) << bad;
  }
  for (const char* bad : {"", "4x2", "x", "1e999"}) {
    EXPECT_THROW((void)parse_double(bad), std::invalid_argument) << bad;
  }
}

TEST(ParseValue, SubnormalsAreNumbersOverflowIsNot) {
  // The same finite doubles the JSON config loader accepts, in every
  // spelling strtod takes; only overflow and underflow to zero are errors.
  EXPECT_EQ(parse_double("1e-310"), 1e-310);
  EXPECT_EQ(parse_double("4.9e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_double("+5"), 5.0);
  EXPECT_EQ(parse_double("-1e-310"), -1e-310);
  for (const char* bad : {"1e999", "-1e999", "1e-400"}) {
    EXPECT_EQ(error_of([&] { return parse_double(bad); }),
              std::string{"expects a number, got '"} + bad +
                  "' (out of range)");
  }
}

TEST(ParseValue, Booleans) {
  for (const char* yes : {"", "1", "true", "yes", "on"}) {
    EXPECT_TRUE(parse_bool(yes)) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    EXPECT_FALSE(parse_bool(no)) << no;
  }
  EXPECT_EQ(error_of([] { return parse_bool("maybe"); }),
            "expects a boolean, got 'maybe'");
}

TEST(ArgParser, ValueLookaheadAndStrayValues) {
  EXPECT_EQ(parse({"--k", "3"}).get_int("k", 0), 3);
  // A value-looking token no option takes is an error, not a silently
  // ignored positional argument.
  EXPECT_THROW(parse({"input.csv", "--k", "3"}), std::invalid_argument);
  EXPECT_THROW(parse({"--k", "3", "output.csv"}), std::invalid_argument);
}

TEST(ArgParser, NegativeNumberAsValue) {
  // "-5" does not start with "--", so it is consumed as the value.
  const auto args = parse({"--offset", "-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(ArgParser, MalformedOptionsThrow) {
  EXPECT_THROW(parse({"---x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(ArgParser, UnusedReportsUntouchedOptions) {
  const auto args = parse({"--used", "1", "--typo", "2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParser, FlagFollowedByOptionHasEmptyValue) {
  const auto args = parse({"--verbose", "--level", "3"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose"), "");
  EXPECT_EQ(args.get_int("level", 0), 3);
}

}  // namespace
}  // namespace fedco::util
