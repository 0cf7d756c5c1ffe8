#include "core/cli_args.h"

#include <gtest/gtest.h>

#include "core/parallel.h"

namespace epm {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "epmctl");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SubcommandAndFlags) {
  const auto args = parse({"simulate", "--servers", "120", "--policy", "joint"});
  EXPECT_EQ(args.command(), "simulate");
  EXPECT_EQ(args.get("servers", std::int64_t{0}), 120);
  EXPECT_EQ(args.get("policy", std::string{}), "joint");
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const auto args = parse({"simulate"});
  EXPECT_EQ(args.get("days", std::int64_t{7}), 7);
  EXPECT_DOUBLE_EQ(args.get("peak-rps", 3000.0), 3000.0);
  EXPECT_EQ(args.get("csv", std::string{"out.csv"}), "out.csv");
  EXPECT_EQ(args.seed(18), 18u);
  EXPECT_EQ(args.count("servers", 120), 120u);
  EXPECT_DOUBLE_EQ(args.positive("rate", 2.5), 2.5);
  EXPECT_TRUE(args.unused().empty());
}

TEST(CliArgs, BooleanSwitches) {
  const auto args = parse({"run", "--verbose", "--seed", "9", "--quiet"});
  EXPECT_TRUE(args.get_switch("verbose"));
  EXPECT_TRUE(args.get_switch("quiet"));
  EXPECT_FALSE(args.get_switch("missing"));
  EXPECT_EQ(args.get("seed", std::int64_t{0}), 9);
}

TEST(CliArgs, NoSubcommand) {
  const auto args = parse({"--help"});
  EXPECT_TRUE(args.command().empty());
  EXPECT_TRUE(args.get_switch("help"));
}

TEST(CliArgs, EmptyInvocation) {
  const auto args = parse({});
  EXPECT_TRUE(args.command().empty());
  EXPECT_TRUE(args.unused().empty());
}

TEST(CliArgs, NumericParsing) {
  const auto args = parse({"x", "--rate", "12.5", "--count", "3"});
  EXPECT_DOUBLE_EQ(args.get("rate", 0.0), 12.5);
  EXPECT_EQ(args.get("count", std::int64_t{0}), 3);
  // Integer flag read as double works; garbage does not.
  EXPECT_DOUBLE_EQ(args.get("count", 0.0), 3.0);
}

TEST(CliArgs, MalformedInputs) {
  // Every rejection is a UsageError, which a CLI reports as exit 2.
  EXPECT_THROW(parse({"run", "stray-positional"}), UsageError);
  EXPECT_THROW(parse({"run", "--"}), UsageError);
  const auto args = parse({"x", "--rate", "abc", "--count", "7x", "--flagval", "7"});
  EXPECT_THROW(args.get("rate", 0.0), UsageError);
  EXPECT_THROW(args.get("count", std::int64_t{0}), UsageError);
  EXPECT_THROW(args.get_switch("flagval"), UsageError);
  // Numbers must be finite: an infinite horizon never ends, and a NaN
  // passes every range check written as a comparison.
  for (const char* bad : {"inf", "-inf", "nan"}) {
    EXPECT_THROW(parse({"x", "--rate", bad}).get("rate", 0.0), UsageError)
        << bad;
  }
}

TEST(CliArgs, ThreadsMustLieWithinTheBound) {
  // Only threads() is called: nothing here builds a pool.
  EXPECT_EQ(parse({"x", "--threads", "3"}).threads(), 3u);
  EXPECT_EQ(parse({"x", "--threads", "1024"}).threads(), kMaxThreads);
  for (const char* bad : {"1025", "100000", "0", "-3", "abc"}) {
    EXPECT_THROW(parse({"x", "--threads", bad}).threads(), UsageError) << bad;
  }
}

TEST(CliArgs, CountsAndPositiveRealsAreRangeChecked) {
  const auto args = parse({"x", "--servers", "3", "--rate", "0.5"});
  EXPECT_EQ(args.count("servers", 1), 3u);
  EXPECT_DOUBLE_EQ(args.positive("rate", 1.0), 0.5);
  // A count below 1 would wrap to 2^64 - 1 as a size; a real at or below 0
  // is no rate. Both throw the same one-line diagnostic.
  for (const char* bad : {"0", "-1"}) {
    try {
      parse({"x", "--servers", bad}).count("servers", 1);
      ADD_FAILURE() << bad;
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(), "--servers must be > 0") << bad;
    }
    try {
      parse({"x", "--rate", bad}).positive("rate", 1.0);
      ADD_FAILURE() << bad;
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(), "--rate must be > 0") << bad;
    }
  }
  // What does not parse is a UsageError too: a count is an integer and a
  // real is finite.
  for (const char* bad : {"abc", "inf", "2.5"}) {
    EXPECT_THROW(parse({"x", "--servers", bad}).count("servers", 1), UsageError)
        << bad;
  }
  for (const char* bad : {"abc", "inf", "-inf", "nan"}) {
    EXPECT_THROW(parse({"x", "--rate", bad}).positive("rate", 1.0), UsageError)
        << bad;
  }
}

TEST(CliArgs, SeedKeepsTheBitsOfANegativeValue) {
  EXPECT_EQ(parse({"x", "--seed", "2009"}).seed(7), 2009u);
  EXPECT_EQ(parse({"x", "--seed", "-1"}).seed(7), ~std::uint64_t{0});
  EXPECT_THROW(parse({"x", "--seed", "abc"}).seed(7), UsageError);
}

TEST(CliArgs, UnusedFlagsReported) {
  const auto args = parse({"run", "--known", "1", "--typo", "2"});
  EXPECT_EQ(args.get("known", std::int64_t{0}), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

}  // namespace
}  // namespace epm
