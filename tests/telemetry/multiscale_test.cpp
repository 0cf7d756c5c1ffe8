#include "telemetry/multiscale.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"

namespace epm::telemetry {
namespace {

TEST(Aggregate, AddAndMerge) {
  Aggregate a;
  a.add(1.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  Aggregate b;
  b.add(5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
  EXPECT_EQ(a.count, 3u);
  Aggregate empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 3u);
  empty.merge(a);
  EXPECT_EQ(empty.count, 3u);
}

// The fold's oracle is written out by hand here, not computed with
// Aggregate itself: both stores share the kernel, so a change to its NaN or
// signed-zero handling would pass every store-vs-store comparison.

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

constexpr std::uint64_t kPlusZero = 0x0000000000000000;
constexpr std::uint64_t kMinusZero = 0x8000000000000000;
constexpr std::uint64_t kOne = 0x3ff0000000000000;
constexpr std::uint64_t kTwo = 0x4000000000000000;
constexpr std::uint64_t kThree = 0x4008000000000000;
constexpr std::uint64_t kPlusInf = 0x7ff0000000000000;
constexpr std::uint64_t kMinusInf = 0xfff0000000000000;
constexpr std::uint64_t kQuietNan = 0x7ff8000000000000;

TEST(Aggregate, FoldPinsNanSignedZeroAndInfinityBitPatterns) {
  struct Case {
    const char* name;
    std::vector<std::uint64_t> values;
    std::uint64_t min, max, sum;
  };
  // min/max keep the running value unless the new one compares strictly
  // less/greater, so a leading NaN sticks, a later NaN is skipped, and the
  // first of two zeros wins; the sum starts from +0.0.
  const Case cases[] = {
      {"NaN first", {kQuietNan, kOne, kTwo}, kQuietNan, kQuietNan, kQuietNan},
      {"NaN inside", {kOne, kQuietNan, kTwo}, kOne, kTwo, kQuietNan},
      {"-0 then +0", {kMinusZero, kPlusZero}, kMinusZero, kMinusZero, kPlusZero},
      {"+0 then -0", {kPlusZero, kMinusZero}, kPlusZero, kPlusZero, kPlusZero},
      {"-0 alone", {kMinusZero}, kMinusZero, kMinusZero, kPlusZero},
      {"+inf then 1", {kPlusInf, kOne}, kOne, kPlusInf, kPlusInf},
      {"-inf then 2", {kMinusInf, kTwo}, kMinusInf, kTwo, kMinusInf},
      {"1 then 2", {kOne, kTwo}, kOne, kTwo, kThree},
  };
  for (const Case& c : cases) {
    std::vector<double> column;
    for (const std::uint64_t b : c.values) column.push_back(from_bits(b));
    Aggregate one_by_one;
    for (const double v : column) one_by_one.add(v);
    Aggregate run;
    run.add_run(column.data(), column.size());
    for (const Aggregate& agg : {one_by_one, run}) {
      EXPECT_EQ(bits_of(agg.min), c.min) << c.name;
      EXPECT_EQ(bits_of(agg.max), c.max) << c.name;
      EXPECT_EQ(bits_of(agg.sum), c.sum) << c.name;
      EXPECT_EQ(agg.count, c.values.size()) << c.name;
    }
  }
  // +inf + -inf is a NaN whose sign the hardware picks; min and max are not.
  const double both[] = {from_bits(kPlusInf), from_bits(kMinusInf)};
  Aggregate agg;
  agg.add_run(both, 2);
  EXPECT_EQ(bits_of(agg.min), kMinusInf);
  EXPECT_EQ(bits_of(agg.max), kPlusInf);
  EXPECT_TRUE(std::isnan(agg.sum));
  EXPECT_EQ(agg.count, 2u);
}

TEST(Aggregate, RunFoldEqualsPerSampleAddAcrossRandomSplits) {
  // A run continues whatever the aggregate already holds, so folding a
  // column in arbitrary pieces must equal folding it whole and adding it
  // one sample at a time, bit for bit. One exception: once +inf + -inf has
  // made a second NaN, a sum of two different NaNs keeps whichever operand
  // the compiler put first (addition commutes), so NaN sums only have to
  // agree on being NaN.
  const auto same = [](const Aggregate& a, const Aggregate& b) {
    const bool sums = bits_of(a.sum) == bits_of(b.sum) ||
                      (std::isnan(a.sum) && std::isnan(b.sum));
    return bits_of(a.min) == bits_of(b.min) && bits_of(a.max) == bits_of(b.max) &&
           sums && a.count == b.count;
  };
  const double pool[] = {from_bits(kQuietNan), from_bits(kMinusZero), 0.0,
                         from_bits(kPlusInf), from_bits(kMinusInf), 1.0, -1.0};
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> column(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (double& v : column) {
      v = rng.bernoulli(0.3)
              ? pool[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(std::size(pool)) - 1))]
              : rng.uniform(-1e6, 1e6);
    }
    Aggregate expect;
    for (const double v : column) expect.add(v);
    Aggregate whole;
    whole.add_run(column.data(), column.size());
    ASSERT_TRUE(same(whole, expect)) << "whole column, trial " << trial;
    Aggregate got;
    std::size_t i = 0;
    while (i < column.size()) {
      const auto piece = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(column.size() - i)));
      got.add_run(column.data() + i, piece);
      i += piece;
    }
    ASSERT_TRUE(same(got, expect)) << "pieces, trial " << trial;
  }
}

MultiScaleConfig tiny_config() {
  // 10 s base with tight retention, 60 s and 600 s above it.
  MultiScaleConfig config;
  config.levels = {{10.0, 12}, {60.0, 1440}, {600.0, 0}};
  return config;
}

TEST(MultiScaleSeries, AggregatesMatchRawData) {
  MultiScaleSeries series(tiny_config());
  double sum = 0.0;
  for (int i = 0; i < 6; ++i) {
    series.append(i * 10.0, static_cast<double>(i));
    sum += i;
  }
  const auto agg = series.range_at_level(1, 0.0, 60.0);  // one 60 s bin
  EXPECT_EQ(agg.count, 6u);
  EXPECT_DOUBLE_EQ(agg.sum, sum);
  EXPECT_DOUBLE_EQ(agg.min, 0.0);
  EXPECT_DOUBLE_EQ(agg.max, 5.0);
}

TEST(MultiScaleSeries, EveryLevelSeesEverySample) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, 1.0);
  for (std::size_t level = 0; level < series.level_count(); ++level) {
    const auto agg = series.range_at_level(level, 0.0, 1000.0);
    EXPECT_GT(agg.count, 0u) << "level " << level;
  }
  // Coarse level retains everything.
  EXPECT_EQ(series.range_at_level(2, 0.0, 1000.0).count, 100u);
}

TEST(MultiScaleSeries, FineLevelEvicts) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, 1.0);
  EXPECT_LE(series.level_bins(0), 12u);  // retention bound
  // Early window no longer served by level 0...
  const auto early_fine = series.range_at_level(0, 0.0, 100.0);
  EXPECT_EQ(early_fine.count, 0u);
  // ...but range() transparently falls back to a retained level. The
  // answer is bin-aligned: [0, 100) straddles 60 s bins 0 and 1, so both
  // whole bins (12 samples) are included.
  const auto early = series.range(0.0, 100.0);
  EXPECT_EQ(early.count, 12u);
}

TEST(MultiScaleSeries, RangePrefersFinestRetainedLevel) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100; ++i) series.append(i * 10.0, static_cast<double>(i % 7));
  // Recent window: answered from the fine level -> exact.
  const auto recent = series.range(900.0, 990.0);
  EXPECT_EQ(recent.count, 9u);
}

TEST(MultiScaleSeries, PartialBinQueriesAreBinAligned) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 12; ++i) series.append(i * 10.0, 1.0);
  // [5, 15) clips into bins 0 and 1 -> both included whole.
  const auto agg = series.range_at_level(0, 5.0, 15.0);
  EXPECT_EQ(agg.count, 2u);
}

TEST(MultiScaleSeries, SparseDataPadsEmptyBins) {
  MultiScaleSeries series(tiny_config());
  series.append(0.0, 1.0);
  series.append(50.0, 2.0);  // skips 4 bins
  const auto agg = series.range_at_level(0, 0.0, 60.0);
  EXPECT_EQ(agg.count, 2u);
  const auto means = series.means_at_level(0, 0.0, 60.0);
  EXPECT_EQ(means.means.size(), 2u);  // empty bins skipped
  EXPECT_DOUBLE_EQ(means.times_s[1], 50.0);
}

TEST(MultiScaleSeries, MeansAtLevel) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 12; ++i) {
    series.append(i * 10.0, i < 6 ? 10.0 : 20.0);
  }
  const auto means = series.means_at_level(1, 0.0, 120.0);
  ASSERT_EQ(means.means.size(), 2u);
  EXPECT_DOUBLE_EQ(means.means[0], 10.0);
  EXPECT_DOUBLE_EQ(means.means[1], 20.0);
}

TEST(MultiScaleSeries, MemoryBounded) {
  MultiScaleSeries series(tiny_config());
  for (int i = 0; i < 100000; ++i) series.append(i * 10.0, 1.0);
  // Level 0 capped at 12 bins; level 1/2 unlimited but coarse.
  const std::size_t raw_bytes = 100000 * sizeof(double) * 2;
  EXPECT_LT(series.memory_bytes(), raw_bytes / 10);
  EXPECT_EQ(series.total_samples(), 100000u);
}

TEST(MultiScaleSeries, RejectsTimeTravelAndBadConfig) {
  MultiScaleSeries series(tiny_config());
  series.append(100.0, 1.0);
  EXPECT_THROW(series.append(50.0, 1.0), std::invalid_argument);
  MultiScaleConfig bad;
  bad.levels = {{60.0, 0}, {90.0, 0}};  // not an integer multiple
  EXPECT_THROW(MultiScaleSeries{bad}, std::invalid_argument);
  bad.levels = {};
  EXPECT_THROW(MultiScaleSeries{bad}, std::invalid_argument);
  EXPECT_THROW(series.range_at_level(99, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(series.range(10.0, 5.0), std::invalid_argument);
}

TEST(MultiScaleSeries, RejectsNonFiniteTimestamps) {
  // +inf and NaN, and finite times whose finest-level bin index does not fit
  // in int64, are rejected at append and as query bounds; a NaN bound is
  // named as such, not as an inverted range.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MultiScaleSeries series(tiny_config());
  series.append(100.0, 1.0);
  for (const double t : {inf, nan, 1e300, 10.0 * 0x1p63}) {
    EXPECT_THROW(series.append(t, 1.0), std::invalid_argument) << t;
  }
  EXPECT_EQ(series.total_samples(), 1u);
  EXPECT_EQ(series.range(0.0, 200.0).count, 1u);
  for (const double t : {inf, -inf, nan, 1e300, -1e300}) {
    EXPECT_THROW(series.range(t, 200.0), std::invalid_argument) << t;
    EXPECT_THROW(series.range_at_level(2, 0.0, t), std::invalid_argument) << t;
    EXPECT_THROW(series.means_at_level(1, t, 200.0), std::invalid_argument) << t;
  }
  try {
    series.range(nan, 200.0);
    ADD_FAILURE() << "NaN bound accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("inverted"), std::string::npos) << e.what();
  }
  // The largest binnable time (default 15 s finest level: 15 * 2^62 s) is
  // accepted, and a query reaching it is answered from the daily level.
  const double limit = 15.0 * 0x1p62;
  MultiScaleSeries edge;
  EXPECT_THROW(edge.append(std::nextafter(limit, inf), 2.0), std::invalid_argument);
  edge.append(limit, 2.0);
  EXPECT_EQ(edge.range(-limit, limit).count, 1u);
}

TEST(MultiScaleSeries, BinIndexIsAnExactFloor) {
  // bin_index truncates and steps down instead of calling floor(); it must
  // agree with floor(t / res) everywhere max_binnable_time_s admits: at
  // exact multiples of the resolution and their neighbours, below zero, at
  // both zeros and at both ends of the range.
  const double inf = std::numeric_limits<double>::infinity();
  const std::int64_t multiples[] = {0,          1,          -1,         2,
                                    -2,         7,          -7,         960,
                                    -1441,      86399,      123456789,  -987654321,
                                    1ll << 40,  -(1ll << 40), (1ll << 52) + 1,
                                    -(1ll << 53) - 1,       (1ll << 62) - 1,
                                    -(1ll << 62)};
  Rng rng(5);
  for (const double res : {0.1, 1.0, 15.0, 60.0, 900.0, 3600.0, 86400.0}) {
    const LevelBins lvl{{res, 0}, 0, {}};
    const double limit = max_binnable_time_s(lvl);
    std::vector<double> times = {0.0, -0.0, limit, -limit, std::nextafter(limit, 0.0),
                                 std::nextafter(-limit, 0.0)};
    for (const std::int64_t k : multiples) {
      const double t = static_cast<double>(k) * res;
      times.insert(times.end(), {t, std::nextafter(t, inf), std::nextafter(t, -inf)});
    }
    for (int i = 0; i < 2000; ++i) {
      // Log-uniform magnitudes over the whole range, both signs.
      const double t =
          std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform_int(-20, 62))) *
          res;
      times.push_back(rng.bernoulli(0.5) ? t : -t);
    }
    for (const double t : times) {
      if (std::abs(t) > limit) continue;
      EXPECT_EQ(lvl.bin_index(t), static_cast<std::int64_t>(std::floor(t / res)))
          << "t " << t << ", res " << res;
    }
  }
}

TEST(MultiScaleSeries, DefaultConfigPaperScales) {
  // 15 s -> 1 min -> 15 min -> 1 h -> 1 d ladder accepts a day of samples.
  MultiScaleSeries series;
  Rng rng(1);
  for (int i = 0; i < 5760; ++i) {  // one day at 15 s
    series.append(i * 15.0, 50.0 + rng.normal(0.0, 5.0));
  }
  const auto day = series.range(0.0, 86400.0);
  EXPECT_EQ(day.count, 5760u);
  EXPECT_NEAR(day.mean(), 50.0, 0.5);
}

}  // namespace
}  // namespace epm::telemetry
