// ColumnSeries / SealedBlock (block.h): the seal pipeline must answer band
// queries bit-identically to a MultiScaleSeries fed the same samples (also
// on the levels derived from the blocks at query time and through the
// single-bin fold), reject timestamps and bounds it cannot bin, keep exact
// raw history through compression, hold no more memory than its data
// needs, and surface spikes through the streaming detector. Suite name
// "SeriesBlock" keeps these under the TSan/ASan CI regexes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"
#include "telemetry/block.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {
namespace {

/// Bit-pattern equality, so NaN and signed zeros compare exactly.
bool aggregates_identical(const Aggregate& a, const Aggregate& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.count == b.count && bits(a.sum) == bits(b.sum) &&
         bits(a.min) == bits(b.min) && bits(a.max) == bits(b.max);
}

bool means_identical(const MultiScaleSeries::BinnedMeans& a,
                     const MultiScaleSeries::BinnedMeans& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (a.times_s != b.times_s || a.means.size() != b.means.size()) return false;
  for (std::size_t i = 0; i < a.means.size(); ++i) {
    if (bits(a.means[i]) != bits(b.means[i])) return false;
  }
  return true;
}

TelemetryTuning tiny_blocks(std::size_t capacity) {
  TelemetryTuning tuning;
  tuning.block_capacity = capacity;
  return tuning;
}

TEST(SeriesBlock, SealsAtCapacityAndFlushSealsTheRemainder) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  for (int i = 0; i < 21; ++i) {
    series.append(15.0 * i, static_cast<double>(i));
  }
  EXPECT_EQ(series.blocks().size(), 2u);  // 8 + 8 sealed
  EXPECT_EQ(series.open_samples(), 5u);
  EXPECT_EQ(series.total_samples(), 21u);
  series.flush();
  EXPECT_EQ(series.blocks().size(), 3u);
  EXPECT_EQ(series.open_samples(), 0u);
  series.flush();  // idempotent on empty open block
  EXPECT_EQ(series.blocks().size(), 3u);
}

TEST(SeriesBlock, SealedBlockDecodesBitExactly) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(16));
  std::vector<double> times;
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 16; ++i) {
    times.push_back(15.0 * i + 3.0);
    values.push_back(std::floor(rng.uniform(0.0, 1000.0)));
    series.append(times.back(), values.back());
  }
  ASSERT_EQ(series.blocks().size(), 1u);
  const SealedBlock& block = series.blocks().front();
  EXPECT_EQ(block.samples, 16u);
  EXPECT_EQ(block.first_time_s, times.front());
  EXPECT_EQ(block.last_time_s, times.back());
  std::vector<double> got_times;
  std::vector<double> got_values;
  block.decode(got_times, got_values);
  EXPECT_EQ(got_times, times);
  EXPECT_EQ(got_values, values);
  EXPECT_LT(block.payload_bytes(), 16u * 16u);  // compressed below raw
}

TEST(SeriesBlock, RejectsTimeRegressions) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  series.append(100.0, 1.0);
  EXPECT_THROW(series.append(99.0, 1.0), std::invalid_argument);
  EXPECT_THROW(series.append(-1.0, 1.0), std::invalid_argument);
  series.append(100.0, 2.0);  // equal timestamps are allowed
  EXPECT_EQ(series.total_samples(), 2u);
}

TEST(SeriesBlock, RejectsNonFiniteAndOutOfRangeTimestamps) {
  // +inf passes both `>= 0` and the monotonicity check, and 1e300's bin
  // index does not fit in int64; either one, once stored, made the next band
  // query overflow the retained-window arithmetic. Appends and band-query
  // bounds must be finite and binnable, a rejected append leaves the series
  // as it was, and a NaN bound is named as such, not as an inverted range.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(4));
  for (int i = 0; i < 6; ++i) series.append(15.0 * i, static_cast<double>(i));
  for (const double t : {inf, nan, 1e300, -inf, -1.0}) {
    EXPECT_THROW(series.append(t, 1.0), std::invalid_argument) << t;
  }
  EXPECT_EQ(series.total_samples(), 6u);
  EXPECT_EQ(series.open_samples(), 2u);
  EXPECT_EQ(series.range(0.0, 90.0).count, 6u);

  for (const double t : {inf, -inf, nan, 1e300, -1e300}) {
    EXPECT_THROW(series.range(t, 90.0), std::invalid_argument) << t;
    EXPECT_THROW(series.range(0.0, t), std::invalid_argument) << t;
    EXPECT_THROW(series.range_at_level(4, t, 90.0), std::invalid_argument) << t;
    EXPECT_THROW(series.means_at_level(1, 0.0, t), std::invalid_argument) << t;
  }
  try {
    series.range(0.0, nan);
    ADD_FAILURE() << "NaN bound accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("inverted"), std::string::npos) << e.what();
  }
  // An empty series checks its bounds too.
  ColumnSeries empty(MultiScaleConfig{}, tiny_blocks(4));
  EXPECT_THROW(empty.range(nan, 0.0), std::invalid_argument);

  // The largest binnable time (finest level 15 s: 15 * 2^62 s) is accepted,
  // and queries reaching it stay inside int64 (UBSan runs this suite).
  const double limit = 15.0 * 0x1p62;
  ColumnSeries edge(MultiScaleConfig{}, tiny_blocks(4));
  EXPECT_THROW(edge.append(std::nextafter(limit, inf), 1.0), std::invalid_argument);
  edge.append(limit, 5.0);
  EXPECT_THROW(edge.range(std::nextafter(-limit, -inf), limit), std::invalid_argument);
  for (int flushed = 0; flushed < 2; ++flushed) {
    EXPECT_EQ(edge.range(-limit, limit).count, 1u) << "flushed " << flushed;
    EXPECT_EQ(edge.means_at_level(4, 0.0, limit).means.size(), 1u);
    EXPECT_EQ(edge.range_at_level(0, 0.0, limit).count, 0u);  // [t0, t1) ends before it
    edge.flush();
  }
}

TEST(SeriesBlock, OpenTailInOneBinFoldsLikeTheCascade) {
  // An open block whose first and last samples share a bin of the answering
  // level folds straight into that bin. Pin the edges against the legacy
  // cascade, bit for bit: the bin's row already holds sealed samples from
  // the same bin (the fold must continue it, not restart), tails straddling
  // a daily and an hourly edge (the shortcut must not fire), windows that
  // start or end inside the bin or before t = 0, and NaN / ±0.0 in the tail,
  // whose min/max depend on fold order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDay = 86400.0;
  struct Tail {
    const char* name;
    double start_s;  ///< first sample; 15 s cadence
    int samples;
  };
  // 8-sample blocks: each series seals one block and keeps the rest open.
  const Tail tails[] = {{"inside one day", 0.0, 14},
                        {"straddles a day", kDay - 8 * 15.0 - 45.0, 14},
                        {"straddles an hour", 3600.0 - 8 * 15.0 - 45.0, 14},
                        {"one open sample", 2 * kDay + 600.0, 9}};
  const double specials[] = {nan, -0.0, 0.0, 3.5, -0.0, nan, 0.0, -2.25};
  for (const Tail& tail : tails) {
    ColumnSeries columnar(MultiScaleConfig{}, tiny_blocks(8));
    MultiScaleSeries legacy{MultiScaleConfig{}};
    Rng rng(17);
    for (int i = 0; i < tail.samples; ++i) {
      const double t = tail.start_s + 15.0 * i;
      // Sealed samples are plain; the open tail is NaN and signed zeros.
      const double v = i >= 8 ? specials[i - 8] : rng.uniform(-10.0, 10.0);
      columnar.append(t, v);
      legacy.append(t, v);
    }
    ASSERT_EQ(columnar.blocks().size(), 1u) << tail.name;
    ASSERT_GT(columnar.open_samples(), 0u) << tail.name;

    const double a = tail.start_s;
    const double z = tail.start_s + 15.0 * tail.samples;
    const double windows[][2] = {{a - 3600.0, z},      {-kDay, 3 * kDay},
                                 {a + 7.0, z},         {a, a + 8 * 15.0 + 20.0},
                                 {a + 100.0, z - 10.0}, {a + 8 * 15.0, z + kDay},
                                 {z - 1.0, z + 1.0},   {kDay - 30.0, kDay + 30.0},
                                 {3590.0, 3610.0},     {-3600.0, 0.0}};
    const auto expect_identical = [&](const char* phase) {
      for (const auto& w : windows) {
        EXPECT_TRUE(aggregates_identical(columnar.range(w[0], w[1]),
                                         legacy.range(w[0], w[1])))
            << tail.name << ", " << phase << ": range [" << w[0] << ", " << w[1] << ")";
        for (std::size_t level = 0; level < legacy.level_count(); ++level) {
          EXPECT_TRUE(
              aggregates_identical(columnar.range_at_level(level, w[0], w[1]),
                                   legacy.range_at_level(level, w[0], w[1])))
              << tail.name << ", " << phase << ": level " << level << " [" << w[0]
              << ", " << w[1] << ")";
          EXPECT_TRUE(means_identical(columnar.means_at_level(level, w[0], w[1]),
                                      legacy.means_at_level(level, w[0], w[1])))
              << tail.name << ", " << phase << ": means, level " << level << " ["
              << w[0] << ", " << w[1] << ")";
        }
      }
    };
    expect_identical("open tail");
    columnar.flush();
    expect_identical("flushed");
  }
}

TEST(SeriesBlock, BandQueriesMatchMultiScaleSeriesBitForBit) {
  // Three days of 15 s samples through a 7-sample block (many seals + a
  // partial open block) must answer every band query exactly as the legacy
  // cascade — past the 1 min level's one-day retention, so the derived
  // 15 s and 1 min levels fold only the blocks inside their windows — and
  // keep answering identically once the open block is sealed. Two gaps,
  // one inside each derived level's window, leave empty bins and blocks
  // that straddle them. The default 1,024-sample block spans hours, so
  // its seals and query-time folds cross long runs of one bin.
  for (const std::size_t capacity : {std::size_t{7}, std::size_t{1024}}) {
    MultiScaleConfig config;
    ColumnSeries columnar(config, tiny_blocks(capacity));
    MultiScaleSeries legacy(config);
    Rng rng(11);
    double value = 40.0;
    constexpr double kDay = 86400.0;
    const auto in_gap = [&](double t) {
      return (t >= 2 * kDay + 3600.0 && t < 2 * kDay + 3 * 3600.0) ||
             (t >= 3 * kDay - 7200.0 && t < 3 * kDay - 5400.0);
    };
    const auto samples = static_cast<std::size_t>(3.0 * kDay / 15.0);
    for (std::size_t i = 0; i < samples; ++i) {
      const double t = 15.0 * static_cast<double>(i);
      if (in_gap(t)) continue;
      value += rng.uniform(-0.75, 0.75);
      columnar.append(t, value);
      legacy.append(t, value);
    }
    ASSERT_EQ(columnar.level_count(), legacy.level_count());
    ASSERT_GT(columnar.open_samples(), 0u);

    const double windows[][2] = {{0.0, 3 * kDay},
                                 {3 * kDay - 3600.0, 3 * kDay},
                                 {1000.0, 2000.0},
                                 {0.0, 15.0},
                                 {80000.0, 90000.0},
                                 {86399.0, 86400.0},
                                 {20000.0, 20000.0},
                                 {2 * kDay - 7.0, 3 * kDay + 7.0},
                                 {3 * kDay - 14400.0 - 15.0, 3 * kDay - 14400.0 + 60.0},
                                 {2 * kDay + 123.0, 2 * kDay + 4567.0},
                                 {3 * kDay - 20.0, 4 * kDay},
                                 {2 * kDay + 3000.0, 2 * kDay + 4 * 3600.0},
                                 {2 * kDay + 4000.0, 2 * kDay + 5000.0},
                                 {3 * kDay - 7300.0, 3 * kDay - 5300.0}};
    const auto expect_identical = [&](const char* phase) {
      const std::string where = std::to_string(capacity) + "-sample blocks, " + phase;
      for (const auto& w : windows) {
        EXPECT_TRUE(aggregates_identical(columnar.range(w[0], w[1]),
                                         legacy.range(w[0], w[1])))
            << where << " range [" << w[0] << ", " << w[1] << ")";
        for (std::size_t level = 0; level < legacy.level_count(); ++level) {
          EXPECT_TRUE(
              aggregates_identical(columnar.range_at_level(level, w[0], w[1]),
                                   legacy.range_at_level(level, w[0], w[1])))
              << where << " level " << level << " [" << w[0] << ", " << w[1] << ")";
          const auto a = columnar.means_at_level(level, w[0], w[1]);
          const auto b = legacy.means_at_level(level, w[0], w[1]);
          EXPECT_EQ(a.times_s, b.times_s) << where << " level " << level;
          EXPECT_EQ(a.means, b.means) << where << " level " << level;
        }
      }
    };
    expect_identical("open tail");
    columnar.flush();
    ASSERT_EQ(columnar.open_samples(), 0u);
    expect_identical("flushed");
  }
}

TEST(SeriesBlock, RawRangeIsExactAcrossSealedAndOpenSamples) {
  // Sealed blocks are decoded and folded in time order, so raw_range equals
  // a strict scan bit-for-bit, sum included, for arbitrary real values.
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(16));
  Rng rng(21);
  std::vector<double> times;
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {  // 6 sealed blocks + 4 open samples
    times.push_back(15.0 * i);
    values.push_back(rng.uniform(-1000.0, 1000.0));
    series.append(times.back(), values.back());
  }
  const double queries[][2] = {{0.0, 1500.0},   {0.0, 10.0},     {100.0, 900.0},
                               {1400.0, 1500.0}, {237.0, 1201.0}, {1485.0, 1e9},
                               {20.0, 29.0},     {2000.0, 3000.0}, {60.0, 60.0}};
  for (const auto& q : queries) {
    Aggregate expect;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] >= q[0] && times[i] < q[1]) expect.add(values[i]);
    }
    EXPECT_TRUE(aggregates_identical(series.raw_range(q[0], q[1]), expect))
        << "[" << q[0] << ", " << q[1] << ")";
  }
}

TEST(SeriesBlock, RawRangeAgreesSealedAndOpenOnNanAndSignedZeros) {
  // min/max of NaN and ±0 depend on fold order. The same eight samples must
  // answer identically whether they sit in one sealed block or in the open
  // block, and both must equal the strict left fold.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {5.0, nan, 1.0, 1.0, 1.0, 0.0, 9.0, 9.0},
      {1.0, -0.0, 0.0, 1.0, 0.0, 2.0, 3.0, 4.0},
      {-1.0, 0.0, -0.0, -1.0, -0.0, -2.0, -3.0, -4.0},
      {nan, -0.0, 0.0, nan, 0.0, -0.0, nan, 0.0}};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ColumnSeries sealed(MultiScaleConfig{}, tiny_blocks(8));
    ColumnSeries open(MultiScaleConfig{}, tiny_blocks(16));
    Aggregate strict;
    for (std::size_t i = 0; i < cases[c].size(); ++i) {
      sealed.append(15.0 * static_cast<double>(i), cases[c][i]);
      open.append(15.0 * static_cast<double>(i), cases[c][i]);
      strict.add(cases[c][i]);
    }
    ASSERT_EQ(sealed.blocks().size(), 1u);
    ASSERT_EQ(open.open_samples(), 8u);
    EXPECT_TRUE(aggregates_identical(sealed.raw_range(0.0, 1e9), strict))
        << "sealed, case " << c;
    EXPECT_TRUE(aggregates_identical(open.raw_range(0.0, 1e9), strict))
        << "open, case " << c;
  }
}

TEST(SeriesBlock, StreamingDetectorFlagsSpikeAfterWarmup) {
  TelemetryTuning tuning = tiny_blocks(32);
  ColumnSeries series(MultiScaleConfig{}, tuning);
  // 64 calm samples, then one huge spike, then calm again.
  Rng rng(3);
  const double spike_t = 15.0 * 64.0;
  for (int i = 0; i < 96; ++i) {
    const double t = 15.0 * i;
    const double v = i == 64 ? 5000.0 : 50.0 + rng.uniform(-1.0, 1.0);
    series.append(t, v);
  }
  series.flush();
  const auto& events = series.anomalies();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().time_s, spike_t);
  EXPECT_EQ(events.front().value, 5000.0);
  EXPECT_GT(events.front().zscore, 6.0);
}

TEST(SeriesBlock, WarmupSamplesNeverAlarm) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(8));
  // A violent step inside the 32-sample warmup must stay silent — the batch
  // detector has the same blind spot.
  for (int i = 0; i < 30; ++i) {
    series.append(15.0 * i, i == 10 ? 1e6 : 1.0);
  }
  series.flush();
  EXPECT_TRUE(series.anomalies().empty());
}

TEST(SeriesBlock, MemoryAccountingShrinksBelowRaw) {
  ColumnSeries series(MultiScaleConfig{}, tiny_blocks(1024));
  for (int i = 0; i < 4096; ++i) {
    series.append(15.0 * i, 100.0 + (i % 3));
  }
  series.flush();
  EXPECT_EQ(series.raw_sample_bytes(), 4096u * 16u);
  EXPECT_LT(series.compressed_payload_bytes(), series.raw_sample_bytes() / 8);
}

TEST(SeriesBlock, MemoryFollowsTheData) {
  // Default config and block size. One open sample must not pay for a
  // 1,024-sample block up front; a flushed 200-sample series holds its
  // compressed chain and the coarse stored rows, not the open columns or
  // the derived 15 s / 1 min rows.
  ColumnSeries one(MultiScaleConfig{}, TelemetryTuning{});
  one.append(0.0, 42.0);
  EXPECT_LT(one.memory_bytes(), 1024u);

  ColumnSeries series(MultiScaleConfig{}, TelemetryTuning{});
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    series.append(15.0 * i, std::floor(rng.uniform(0.0, 100.0)));
  }
  series.flush();
  EXPECT_LE(series.memory_bytes(), 2048u);
  EXPECT_EQ(series.range(0.0, 3000.0).count, 200u);
}

}  // namespace
}  // namespace epm::telemetry
