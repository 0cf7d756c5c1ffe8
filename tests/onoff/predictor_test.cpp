#include "onoff/predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/units.h"

namespace epm::onoff {
namespace {

TEST(SeasonalPredictor, LearnsDailySinusoid) {
  SeasonalPredictorConfig config;
  config.period_s = kSecondsPerDay;
  config.bucket_s = 3600.0;
  SeasonalPredictor p(config);
  auto signal = [](double t) {
    return 100.0 + 50.0 * std::sin(2.0 * std::numbers::pi * t / kSecondsPerDay);
  };
  // Train on 5 days of hourly samples.
  for (double t = 0.0; t < days(5.0); t += 3600.0) p.observe(t, signal(t));
  // Predictions for day 6 should track the signal closely.
  double max_err = 0.0;
  for (double t = days(5.0); t < days(6.0); t += 3600.0) {
    max_err = std::max(max_err, std::abs(p.predict(t) - signal(t)));
  }
  EXPECT_LT(max_err, 10.0);
}

TEST(SeasonalPredictor, WeeklyProfileBorrowsYesterdayWhenCold) {
  // Weekly profile, only Monday observed: Tuesday-at-14h should borrow
  // Monday-at-14h (daily fallback), not the global mean.
  SeasonalPredictor p;  // weekly period, hourly buckets, daily fallback
  for (double t = 0.0; t < days(1.0); t += 3600.0) {
    const double hour = t / 3600.0;
    p.observe(t, hour == 14.0 ? 500.0 : 100.0);
  }
  EXPECT_NEAR(p.predict(days(1.0) + hours(14.0)), 500.0, 30.0);
  EXPECT_NEAR(p.predict(days(3.0) + hours(3.0)), 100.0, 30.0);
}

TEST(SeasonalPredictor, FallbackDisabled) {
  SeasonalPredictorConfig config;
  config.fallback_period_s = 0.0;
  SeasonalPredictor p(config);
  for (double t = 0.0; t < days(1.0); t += 3600.0) {
    const double hour = t / 3600.0;
    p.observe(t, hour == 14.0 ? 500.0 : 100.0);
  }
  // Without the fallback, a cold Tuesday bucket uses the global mean.
  const double global_mean = (23.0 * 100.0 + 500.0) / 24.0;
  EXPECT_NEAR(p.predict(days(1.0) + hours(14.0)), global_mean, 30.0);
}

TEST(SeasonalPredictor, ColdBucketsFallBackToGlobalMean) {
  SeasonalPredictor p;
  p.observe(0.0, 50.0);  // only bucket 0 warm
  const double far_future = days(3.0) + hours(7.0);
  EXPECT_NEAR(p.predict(far_future), 50.0, 1e-9);
}

TEST(SeasonalPredictor, EmptyPredictsZero) {
  SeasonalPredictor p;
  EXPECT_DOUBLE_EQ(p.predict(123.0), 0.0);
  EXPECT_EQ(p.observations(), 0u);
}

TEST(SeasonalPredictor, ResidualStddevShrinksWithLearning) {
  SeasonalPredictorConfig config;
  config.period_s = kSecondsPerDay;
  config.bucket_s = 3600.0;
  SeasonalPredictor p(config);
  auto signal = [](double t) {
    return 100.0 + 50.0 * std::sin(2.0 * std::numbers::pi * t / kSecondsPerDay);
  };
  for (double t = 0.0; t < days(2.0); t += 3600.0) p.observe(t, signal(t));
  const double early = p.residual_stddev();
  SeasonalPredictor trained(config);
  for (double t = 0.0; t < days(14.0); t += 3600.0) trained.observe(t, signal(t));
  EXPECT_LT(trained.residual_stddev(), early);
}

TEST(SeasonalPredictor, RejectsBadConfig) {
  SeasonalPredictorConfig bad;
  bad.bucket_s = 0.0;
  EXPECT_THROW(SeasonalPredictor{bad}, std::invalid_argument);
  bad = SeasonalPredictorConfig{};
  bad.period_s = 60.0;
  bad.bucket_s = 3600.0;
  EXPECT_THROW(SeasonalPredictor{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace epm::onoff
