#include "thermal/outside_air.h"

#include <gtest/gtest.h>

#include "core/units.h"

namespace epm::thermal {
namespace {

TEST(OutsideAir, SeasonalShape) {
  OutsideAirConfig config;
  config.weather_noise_c = 0.0;
  config.diurnal_amplitude_c = 0.0;
  OutsideAirModel model(config);
  const double summer = model.mean_temperature_c(days(kHottestDay));
  const double winter = model.mean_temperature_c(days(kHottestDay + 182.0));
  EXPECT_NEAR(summer, config.annual_mean_c + config.seasonal_amplitude_c, 0.1);
  EXPECT_NEAR(winter, config.annual_mean_c - config.seasonal_amplitude_c, 0.1);
}

TEST(OutsideAir, DiurnalShape) {
  OutsideAirConfig config;
  config.weather_noise_c = 0.0;
  config.seasonal_amplitude_c = 0.0;
  OutsideAirModel model(config);
  const double afternoon = model.mean_temperature_c(hours(config.hottest_hour));
  const double night = model.mean_temperature_c(hours(config.hottest_hour + 12.0));
  EXPECT_GT(afternoon, night);
  EXPECT_NEAR(afternoon - night, 2.0 * config.diurnal_amplitude_c, 0.1);
}

TEST(OutsideAir, SampleDeterministicPerSeed) {
  OutsideAirConfig config;
  config.seed = 5;
  OutsideAirModel a(config);
  OutsideAirModel b(config);
  const auto sa = a.sample(days(10.0), hours(1.0));
  const auto sb = b.sample(days(10.0), hours(1.0));
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); i += 17) {
    ASSERT_DOUBLE_EQ(sa[i], sb[i]);
  }
}

TEST(OutsideAir, NoiseStaysBounded) {
  OutsideAirModel model(OutsideAirConfig{});
  const auto s = model.sample(days(365.0), hours(1.0));
  // Mean + seasonal(11) + diurnal(5) + ~4 sigma of 2C noise.
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_LT(s[i], 12.0 + 11.0 + 5.0 + 10.0);
    ASSERT_GT(s[i], 12.0 - 11.0 - 5.0 - 10.0);
  }
}

TEST(OutsideAir, AnnualMeanRecovered) {
  OutsideAirModel model(OutsideAirConfig{});
  const auto s = model.sample(days(365.0), hours(1.0));
  EXPECT_NEAR(s.stats().mean(), 12.0, 1.5);
}

TEST(OutsideAir, HumidityAntiCorrelatesWithTemperature) {
  OutsideAirConfig config;
  OutsideAirModel model(config);
  // RH lowest at the warmest hour, highest 12 h later.
  const double dry = model.mean_relative_humidity(hours(config.hottest_hour));
  const double damp = model.mean_relative_humidity(hours(config.hottest_hour + 12.0));
  EXPECT_LT(dry, damp);
  EXPECT_NEAR(dry, kMeanRh - kDiurnalRhAmplitude, 1e-9);
}

TEST(OutsideAir, WeatherSampleCoupled) {
  OutsideAirConfig config;
  config.seed = 9;
  OutsideAirModel model(config);
  const auto weather = model.sample_weather(days(30.0), hours(1.0));
  ASSERT_EQ(weather.temperature_c.size(), weather.relative_humidity.size());
  for (std::size_t i = 0; i < weather.relative_humidity.size(); ++i) {
    ASSERT_GE(weather.relative_humidity[i], 0.05);
    ASSERT_LE(weather.relative_humidity[i], 1.0);
  }
  // Deviations anti-correlate: residual temp vs residual RH is negative.
  std::vector<double> temp_dev;
  std::vector<double> rh_dev;
  for (std::size_t i = 0; i < weather.temperature_c.size(); ++i) {
    const double t = weather.temperature_c.time_at(i);
    temp_dev.push_back(weather.temperature_c[i] - model.mean_temperature_c(t));
    rh_dev.push_back(weather.relative_humidity[i] - model.mean_relative_humidity(t));
  }
  EXPECT_LT(pearson_correlation(temp_dev, rh_dev), -0.5);
}

TEST(OutsideAir, RejectsBadConfig) {
  OutsideAirConfig bad;
  bad.seasonal_amplitude_c = -1.0;
  EXPECT_THROW(OutsideAirModel{bad}, std::invalid_argument);
  OutsideAirModel model(OutsideAirConfig{});
  EXPECT_THROW(model.sample(0.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace epm::thermal
