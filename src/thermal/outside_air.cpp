#include "thermal/outside_air.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/require.h"
#include "core/units.h"

namespace epm::thermal {

OutsideAirModel::OutsideAirModel(OutsideAirConfig config)
    : config_(config), rng_(config.seed) {
  require(config_.seasonal_amplitude_c >= 0.0 && config_.diurnal_amplitude_c >= 0.0,
          "OutsideAirModel: negative amplitude");
  require(config_.weather_noise_c >= 0.0, "OutsideAirModel: negative noise");
  require(config_.noise_correlation_time_s > 0.0,
          "OutsideAirModel: correlation time must be positive");
  require(config_.mean_rh >= 0.0 && config_.mean_rh <= 1.0,
          "OutsideAirModel: mean RH outside [0,1]");
  require(config_.diurnal_rh_amplitude >= 0.0 && config_.rh_noise >= 0.0,
          "OutsideAirModel: negative humidity parameters");
}

double OutsideAirModel::mean_temperature_c(double t_s) const {
  const double day_of_year = t_s / kSecondsPerDay;
  const double seasonal =
      std::cos(2.0 * std::numbers::pi * (day_of_year - config_.hottest_day) / 365.0);
  const double hour = std::fmod(t_s, kSecondsPerDay) / kSecondsPerHour;
  const double diurnal =
      std::cos(2.0 * std::numbers::pi * (hour - config_.hottest_hour) / 24.0);
  return config_.annual_mean_c + config_.seasonal_amplitude_c * seasonal +
         config_.diurnal_amplitude_c * diurnal;
}

double OutsideAirModel::mean_relative_humidity(double t_s) const {
  const double hour = std::fmod(t_s, kSecondsPerDay) / kSecondsPerHour;
  // RH bottoms out at the warmest hour of the day.
  const double diurnal =
      -std::cos(2.0 * std::numbers::pi * (hour - config_.hottest_hour) / 24.0);
  const double rh = config_.mean_rh + config_.diurnal_rh_amplitude * diurnal;
  return std::clamp(rh, 0.05, 1.0);
}

OutsideAirModel::Weather OutsideAirModel::sample_weather(double horizon_s,
                                                         double step_s) {
  require(horizon_s > 0.0 && step_s > 0.0, "OutsideAirModel: invalid horizon/step");
  Weather out{TimeSeries(0.0, step_s), TimeSeries(0.0, step_s)};
  const std::size_t n =
      checked_count(horizon_s / step_s, "OutsideAirModel: horizon / step");
  out.temperature_c.reserve(n);
  out.relative_humidity.reserve(n);
  const double phi = std::exp(-step_s / config_.noise_correlation_time_s);
  const double temp_innov = config_.weather_noise_c * std::sqrt(1.0 - phi * phi);
  double dev = config_.weather_noise_c > 0.0 ? rng_.normal(0.0, config_.weather_noise_c)
                                             : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * step_s;
    out.temperature_c.push_back(mean_temperature_c(t) + dev);
    // Humid fronts are cool fronts: the shared deviation enters RH with the
    // opposite sign, scaled into humidity units.
    const double rh_dev = config_.weather_noise_c > 0.0
                              ? -dev / config_.weather_noise_c * config_.rh_noise
                              : 0.0;
    out.relative_humidity.push_back(
        std::clamp(mean_relative_humidity(t) + rh_dev, 0.05, 1.0));
    if (config_.weather_noise_c > 0.0) {
      dev = phi * dev + rng_.normal(0.0, temp_innov);
    }
  }
  return out;
}

TimeSeries OutsideAirModel::sample(double horizon_s, double step_s) {
  require(horizon_s > 0.0 && step_s > 0.0, "OutsideAirModel: invalid horizon/step");
  TimeSeries out(0.0, step_s);
  const std::size_t n =
      checked_count(horizon_s / step_s, "OutsideAirModel: horizon / step");
  out.reserve(n);
  // AR(1) weather deviation with stationary stddev = weather_noise_c.
  const double phi = std::exp(-step_s / config_.noise_correlation_time_s);
  const double innovation_sd = config_.weather_noise_c * std::sqrt(1.0 - phi * phi);
  double dev = config_.weather_noise_c > 0.0 ? rng_.normal(0.0, config_.weather_noise_c)
                                             : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(mean_temperature_c(static_cast<double>(i) * step_s) + dev);
    if (config_.weather_noise_c > 0.0) {
      dev = phi * dev + rng_.normal(0.0, innovation_sd);
    }
  }
  return out;
}

}  // namespace epm::thermal
