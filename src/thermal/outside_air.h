// Outside-air temperature model for air-side-economizer studies (paper
// §2.2: "the industry has moved to extensive use of air-side economizers...
// However, the temperature and humidity of outside air change continuously").
//
// Seasonal sinusoid + diurnal sinusoid + weather noise, deterministic per
// seed. Good enough to study economizer-hours and their control challenges;
// swap in a measured trace via workload::read_csv_file for site studies.
#pragma once

#include <cstdint>

#include "core/rng.h"
#include "core/time_series.h"

namespace epm::thermal {

/// Day of year (0-based) of the warmest day: mid-July.
inline constexpr double kHottestDay = 196.0;
/// Relative humidity: mean fraction and diurnal swing (RH is lowest at the
/// warmest hour). "The temperature and humidity of outside air change
/// continuously" (paper §2.2).
inline constexpr double kMeanRh = 0.60;
inline constexpr double kDiurnalRhAmplitude = 0.15;

struct OutsideAirConfig {
  double annual_mean_c = 12.0;       ///< temperate site
  double seasonal_amplitude_c = 11.0;  ///< winter/summer swing around mean
  double diurnal_amplitude_c = 5.0;  ///< day/night swing
  double hottest_hour = 15.0;        ///< warmest time of day
  double weather_noise_c = 2.0;      ///< slow AR(1) weather deviations
  std::uint64_t seed = 1234;
};

class OutsideAirModel {
 public:
  explicit OutsideAirModel(OutsideAirConfig config);

  /// Deterministic seasonal+diurnal component at time t (seconds from
  /// Jan 1, 00:00).
  double mean_temperature_c(double t_s) const;

  /// Samples the full model (mean + AR(1) weather noise) on a uniform grid.
  TimeSeries sample(double horizon_s, double step_s);

  /// Deterministic relative-humidity component at time t, in [0.05, 1]:
  /// lowest at the warmest hour (RH anti-correlates with temperature).
  double mean_relative_humidity(double t_s) const;

  /// Samples temperature and humidity on a shared grid (weather noise on
  /// both, anti-correlated as real fronts are).
  struct Weather {
    TimeSeries temperature_c;
    TimeSeries relative_humidity;  ///< fraction in [0.05, 1]
  };
  Weather sample_weather(double horizon_s, double step_s);

  const OutsideAirConfig& config() const { return config_; }

 private:
  OutsideAirConfig config_;
  Rng rng_;
};

}  // namespace epm::thermal
