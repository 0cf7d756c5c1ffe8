#include "workload/diurnal.h"

#include <cmath>
#include <numbers>

#include "core/require.h"
#include "core/units.h"

namespace epm::workload {

DiurnalModel::DiurnalModel(DiurnalConfig config) : config_(config) {
  require(config_.peak_hour >= 0.0 && config_.peak_hour < 24.0,
          "DiurnalModel: peak_hour outside [0,24)");
  require(config_.trough_to_peak > 0.0 && config_.trough_to_peak <= 1.0,
          "DiurnalModel: trough_to_peak outside (0,1]");
  require(config_.weekend_factor > 0.0 && config_.weekend_factor <= 1.0,
          "DiurnalModel: weekend_factor outside (0,1]");
  require(config_.second_harmonic >= 0.0 && config_.second_harmonic < 0.5,
          "DiurnalModel: second_harmonic outside [0,0.5)");
  require(config_.start_weekday >= 0 && config_.start_weekday <= 6,
          "DiurnalModel: start_weekday outside 0..6");
}

double DiurnalModel::hour_of_day(double t_s) {
  double h = std::fmod(t_s, kSecondsPerDay) / kSecondsPerHour;
  if (h < 0.0) h += 24.0;
  return h;
}

int DiurnalModel::weekday_of(double t_s) const {
  const auto day = static_cast<long long>(std::floor(t_s / kSecondsPerDay));
  long long wd = (day + config_.start_weekday) % 7;
  if (wd < 0) wd += 7;
  return static_cast<int>(wd);
}

bool DiurnalModel::is_weekend(double t_s) const { return weekday_of(t_s) >= 5; }

double DiurnalModel::daily_shape(double hour) const {
  // Raw two-harmonic curve in [-1-h2, 1+h2], peak at peak_hour.
  const double phase = 2.0 * std::numbers::pi * (hour - config_.peak_hour) / 24.0;
  const double raw = std::cos(phase) + config_.second_harmonic * std::cos(2.0 * phase);
  const double raw_max = 1.0 + config_.second_harmonic;
  const double raw_min = -1.0 - config_.second_harmonic;  // conservative bound
  // Map raw range onto [trough_to_peak, 1].
  const double unit = (raw - raw_min) / (raw_max - raw_min);  // [0,1]
  return config_.trough_to_peak + (1.0 - config_.trough_to_peak) * unit;
}

double DiurnalModel::demand_at(double t_s) const {
  const double base = daily_shape(hour_of_day(t_s));
  return is_weekend(t_s) ? base * config_.weekend_factor : base;
}

TimeSeries sample_demand(const DiurnalModel& model, double horizon_s, double step_s) {
  require(horizon_s > 0.0, "sample_demand: horizon must be positive");
  require(step_s > 0.0, "sample_demand: step must be positive");
  TimeSeries out(0.0, step_s);
  const std::size_t n =
      checked_count(horizon_s / step_s, "sample_demand: horizon / step");
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(model.demand_at(static_cast<double>(i) * step_s));
  }
  return out;
}

}  // namespace epm::workload
