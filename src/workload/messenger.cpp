#include "workload/messenger.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "core/units.h"

namespace epm::workload {

MessengerTrace generate_messenger_trace(const MessengerConfig& config, double horizon_s) {
  require(horizon_s > 0.0, "generate_messenger_trace: horizon must be positive");
  require(config.step_s > 0.0, "generate_messenger_trace: step must be positive");
  require(config.peak_login_rate_per_s > 0.0,
          "generate_messenger_trace: peak login rate must be positive");
  require(config.mean_session_s > 0.0,
          "generate_messenger_trace: mean session must be positive");
  require(config.noise_cv >= 0.0, "generate_messenger_trace: negative noise");

  const std::size_t n =
      checked_count(horizon_s / config.step_s, "messenger trace: horizon / step");

  const DiurnalModel diurnal(config.diurnal);
  Rng rng(config.seed);
  Rng flash_rng = rng.fork();
  Rng noise_rng = rng.fork();

  // Draw flash-crowd onsets as a Poisson process over the horizon.
  MessengerTrace trace;
  const double flash_rate_per_s = config.flash.rate_per_day / kSecondsPerDay;
  if (flash_rate_per_s > 0.0) {
    double t = flash_rng.exponential(flash_rate_per_s);
    while (t < horizon_s) {
      trace.flash_crowds.push_back(FlashCrowdEvent{
          t, flash_rng.uniform(config.flash.magnitude_min, config.flash.magnitude_max)});
      t += flash_rng.exponential(flash_rate_per_s);
    }
  }

  trace.login_rate_per_s = TimeSeries(0.0, config.step_s);
  trace.connections = TimeSeries(0.0, config.step_s);
  trace.login_rate_per_s.reserve(n);
  trace.connections.reserve(n);

  // Start connections at the quasi-steady state of the initial login rate.
  double connections =
      config.peak_login_rate_per_s * diurnal.demand_at(0.0) * config.mean_session_s;

  // Lognormal noise with unit mean: mu = -sigma^2/2.
  const double sigma = config.noise_cv > 0.0
                           ? std::sqrt(std::log(1.0 + config.noise_cv * config.noise_cv))
                           : 0.0;
  const double mu = -0.5 * sigma * sigma;

  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * config.step_s;
    double rate = config.peak_login_rate_per_s * diurnal.demand_at(t);
    // Superpose decayed flash crowds.
    for (const auto& fc : trace.flash_crowds) {
      if (t < fc.start_s) break;  // onsets are time-ordered
      const double age = t - fc.start_s;
      rate *= 1.0 + (fc.magnitude - 1.0) * std::exp(-age / config.flash.decay_time_s);
    }
    if (sigma > 0.0) rate *= noise_rng.lognormal(mu, sigma);

    trace.login_rate_per_s.push_back(rate);
    trace.connections.push_back(connections);

    // Forward-Euler session balance: dN/dt = lambda - N / mean_session.
    connections += (rate - connections / config.mean_session_s) * config.step_s;
    connections = std::max(connections, 0.0);
  }
  return trace;
}

MessengerShape summarize_messenger_trace(const MessengerTrace& trace,
                                         const DiurnalModel& diurnal) {
  require(!trace.connections.empty(), "summarize_messenger_trace: empty trace");
  OnlineStats afternoon;
  OnlineStats midnight;
  OnlineStats weekday;
  OnlineStats weekend;
  const auto& conn = trace.connections;
  for (std::size_t i = 0; i < conn.size(); ++i) {
    const double t = conn.time_at(i);
    const double hour = DiurnalModel::hour_of_day(t);
    const bool wknd = diurnal.is_weekend(t);
    if (!wknd && hour >= 13.0 && hour < 16.0) afternoon.add(conn[i]);
    if (!wknd && hour >= 0.0 && hour < 4.0) midnight.add(conn[i]);
    (wknd ? weekend : weekday).add(conn[i]);
  }
  MessengerShape shape{};
  shape.afternoon_to_midnight_ratio =
      midnight.count() > 0 && midnight.mean() > 0.0 && afternoon.count() > 0
          ? afternoon.mean() / midnight.mean()
          : 0.0;
  shape.weekday_to_weekend_ratio =
      weekend.count() > 0 && weekend.mean() > 0.0 ? weekday.mean() / weekend.mean() : 0.0;
  shape.peak_connections = conn.stats().max();
  shape.peak_login_rate = trace.login_rate_per_s.stats().max();
  shape.flash_crowd_count = trace.flash_crowds.size();
  return shape;
}

}  // namespace epm::workload
