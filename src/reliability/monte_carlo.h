// Event-driven Monte Carlo availability simulation, cross-checking the
// analytic block model and exposing the distribution of outage durations
// (which the analytic steady-state number hides).
#pragma once

#include <cstdint>

#include "reliability/availability.h"

namespace epm::reliability {

struct MonteCarloConfig {
  double years = 50.0;
  std::size_t replicas = 8;
  /// Worker threads for the replica fan-out; 0 = default_thread_count().
  /// Results are bit-identical for any value (replica streams are derived
  /// from one fixed seed by index and reduced in replica order).
  std::size_t threads = 0;
};

struct MonteCarloResult {
  double availability = 0.0;        ///< mean over replicas
  double availability_stddev = 0.0; ///< across replicas
  /// 95% confidence interval on availability: the union of the normal
  /// interval across replicas and a Wilson score interval on the pooled
  /// downtime fraction (pseudo-trials = simulated hours). The Wilson term
  /// keeps the interval strictly wider than zero even when no replica saw a
  /// single failure — observing zero failures over a finite horizon is
  /// evidence of high availability, not proof of perfect availability.
  double ci_lo = 0.0;
  double ci_hi = 1.0;
  double mean_outage_h = 0.0;       ///< average system-outage duration
  double max_outage_h = 0.0;
  std::size_t outage_count = 0;     ///< across all replicas

  double ci_width() const { return ci_hi - ci_lo; }
};

/// Bound on the component transitions a run is expected to simulate over
/// all replicas (a failure and its repair count two, as do the start and
/// end of a maintenance window). 64 replicas of 5000 years of the busiest
/// tier topology expect about 4.5e7.
inline constexpr double kMaxExpectedTransitions = 2.0e8;

/// Throws std::invalid_argument where simulate_availability would refuse
/// `config` on `topology`: no positive horizon, no replica, no component,
/// or more than kMaxExpectedTransitions expected transitions.
void validate_monte_carlo_config(const Block& topology, const MonteCarloConfig& config);

/// Simulates every leaf component as an alternating exponential
/// up(MTBF)/down(MTTR) renewal process plus one planned maintenance window
/// per year, evaluates the block structure at every transition, and
/// integrates system downtime.
MonteCarloResult simulate_availability(const Block& topology,
                                       const MonteCarloConfig& config = {});

}  // namespace epm::reliability
