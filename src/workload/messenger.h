// Synthetic Windows-Live-Messenger-style workload (paper Fig. 3).
//
// The figure plots, over one week: (a) the total number of connected users
// (normalized to 1 million) and (b) the new-user login rate (normalized to
// 1400 logins/second). Connections are the *integral* of logins minus
// session departures, so the model generates the login-rate process and
// derives connections through a session-lifetime ODE:
//
//     dN/dt = lambda(t) - N(t) / mean_session_s
//
// Flash crowds ("a large number of users login in a short period of time")
// are multiplicative spikes on lambda with exponential decay.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/time_series.h"
#include "workload/diurnal.h"

namespace epm::workload {

/// Login-rate multiplier at a flash crowd's onset: uniform between these.
inline constexpr double kFlashMagnitudeMin = 1.5;
inline constexpr double kFlashMagnitudeMax = 3.5;

struct FlashCrowdConfig {
  double rate_per_day = 1.0;     ///< expected flash crowds per simulated day
};

struct MessengerConfig {
  /// Deterministic daily/weekly shape. The login-rate trough is set slightly
  /// below the paper's 2:1 connections ratio because session lifetimes
  /// low-pass the diurnal curve; with a 2 h mean session this yields
  /// afternoon/midnight connections of ~2x, matching Fig. 3.
  DiurnalConfig diurnal{.peak_hour = 14.0, .trough_to_peak = 0.42};
  FlashCrowdConfig flash;                 ///< spike process
  double peak_login_rate_per_s = 1400.0;  ///< paper's normalization
  double mean_session_s = 3600.0 * 2.0;   ///< mean connected-session length
  double noise_cv = 0.03;                 ///< multiplicative sampling noise
  double step_s = 15.0;                   ///< sample period of output series
  std::uint64_t seed = 42;
};

/// One flash-crowd occurrence, for inspection by tests and experiments.
struct FlashCrowdEvent {
  double start_s;
  double magnitude;  ///< multiplier applied to the login rate at onset
};

/// Generated week (or arbitrary horizon) of Messenger-style load.
struct MessengerTrace {
  TimeSeries login_rate_per_s;  ///< new-user logins per second
  TimeSeries connections;       ///< concurrently connected users
  std::vector<FlashCrowdEvent> flash_crowds;
};

/// Generates a trace over [0, horizon_s). Deterministic given the config.
MessengerTrace generate_messenger_trace(const MessengerConfig& config, double horizon_s);

/// Summary statistics the paper calls out for Fig. 3; computed by the bench
/// and asserted by tests.
struct MessengerShape {
  double afternoon_to_midnight_ratio;  ///< connections, ~2.0 in the paper
  double weekday_to_weekend_ratio;     ///< connections, > 1.0 in the paper
  double peak_connections;             ///< max of the normalized series
  double peak_login_rate;              ///< max login rate observed
  std::size_t flash_crowd_count;
};

MessengerShape summarize_messenger_trace(const MessengerTrace& trace,
                                         const DiurnalModel& diurnal);

}  // namespace epm::workload
