// Converts user-facing demand (connected users, login rates, surge levels)
// into the request streams the cluster simulator consumes.
//
// The paper (§3) notes that "each user request may hit hundreds to thousands
// of servers" and that computing activity changes fast compared to cooling.
// We model a service's offered load per control epoch as a request arrival
// rate plus a per-request CPU service demand, with optional request fan-out
// (one external request producing `fanout` internal server requests).
#pragma once

#include <cstdint>
#include <string>

#include "core/rng.h"
#include "core/time_series.h"

namespace epm::workload {

struct RequestModelConfig {
  /// External requests per second per unit of demand (e.g., per connected
  /// user): Messenger-style presence traffic is light per user.
  double requests_per_demand_unit = 0.05;
  /// Internal fan-out: servers touched per external request (paper: hundreds
  /// to thousands for large services; default kept small for a single tier).
  double fanout = 1.0;
  /// Mean CPU seconds consumed by one internal request at the reference
  /// (maximum) core frequency.
  double mean_service_demand_s = 0.01;
  /// Poisson sampling of per-epoch arrivals (false = fluid/deterministic).
  bool stochastic_arrivals = true;
};

/// Offered load for one control epoch.
struct OfferedLoad {
  double arrival_rate_per_s = 0.0;    ///< internal requests per second
  double service_demand_s = 0.0;      ///< mean CPU-seconds per request
  /// Total CPU-seconds demanded per wall-clock second (rate * demand);
  /// the provisioning policies treat this as "server-equivalents" when
  /// divided by per-server capacity.
  double cpu_load() const { return arrival_rate_per_s * service_demand_s; }
};

/// Maps a demand series to per-epoch offered loads.
class RequestModel {
 public:
  explicit RequestModel(RequestModelConfig config);

  /// Offered load for an epoch of length `epoch_s` with demand level
  /// `demand`. Stochastic mode perturbs the arrival rate with Poisson
  /// sampling of the epoch's arrival count.
  OfferedLoad offered_load(double demand, double epoch_s);

  const RequestModelConfig& config() const { return config_; }

 private:
  RequestModelConfig config_;
  Rng rng_;
};

/// Converts a whole demand series into a series of arrival rates (1/s).
TimeSeries to_arrival_rates(RequestModel& model, const TimeSeries& demand);

}  // namespace epm::workload
