// Geo-distributed coordination across federated data centers (paper §3.2):
//
//   "Where to migrate power consuming operations to best utilize cooling
//    and power conversion efficiency across data centers without
//    sacrificing user experience?"
//
// Sites differ in climate (economizer availability follows local outside
// air), electricity price, conversion overhead, and network distance from
// the user population. The coordinator splits a global request stream
// across sites to minimize operating cost subject to per-site capacity and
// an end-to-end latency SLA (network + queueing response).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "power/server_power.h"
#include "thermal/cooling_plant.h"

namespace epm::macro {

struct SiteConfig {
  std::string name;
  std::size_t servers = 1000;
  thermal::CoolingPlantConfig plant;
  /// Electrical distribution overhead multiplier on IT power (UPS, PDU,
  /// transformer losses), ~1.10-1.18 for a tier-2 site.
  double distribution_overhead = 1.12;
  double electricity_price_per_kwh = 0.10;
  /// One-way network latency from the user population to this site.
  double network_latency_s = 0.02;
  /// Site coordinates, used to derive inter-site latency floors (and from
  /// them the federation's conservative lookahead — see network/interdc.h).
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
};

/// Reference fleet for multi-datacenter experiments: up to six real-world
/// site locations (Pacific Northwest, Virginia, Ireland, Singapore, São
/// Paulo, Tokyo) with climate/price/latency parameters in the same spirit
/// as the three-site geo-routing study. `count` in [2, 6].
std::vector<SiteConfig> make_reference_fleet_sites(std::size_t count);


/// What one site is asked to carry, and what it costs.
struct SiteAllocation {
  std::size_t site = 0;
  double arrival_rate_per_s = 0.0;
  std::size_t servers_on = 0;
  double it_power_w = 0.0;
  double cooling_power_w = 0.0;
  bool economizer_active = false;
  double cost_per_hour = 0.0;       ///< electricity cost of this allocation
  double end_to_end_latency_s = 0.0;
};

struct GeoDecision {
  std::vector<SiteAllocation> allocations;  ///< one per site (may be empty)
  double total_cost_per_hour = 0.0;
  double total_power_w = 0.0;
  double served_rate_per_s = 0.0;
  double dropped_rate_per_s = 0.0;  ///< demand no latency-feasible site could take
  /// Request-weighted mean end-to-end latency.
  double mean_latency_s = 0.0;
};

class GeoCoordinator {
 public:
  explicit GeoCoordinator(std::vector<SiteConfig> sites);

  std::size_t site_count() const { return sites_.size(); }
  const SiteConfig& site(std::size_t i) const;

  /// Marginal cost ($/h) per request/s at a site given its current outside
  /// conditions — the greedy routing key ("follow the moon": cold sites
  /// with free cooling and cheap power fill first).
  double unit_cost_per_rps(std::size_t site, double outside_c, double outside_rh) const;

  /// True when the site can meet the latency SLA at the target utilization.
  bool latency_feasible(std::size_t site) const;

  /// Splits `global_rate` across sites by ascending unit cost, respecting
  /// capacity (at the target utilization) and the latency SLA.
  GeoDecision route(double global_rate_per_s, const std::vector<double>& outside_c,
                    const std::vector<double>& outside_rh) const;

  /// Baseline: everything to one site (overflow to others by index).
  GeoDecision route_single_home(double global_rate_per_s, std::size_t home,
                                const std::vector<double>& outside_c,
                                const std::vector<double>& outside_rh) const;

 private:
  SiteAllocation load_site(std::size_t site, double rate, double outside_c,
                           double outside_rh) const;
  double site_capacity_rps(std::size_t site) const;

  std::vector<SiteConfig> sites_;
  /// Every site runs the reference server.
  power::ServerPowerModel model_{power::ServerPowerConfig{}};
  std::vector<thermal::CoolingPlant> plants_;
};

}  // namespace epm::macro
