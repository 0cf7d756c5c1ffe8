#include "macro/geo.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/queueing.h"
#include "core/require.h"
#include "core/units.h"
#include "onoff/provisioners.h"

namespace epm::macro {

/// End-to-end mean latency objective: 2x network + queueing response.
constexpr double kSlaLatencyS = 0.25;
/// Utilization each site's active servers are planned for.
constexpr double kTargetUtilization = 0.70;
/// Mean CPU demand per request (reference frequency).
constexpr double kServiceDemandS = 0.01;
static_assert(kSlaLatencyS > 0.0 && kServiceDemandS > 0.0);
static_assert(kTargetUtilization > 0.0 && kTargetUtilization < 1.0);

GeoCoordinator::GeoCoordinator(std::vector<SiteConfig> sites) : sites_(std::move(sites)) {
  require(!sites_.empty(), "GeoCoordinator: no sites");
  for (const auto& s : sites_) {
    require(s.servers >= 1, "GeoCoordinator: site with no servers");
    require(s.distribution_overhead >= 1.0,
            "GeoCoordinator: distribution overhead must be >= 1");
    require(s.electricity_price_per_kwh > 0.0,
            "GeoCoordinator: price must be positive");
    require(s.network_latency_s >= 0.0, "GeoCoordinator: negative latency");
    plants_.emplace_back(s.plant);
  }
}

const SiteConfig& GeoCoordinator::site(std::size_t i) const {
  require(i < sites_.size(), "GeoCoordinator: site index out of range");
  return sites_[i];
}

double GeoCoordinator::site_capacity_rps(std::size_t i) const {
  return static_cast<double>(sites_[i].servers) / kServiceDemandS * kTargetUtilization;
}

bool GeoCoordinator::latency_feasible(std::size_t i) const {
  require(i < sites_.size(), "GeoCoordinator: site index out of range");
  const double response =
      cluster::mg1ps_response_time_s(kServiceDemandS, kTargetUtilization);
  return 2.0 * sites_[i].network_latency_s + response <= kSlaLatencyS;
}

SiteAllocation GeoCoordinator::load_site(std::size_t i, double rate, double outside_c,
                                         double outside_rh) const {
  SiteAllocation alloc;
  alloc.site = i;
  alloc.arrival_rate_per_s = rate;
  if (rate <= 0.0) {
    alloc.end_to_end_latency_s = 0.0;
    return alloc;
  }
  alloc.servers_on = std::min<std::size_t>(
      sites_[i].servers,
      onoff::servers_for_load(rate, kServiceDemandS, 1.0, kTargetUtilization));
  const double capacity = static_cast<double>(alloc.servers_on) / kServiceDemandS;
  const double rho = std::min(rate / capacity, kTargetUtilization);
  alloc.it_power_w = static_cast<double>(alloc.servers_on) *
                     model_.active_power_w(0, rho) * sites_[i].distribution_overhead;
  const auto cooling = plants_[i].power_draw(alloc.it_power_w, 18.0, outside_c,
                                             outside_rh);
  alloc.cooling_power_w = cooling.total_w();
  alloc.economizer_active = cooling.economizer_active;
  alloc.cost_per_hour = to_kwh((alloc.it_power_w + alloc.cooling_power_w) * 3600.0) *
                        sites_[i].electricity_price_per_kwh;
  alloc.end_to_end_latency_s =
      2.0 * sites_[i].network_latency_s +
      cluster::mg1ps_response_time_s(kServiceDemandS, rho);
  return alloc;
}

double GeoCoordinator::unit_cost_per_rps(std::size_t i, double outside_c,
                                         double outside_rh) const {
  require(i < sites_.size(), "GeoCoordinator: site index out of range");
  // Cost of one fully-utilized server's worth of requests at this site.
  const double it_w = model_.active_power_w(0, kTargetUtilization) *
                      sites_[i].distribution_overhead;
  const auto cooling = plants_[i].power_draw(it_w, 18.0, outside_c, outside_rh);
  const double per_server_rps = kTargetUtilization / kServiceDemandS;
  return to_kwh((it_w + cooling.total_w()) * 3600.0) *
         sites_[i].electricity_price_per_kwh / per_server_rps;
}

GeoDecision GeoCoordinator::route(double global_rate_per_s,
                                  const std::vector<double>& outside_c,
                                  const std::vector<double>& outside_rh) const {
  require(global_rate_per_s >= 0.0, "GeoCoordinator: negative demand");
  require(outside_c.size() == sites_.size() && outside_rh.size() == sites_.size(),
          "GeoCoordinator: weather vectors must cover every site");

  // Order latency-feasible sites by unit cost under current weather.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (latency_feasible(i)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return unit_cost_per_rps(a, outside_c[a], outside_rh[a]) <
           unit_cost_per_rps(b, outside_c[b], outside_rh[b]);
  });

  GeoDecision decision;
  decision.allocations.reserve(sites_.size());
  double remaining = global_rate_per_s;
  std::vector<double> assigned(sites_.size(), 0.0);
  for (std::size_t i : order) {
    const double take = std::min(remaining, site_capacity_rps(i));
    assigned[i] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  decision.dropped_rate_per_s = std::max(remaining, 0.0);

  double latency_weight = 0.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    auto alloc = load_site(i, assigned[i], outside_c[i], outside_rh[i]);
    decision.total_cost_per_hour += alloc.cost_per_hour;
    decision.total_power_w += alloc.it_power_w + alloc.cooling_power_w;
    decision.served_rate_per_s += alloc.arrival_rate_per_s;
    latency_weight += alloc.arrival_rate_per_s * alloc.end_to_end_latency_s;
    decision.allocations.push_back(std::move(alloc));
  }
  if (decision.served_rate_per_s > 0.0) {
    decision.mean_latency_s = latency_weight / decision.served_rate_per_s;
  }
  return decision;
}

GeoDecision GeoCoordinator::route_single_home(double global_rate_per_s,
                                              std::size_t home,
                                              const std::vector<double>& outside_c,
                                              const std::vector<double>& outside_rh) const {
  require(home < sites_.size(), "GeoCoordinator: home site out of range");
  require(outside_c.size() == sites_.size() && outside_rh.size() == sites_.size(),
          "GeoCoordinator: weather vectors must cover every site");
  GeoDecision decision;
  double remaining = global_rate_per_s;
  std::vector<double> assigned(sites_.size(), 0.0);
  // Home first, then overflow in index order.
  std::vector<std::size_t> order{home};
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (i != home) order.push_back(i);
  }
  for (std::size_t i : order) {
    const double take = std::min(remaining, site_capacity_rps(i));
    assigned[i] = take;
    remaining -= take;
  }
  decision.dropped_rate_per_s = std::max(remaining, 0.0);
  double latency_weight = 0.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    auto alloc = load_site(i, assigned[i], outside_c[i], outside_rh[i]);
    decision.total_cost_per_hour += alloc.cost_per_hour;
    decision.total_power_w += alloc.it_power_w + alloc.cooling_power_w;
    decision.served_rate_per_s += alloc.arrival_rate_per_s;
    latency_weight += alloc.arrival_rate_per_s * alloc.end_to_end_latency_s;
    decision.allocations.push_back(std::move(alloc));
  }
  if (decision.served_rate_per_s > 0.0) {
    decision.mean_latency_s = latency_weight / decision.served_rate_per_s;
  }
  return decision;
}

std::vector<SiteConfig> make_reference_fleet_sites(std::size_t count) {
  require(count >= 2 && count <= 6,
          "make_reference_fleet_sites: count must be in [2, 6]");
  struct Ref {
    const char* name;
    double lat, lon;     // degrees
    double price;        // $/kWh
    double user_lat_s;   // one-way user->site latency
    bool economizer;
  };
  // Ordered so any prefix stays geographically spread (the first four span
  // both US coasts plus Europe and Asia — the 4-DC reference fleet).
  static constexpr Ref kRefs[6] = {
      {"pnw", 45.60, -121.18, 0.07, 0.030, true},     // The Dalles, OR
      {"virginia", 39.04, -77.49, 0.09, 0.015, true}, // Ashburn, VA
      {"ireland", 53.33, -6.25, 0.11, 0.045, true},   // Dublin
      {"singapore", 1.35, 103.82, 0.13, 0.090, false},
      {"saopaulo", -23.55, -46.63, 0.12, 0.075, false},
      {"tokyo", 35.68, 139.69, 0.14, 0.080, false},
  };
  std::vector<SiteConfig> sites;
  sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SiteConfig site;
    site.name = kRefs[i].name;
    site.servers = 1000;
    site.plant.has_economizer = kRefs[i].economizer;
    site.electricity_price_per_kwh = kRefs[i].price;
    site.network_latency_s = kRefs[i].user_lat_s;
    site.latitude_deg = kRefs[i].lat;
    site.longitude_deg = kRefs[i].lon;
    sites.push_back(std::move(site));
  }
  return sites;
}

}  // namespace epm::macro
