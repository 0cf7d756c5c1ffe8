#include "network/interdc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/require.h"

namespace epm::network {

namespace {
constexpr double kEarthRadiusM = 6.371e6;
constexpr double kLightSpeedMps = 2.99792458e8;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

double great_circle_m(double lat1_deg, double lon1_deg, double lat2_deg,
                      double lon2_deg) {
  const double lat1 = lat1_deg * kPi / 180.0;
  const double lat2 = lat2_deg * kPi / 180.0;
  const double dlat = (lat2_deg - lat1_deg) * kPi / 180.0;
  const double dlon = (lon2_deg - lon1_deg) * kPi / 180.0;
  // Haversine: numerically stable for the short hops metro pairs produce.
  const double a = std::sin(dlat / 2.0) * std::sin(dlat / 2.0) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2.0) *
                       std::sin(dlon / 2.0);
  const double c = 2.0 * std::atan2(std::sqrt(a), std::sqrt(1.0 - a));
  return kEarthRadiusM * c;
}

double fiber_latency_floor_s(double distance_m, double detour_factor) {
  require(distance_m >= 0.0, "fiber_latency_floor_s: negative distance");
  require(detour_factor >= 1.0,
          "fiber_latency_floor_s: detour factor must be >= 1");
  // Light in fiber propagates at roughly 2/3 of c.
  return distance_m * detour_factor / (kLightSpeedMps * 2.0 / 3.0);
}

InterDcNetwork::InterDcNetwork(std::vector<InterDcSite> sites,
                               double detour_factor, double min_floor_s)
    : sites_(std::move(sites)) {
  require(!sites_.empty(), "InterDcNetwork: need at least one site");
  require(min_floor_s > 0.0, "InterDcNetwork: min floor must be positive");
  const std::size_t n = sites_.size();
  floors_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double d =
          great_circle_m(sites_[i].latitude_deg, sites_[i].longitude_deg,
                         sites_[j].latitude_deg, sites_[j].longitude_deg);
      floors_[i * n + j] =
          std::max(fiber_latency_floor_s(d, detour_factor), min_floor_s);
    }
  }
  validate();
}

InterDcNetwork::InterDcNetwork(std::vector<InterDcSite> sites,
                               std::vector<double> latency_floor_s)
    : sites_(std::move(sites)), floors_(std::move(latency_floor_s)) {
  require(!sites_.empty(), "InterDcNetwork: need at least one site");
  require(floors_.size() == sites_.size() * sites_.size(),
          "InterDcNetwork: floor matrix must be sites x sites");
  validate();
}

void InterDcNetwork::validate() {
  const std::size_t n = sites_.size();
  min_floor_s_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    require(!sites_[i].name.empty(), "InterDcNetwork: site needs a name");
    for (std::size_t j = 0; j < n; ++j) {
      const double f = floors_[i * n + j];
      if (i == j) {
        require(f == 0.0, "InterDcNetwork: diagonal floors must be zero");
        continue;
      }
      require(f > 0.0 && std::isfinite(f), [&] {
        return "InterDcNetwork: floor " + sites_[i].name + " -> " +
               sites_[j].name + " must be positive and finite";
      });
      min_floor_s_ = std::min(min_floor_s_, f);
    }
  }
}

const InterDcSite& InterDcNetwork::site(std::size_t i) const {
  require(i < sites_.size(), "InterDcNetwork: site index out of range");
  return sites_[i];
}

double InterDcNetwork::latency_floor_s(std::size_t src,
                                       std::size_t dst) const {
  require(src < sites_.size() && dst < sites_.size(),
          "InterDcNetwork: site index out of range");
  return floors_[src * sites_.size() + dst];
}

}  // namespace epm::network
