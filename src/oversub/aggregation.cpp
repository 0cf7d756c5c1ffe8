#include "oversub/aggregation.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::oversub {

/// Seed of the Monte Carlo overflow draws.
constexpr std::uint64_t kDrawSeed = 99;

double normal_tail(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

double overflow_probability_independent(const std::vector<ServicePowerProfile>& services,
                                        double capacity_w, const RiskConfig& config) {
  require(!services.empty(), "overflow_probability: no services");
  require(capacity_w > 0.0, "overflow_probability: capacity must be positive");
  require(config.monte_carlo_draws > 0, "overflow_probability: zero draws");
  Rng rng(kDrawSeed);
  std::size_t overflows = 0;
  for (std::size_t d = 0; d < config.monte_carlo_draws; ++d) {
    double total = 0.0;
    for (const auto& s : services) total += s.sample(rng);
    if (total > capacity_w) ++overflows;
  }
  return static_cast<double>(overflows) / static_cast<double>(config.monte_carlo_draws);
}

double overflow_probability_aligned(const std::vector<ServicePowerProfile>& services,
                                    double capacity_w, const RiskConfig& config) {
  require(!services.empty(), "overflow_probability: no services");
  require(capacity_w > 0.0, "overflow_probability: capacity must be positive");
  // Exhaustive over the common index set when it is small; Monte Carlo over
  // indices otherwise.
  std::size_t max_len = 0;
  for (const auto& s : services) max_len = std::max(max_len, s.sample_count());
  if (max_len <= config.monte_carlo_draws) {
    std::size_t overflows = 0;
    for (std::size_t i = 0; i < max_len; ++i) {
      double total = 0.0;
      for (const auto& s : services) total += s.sample_at(i);
      if (total > capacity_w) ++overflows;
    }
    return static_cast<double>(overflows) / static_cast<double>(max_len);
  }
  Rng rng(kDrawSeed);
  std::size_t overflows = 0;
  for (std::size_t d = 0; d < config.monte_carlo_draws; ++d) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_len) - 1));
    double total = 0.0;
    for (const auto& s : services) total += s.sample_at(idx);
    if (total > capacity_w) ++overflows;
  }
  return static_cast<double>(overflows) / static_cast<double>(config.monte_carlo_draws);
}

double overflow_probability_normal(const std::vector<ServicePowerProfile>& services,
                                   double capacity_w, double rho) {
  require(!services.empty(), "overflow_probability: no services");
  require(capacity_w > 0.0, "overflow_probability: capacity must be positive");
  require(rho >= 0.0 && rho <= 1.0, "overflow_probability: rho outside [0,1]");
  double mean = 0.0;
  double var = 0.0;
  for (const auto& s : services) {
    mean += s.mean_w();
    var += s.stddev_w() * s.stddev_w();
  }
  // Common-correlation covariance: sum_{i != j} rho * sd_i * sd_j.
  if (rho > 0.0) {
    double sd_sum = 0.0;
    for (const auto& s : services) sd_sum += s.stddev_w();
    double sd_sq_sum = 0.0;
    for (const auto& s : services) sd_sq_sum += s.stddev_w() * s.stddev_w();
    var += rho * (sd_sum * sd_sum - sd_sq_sum);
  }
  if (var <= 0.0) return mean > capacity_w ? 1.0 : 0.0;
  return normal_tail((capacity_w - mean) / std::sqrt(var));
}

double oversubscription_ratio(const std::vector<ServicePowerProfile>& services,
                              double capacity_w) {
  require(capacity_w > 0.0, "oversubscription_ratio: capacity must be positive");
  double peaks = 0.0;
  for (const auto& s : services) peaks += s.rated_peak_w();
  return peaks / capacity_w;
}

PackingResult max_services_at_risk(const ServicePowerProfile& prototype,
                                   double capacity_w, double max_risk,
                                   std::size_t hard_limit, const RiskConfig& config) {
  require(max_risk >= 0.0 && max_risk < 1.0, "max_services_at_risk: bad risk bound");
  require(hard_limit >= 1, "max_services_at_risk: hard_limit must be >= 1");
  PackingResult best;
  std::vector<ServicePowerProfile> pack;
  for (std::size_t n = 1; n <= hard_limit; ++n) {
    pack.push_back(prototype);
    const double risk = overflow_probability_aligned(pack, capacity_w, config);
    if (risk > max_risk) break;
    best.services = n;
    best.risk = risk;
    best.ratio = oversubscription_ratio(pack, capacity_w);
  }
  return best;
}

CappingImpact capping_impact_aligned(const std::vector<ServicePowerProfile>& services,
                                     double capacity_w) {
  require(!services.empty(), "capping_impact: no services");
  require(capacity_w > 0.0, "capping_impact: capacity must be positive");
  std::size_t max_len = 0;
  for (const auto& s : services) max_len = std::max(max_len, s.sample_count());
  CappingImpact impact;
  std::size_t capped = 0;
  double shed_sum = 0.0;
  for (std::size_t i = 0; i < max_len; ++i) {
    double total = 0.0;
    for (const auto& s : services) total += s.sample_at(i);
    if (total > capacity_w) {
      ++capped;
      const double shed = total - capacity_w;
      shed_sum += shed;
      impact.worst_shed_w = std::max(impact.worst_shed_w, shed);
    }
  }
  impact.capped_fraction = static_cast<double>(capped) / static_cast<double>(max_len);
  if (capped > 0) impact.mean_shed_w = shed_sum / static_cast<double>(capped);
  return impact;
}

}  // namespace epm::oversub
