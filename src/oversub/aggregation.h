// Oversubscription risk analytics (paper §3.1, §3.2, §5.2).
//
// Answers the macro-management questions the paper poses: "How much can
// resources, e.g. power be oversubscribed? How to protect the safety of the
// facility in the rare events that the demand exceeds the capacity?"
//
// Three estimators of P(aggregate draw > capacity):
//   * independent Monte Carlo  — services sampled independently (the
//     statistical-multiplexing best case),
//   * time-aligned Monte Carlo — services sampled at a common trace index,
//     preserving their real correlation (diurnal services peak together!),
//   * normal approximation     — sum of means/variances with an optional
//     pairwise correlation, for closed-form exploration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oversub/power_profile.h"

namespace epm::oversub {

struct RiskConfig {
  std::size_t monte_carlo_draws = 200000;
};

/// P(sum of independent draws > capacity).
double overflow_probability_independent(const std::vector<ServicePowerProfile>& services,
                                        double capacity_w, const RiskConfig& config = {});

/// P(sum at a uniformly random common time index > capacity); preserves
/// cross-service correlation embedded in the aligned traces.
double overflow_probability_aligned(const std::vector<ServicePowerProfile>& services,
                                    double capacity_w, const RiskConfig& config = {});

/// Normal approximation with common pairwise correlation rho in [0, 1].
double overflow_probability_normal(const std::vector<ServicePowerProfile>& services,
                                   double capacity_w, double rho = 0.0);

/// Oversubscription ratio: sum of rated peaks / capacity ("the host
/// oversells its services to the extent that if every subscriber uses the
/// services at the same time, the capacity will be exceeded").
double oversubscription_ratio(const std::vector<ServicePowerProfile>& services,
                              double capacity_w);

/// Largest number of identical services hostable under `capacity_w` with
/// aligned-trace overflow risk <= `max_risk`. Returns the count and the
/// resulting ratio/risk.
struct PackingResult {
  std::size_t services = 0;
  double ratio = 0.0;
  double risk = 0.0;
};

PackingResult max_services_at_risk(const ServicePowerProfile& prototype,
                                   double capacity_w, double max_risk,
                                   std::size_t hard_limit = 4096,
                                   const RiskConfig& config = {});

/// Expected capping statistics when a capper enforces `capacity_w` over the
/// aligned traces: fraction of epochs capped and mean power shed while
/// capped. This is the "protect the safety of the facility" backstop cost.
struct CappingImpact {
  double capped_fraction = 0.0;
  double mean_shed_w = 0.0;      ///< average shed over capped epochs
  double worst_shed_w = 0.0;
};

CappingImpact capping_impact_aligned(const std::vector<ServicePowerProfile>& services,
                                     double capacity_w);

/// Gaussian upper-tail probability Q(z) = P(N(0,1) > z).
double normal_tail(double z);

}  // namespace epm::oversub
