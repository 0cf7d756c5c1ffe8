#include "onoff/provisioners.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::onoff {

/// Utilization the band re-sizes toward, and its upper edge: a fleet running
/// hotter re-sizes.
constexpr double kBandTargetUtilization = 0.65;
constexpr double kUtilizationBandUpper = 0.80;
static_assert(kBandTargetUtilization < kUtilizationBandUpper && kUtilizationBandUpper < 1.0);
/// Fewest servers the band and predictive provisioners keep committed.
constexpr std::size_t kMinServers = 1;
/// Predictive safety margin in residual standard deviations.
constexpr double kMarginSigmas = 2.0;

std::size_t servers_for_load(double arrival_rate, double service_demand_s,
                             double capacity_fraction, double target_utilization) {
  require(arrival_rate >= 0.0, "servers_for_load: negative arrival rate");
  require(service_demand_s > 0.0, "servers_for_load: demand must be positive");
  require(capacity_fraction > 0.0, "servers_for_load: capacity must be positive");
  require(target_utilization > 0.0 && target_utilization < 1.0,
          "servers_for_load: target utilization outside (0,1)");
  const double per_server_rate = capacity_fraction / service_demand_s;
  const double needed = arrival_rate / (per_server_rate * target_utilization);
  return static_cast<std::size_t>(std::ceil(needed - 1e-9));
}

DelayThresholdProvisioner::DelayThresholdProvisioner(DelayThresholdConfig config)
    : config_(config) {
  require(config_.down_factor > 0.0 && config_.down_factor < config_.up_factor,
          "DelayThresholdProvisioner: need 0 < down < up");
  require(config_.add_step >= 1, "DelayThresholdProvisioner: add_step must be >= 1");
  require(config_.min_servers >= 1, "DelayThresholdProvisioner: min_servers must be >= 1");
}

std::size_t DelayThresholdProvisioner::decide(const cluster::ServiceCluster& cluster,
                                              const cluster::EpochResult& last) {
  const double target = cluster.config().sla.target_mean_response_s;
  const std::size_t committed = cluster.committed_count();
  if (last.mean_response_s > target * config_.up_factor) {
    // "Increased delay may cause the (DVS oblivious) On/Off policy to
    //  consider the system to be overloaded, hence turning more machines
    //  on." (§5.1) — no coordination with what DVFS is doing.
    calm_epochs_ = 0;
    return std::min(committed + config_.add_step, cluster.server_count());
  }
  if (last.mean_response_s < target * config_.down_factor) {
    if (++calm_epochs_ >= config_.down_dwell_epochs && committed > config_.min_servers) {
      calm_epochs_ = 0;
      return committed - 1;
    }
  } else {
    calm_epochs_ = 0;
  }
  return committed;
}

UtilizationBandProvisioner::UtilizationBandProvisioner(UtilizationBandConfig config)
    : config_(config) {
  require(config_.lower > 0.0 && config_.lower < kBandTargetUtilization,
          "UtilizationBandProvisioner: need 0 < lower < target < upper < 1");
}

std::size_t UtilizationBandProvisioner::decide(const cluster::ServiceCluster& cluster,
                                               const cluster::EpochResult& last) {
  const std::size_t committed = cluster.committed_count();
  ++epochs_since_change_;
  if (last.utilization >= config_.lower && last.utilization <= kUtilizationBandUpper) {
    return committed;  // inside the band: leave the fleet alone
  }
  if (epochs_since_change_ < config_.min_dwell_epochs) return committed;
  // Re-size for the observed load at the target utilization.
  const double capacity_fraction =
      cluster.power_model().relative_capacity(0);  // sized at full speed
  std::size_t target = servers_for_load(last.arrival_rate_per_s, last.service_demand_s,
                                        capacity_fraction, kBandTargetUtilization);
  target = std::clamp(target, kMinServers, cluster.server_count());
  if (target != committed) {
    epochs_since_change_ = 0;
    last_target_ = target;
  }
  return target;
}

PredictiveProvisioner::PredictiveProvisioner(PredictiveConfig config)
    : config_(config), predictor_(config.predictor) {
  require(config_.target_utilization > 0.0 && config_.target_utilization < 1.0,
          "PredictiveProvisioner: target utilization outside (0,1)");
}

std::size_t PredictiveProvisioner::decide(const cluster::ServiceCluster& cluster,
                                          const cluster::EpochResult& last) {
  predictor_.observe(last.time_s, last.arrival_rate_per_s);
  // Look one boot time ahead: servers started now arrive then.
  const double lead_s = cluster.power_model().config().boot_time_s + last.epoch_s;
  const double predicted =
      std::max(0.0, predictor_.predict(last.time_s + lead_s) +
                        kMarginSigmas * predictor_.residual_stddev());
  const double capacity_fraction = cluster.power_model().relative_capacity(0);
  std::size_t target =
      predicted > 0.0 ? servers_for_load(predicted, last.service_demand_s,
                                         capacity_fraction, config_.target_utilization)
                      : kMinServers;
  target = std::clamp(target, kMinServers, cluster.server_count());
  // Hysteresis: prediction jitter of a server or two is not worth a boot.
  const std::size_t committed = cluster.committed_count();
  const std::size_t diff = target > committed ? target - committed : committed - target;
  if (diff <= config_.hysteresis_servers) return committed;
  return target;
}

}  // namespace epm::onoff
