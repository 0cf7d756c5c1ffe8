#include "macro/joint_policy.h"

#include <algorithm>
#include <cmath>

#include "cluster/queueing.h"
#include "core/require.h"

namespace epm::macro {

static_assert(kJointMaxUtilization > 0.0 && kJointMaxUtilization < 1.0);

double predicted_cluster_power_w(const power::ServerPowerModel& model,
                                 std::size_t servers, std::size_t pstate,
                                 double arrival_rate, double service_demand_s) {
  require(servers >= 1, "predicted_cluster_power_w: need at least one server");
  const double capacity_rps =
      static_cast<double>(servers) * model.relative_capacity(pstate) / service_demand_s;
  const double rho = std::min(arrival_rate / capacity_rps, 1.0);
  return static_cast<double>(servers) * model.active_power_w(pstate, rho);
}

JointDecision decide_joint(const power::ServerPowerModel& model,
                           std::size_t max_servers, std::size_t current_servers,
                           double predicted_arrival_rate, double service_demand_s,
                           double sla_target_s, const JointPolicyConfig& config) {
  require(max_servers >= 1, "decide_joint: need at least one server");
  require(predicted_arrival_rate >= 0.0, "decide_joint: negative arrival rate");
  require(service_demand_s > 0.0, "decide_joint: demand must be positive");
  require(sla_target_s > 0.0, "decide_joint: SLA target must be positive");
  require(config.response_headroom > 0.0 && config.response_headroom <= 1.0,
          "decide_joint: headroom outside (0,1]");

  const double target_s = sla_target_s * config.response_headroom;
  JointDecision best;
  double best_cost = 0.0;

  // Iterate slowest-first so equal-cost ties resolve to the slower (cooler)
  // state — e.g. at zero load every P-state costs the same idle floor.
  for (std::size_t p = model.pstate_count(); p-- > 0;) {
    const double cap = model.relative_capacity(p);
    const double service_s = service_demand_s / cap;  // per-request at this state
    if (service_s >= target_s) continue;  // even an idle server is too slow
    // Response constraint: service_s / (1 - rho) <= target  =>
    //   rho <= 1 - service_s / target.
    const double rho_limit =
        std::min(kJointMaxUtilization, 1.0 - service_s / target_s);
    if (rho_limit <= 0.0) continue;
    const double per_server_rate = cap / service_demand_s;
    std::size_t n =
        predicted_arrival_rate > 0.0
            ? static_cast<std::size_t>(
                  std::ceil(predicted_arrival_rate / (per_server_rate * rho_limit) - 1e-9))
            : config.min_servers;
    n = std::max(n, config.min_servers);
    if (n > max_servers) continue;

    const double power = predicted_cluster_power_w(model, n, p, predicted_arrival_rate,
                                                   service_demand_s);
    const double churn =
        static_cast<double>(n > current_servers ? n - current_servers
                                                : current_servers - n);
    const double cost = power + config.switching_penalty_w * churn;
    if (!best.feasible || cost < best_cost) {
      best.feasible = true;
      best_cost = cost;
      best.servers = n;
      best.pstate = p;
      best.predicted_power_w = power;
      const double rho = predicted_arrival_rate /
                         (static_cast<double>(n) * per_server_rate);
      best.predicted_utilization = rho;
      best.predicted_response_s =
          rho < 1.0 ? cluster::mg1ps_response_time_s(service_s, rho) : target_s;
    }
  }

  if (!best.feasible) {
    // SLA unreachable: run everything flat out (graceful degradation).
    best.servers = max_servers;
    best.pstate = 0;
    best.predicted_power_w = predicted_cluster_power_w(
        model, max_servers, 0, predicted_arrival_rate, service_demand_s);
    const double per_server_rate = model.relative_capacity(0) / service_demand_s;
    best.predicted_utilization = predicted_arrival_rate /
                                 (static_cast<double>(max_servers) * per_server_rate);
  }
  return best;
}

}  // namespace epm::macro
