// Coordinated joint DVFS x On/Off optimization (paper §5.1).
//
// The paper's instability example (ref [29]) arises because the DVFS policy
// and the On/Off policy each optimize alone: DVFS slows servers when
// utilization is low, the delay-threshold On/Off policy reads the resulting
// latency as overload and turns more servers on, and the cycle "may lead to
// poor energy performance, even despite the fact that both... have the same
// energy saving goal."
//
// The coordinated policy removes the cycle by choosing the pair (server
// count, P-state) in one optimization: minimize predicted cluster power
// subject to the predicted M/G/1-PS response time meeting the SLA.
#pragma once

#include <cstddef>

#include "cluster/service_cluster.h"
#include "power/server_power.h"

namespace epm::macro {

struct JointDecision {
  std::size_t servers = 0;
  std::size_t pstate = 0;
  double predicted_power_w = 0.0;
  double predicted_response_s = 0.0;
  double predicted_utilization = 0.0;
  bool feasible = false;  ///< false when even (max servers, P0) misses SLA
};

/// Highest per-server utilization the joint policy plans for.
inline constexpr double kJointMaxUtilization = 0.90;

struct JointPolicyConfig {
  /// Keep predicted response below target * headroom (slack for prediction
  /// error and epoch-scale variation).
  double response_headroom = 0.8;
  std::size_t min_servers = 1;
  /// Penalty (in joules) charged per server-state change, making the
  /// optimizer reluctant to churn the fleet for marginal wins. Expressed as
  /// equivalent watt-epochs in the objective.
  double switching_penalty_w = 40.0;
};

/// Solves for minimum-power (servers, pstate) given a predicted arrival
/// rate. `current_servers` anchors the switching penalty.
JointDecision decide_joint(const power::ServerPowerModel& model,
                           std::size_t max_servers, std::size_t current_servers,
                           double predicted_arrival_rate, double service_demand_s,
                           double sla_target_s, const JointPolicyConfig& config = {});

/// Predicted cluster power for `servers` at `pstate` under the given load:
/// idle floor + utilization-proportional dynamic power per server.
double predicted_cluster_power_w(const power::ServerPowerModel& model,
                                 std::size_t servers, std::size_t pstate,
                                 double arrival_rate, double service_demand_s);

}  // namespace epm::macro
