// Randomized invariant sweeps for the coordinated joint optimizer: every
// feasible decision must actually satisfy the constraints it claims, and no
// brute-force configuration may beat it on the pure-power objective.
#include <gtest/gtest.h>

#include "cluster/queueing.h"
#include "core/rng.h"
#include "macro/joint_policy.h"

namespace epm::macro {
namespace {

class JointPolicyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JointPolicyProperty, FeasibleDecisionsSatisfyConstraints) {
  Rng rng(GetParam());
  const power::ServerPowerModel model{power::ServerPowerConfig{}};
  JointPolicyConfig config;
  config.switching_penalty_w = 0.0;
  for (int round = 0; round < 300; ++round) {
    const auto max_servers = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const double lambda = rng.uniform(0.0, 10000.0);
    const double demand = rng.uniform(0.001, 0.05);
    const double sla = rng.uniform(0.01, 1.0);
    const auto d = decide_joint(model, max_servers, 0, lambda, demand, sla, config);
    if (!d.feasible) continue;
    ASSERT_GE(d.servers, 1u);
    ASSERT_LE(d.servers, max_servers);
    ASSERT_LT(d.predicted_utilization, kJointMaxUtilization + 1e-9);
    ASSERT_LE(d.predicted_response_s, sla * config.response_headroom + 1e-9)
        << "lambda=" << lambda << " demand=" << demand << " sla=" << sla;
  }
}

TEST_P(JointPolicyProperty, NoBruteForceConfigBeatsTheDecision) {
  Rng rng(GetParam() + 50);
  const power::ServerPowerModel model{power::ServerPowerConfig{}};
  JointPolicyConfig config;
  config.switching_penalty_w = 0.0;
  for (int round = 0; round < 25; ++round) {
    const std::size_t max_servers = 80;
    const double lambda = rng.uniform(100.0, 6000.0);
    const double demand = 0.01;
    const double sla = rng.uniform(0.03, 0.5);
    const auto d = decide_joint(model, max_servers, 0, lambda, demand, sla, config);
    if (!d.feasible) continue;
    const double target = sla * config.response_headroom;
    for (std::size_t p = 0; p < model.pstate_count(); ++p) {
      for (std::size_t n = 1; n <= max_servers; ++n) {
        const double cap = model.relative_capacity(p);
        const double rate = static_cast<double>(n) * cap / demand;
        const double rho = lambda / rate;
        if (rho >= kJointMaxUtilization) continue;
        const double resp = cluster::mg1ps_response_time_s(demand / cap, rho);
        if (resp > target) continue;
        const double power = predicted_cluster_power_w(model, n, p, lambda, demand);
        ASSERT_GE(power + 1e-6, d.predicted_power_w)
            << "n=" << n << " p=" << p << " beats the optimizer";
      }
    }
  }
}

TEST_P(JointPolicyProperty, PowerMonotoneInDemand) {
  Rng rng(GetParam() + 99);
  const power::ServerPowerModel model{power::ServerPowerConfig{}};
  JointPolicyConfig config;
  config.switching_penalty_w = 0.0;
  for (int round = 0; round < 50; ++round) {
    const double sla = rng.uniform(0.05, 0.5);
    const double low = rng.uniform(0.0, 3000.0);
    const double high = low + rng.uniform(0.0, 3000.0);
    const auto d_low = decide_joint(model, 500, 0, low, 0.01, sla, config);
    const auto d_high = decide_joint(model, 500, 0, high, 0.01, sla, config);
    if (d_low.feasible && d_high.feasible) {
      ASSERT_LE(d_low.predicted_power_w, d_high.predicted_power_w + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JointPolicyProperty, ::testing::Values(7, 8));

}  // namespace
}  // namespace epm::macro
