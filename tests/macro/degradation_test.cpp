#include "macro/degradation.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace {

using epm::faults::FaultEvent;
using epm::faults::FaultType;
using epm::macro::DegradationAction;
using epm::macro::DegradationPolicy;
using epm::macro::DegradationPolicyConfig;
using epm::macro::kRequiredRideThroughS;
using epm::macro::kSetpointDropC;
using epm::macro::kSetpointRaiseC;

FaultEvent outage(double start_s = 0.0, double duration_s = 600.0) {
  return {FaultType::kUtilityOutage, start_s, duration_s, 0, 1.0};
}

TEST(DegradationPolicy, NeutralWithoutActiveFaults) {
  DegradationPolicy policy(DegradationPolicyConfig{}, 2);
  const DegradationAction action = policy.react(0.0, 1.0e9);
  EXPECT_FALSE(policy.any_fault_active());
  EXPECT_FALSE(action.power_emergency);
  EXPECT_FALSE(action.cooling_emergency);
  EXPECT_FALSE(action.throttle);
  EXPECT_DOUBLE_EQ(action.serve_scale[0], 1.0);
  EXPECT_DOUBLE_EQ(action.serve_scale[1], 1.0);
  EXPECT_DOUBLE_EQ(action.shed_scale[1], 0.0);
  EXPECT_DOUBLE_EQ(action.setpoint_delta_c, 0.0);
}

TEST(DegradationPolicy, OutageWithThinBatteryShedsAndReroutes) {
  DegradationPolicyConfig config;
  DegradationPolicy policy(config, 2);
  EXPECT_TRUE(policy.on_fault(outage(), true, 0.0));

  // Comfortable ride-through: emergency posture but no shedding yet.
  DegradationAction calm = policy.react(0.0, kRequiredRideThroughS * 2);
  EXPECT_TRUE(calm.power_emergency);
  EXPECT_DOUBLE_EQ(calm.shed_scale[config.low_tier_service], 0.0);
  EXPECT_FALSE(calm.throttle);

  // Thin ride-through: shed the batch tier, re-route interactive, throttle,
  // raise setpoints.
  DegradationAction urgent =
      policy.react(60.0, kRequiredRideThroughS / 10.0);
  EXPECT_DOUBLE_EQ(urgent.shed_scale[1], config.low_tier_shed_fraction);
  EXPECT_DOUBLE_EQ(urgent.reroute_scale[0], config.reroute_fraction);
  EXPECT_DOUBLE_EQ(urgent.reroute_scale[1], 0.0);
  EXPECT_TRUE(urgent.throttle);
  EXPECT_TRUE(urgent.consolidation_paused);
  EXPECT_DOUBLE_EQ(urgent.setpoint_delta_c, kSetpointRaiseC);
  EXPECT_DOUBLE_EQ(urgent.serve_scale[0], 1.0 - config.reroute_fraction);
  EXPECT_DOUBLE_EQ(urgent.serve_scale[1], 1.0 - config.low_tier_shed_fraction);

  // Clearing the outage restores the neutral posture exactly.
  policy.on_fault(outage(), false, 600.0);
  DegradationAction after = policy.react(660.0, 1.0e9);
  EXPECT_FALSE(after.power_emergency);
  EXPECT_DOUBLE_EQ(after.serve_scale[0], 1.0);
  EXPECT_DOUBLE_EQ(after.serve_scale[1], 1.0);
  EXPECT_FALSE(policy.any_fault_active());
}

TEST(DegradationPolicy, CracFailureTriggersCoolingEmergency) {
  DegradationPolicyConfig config;
  DegradationPolicy policy(config, 2);
  policy.on_fault({FaultType::kCracFailure, 0.0, 600.0, 0, 1.0}, true, 0.0);
  EXPECT_DOUBLE_EQ(policy.cooling_loss(), 1.0);

  const DegradationAction action = policy.react(0.0, 1.0e9);
  EXPECT_TRUE(action.cooling_emergency);
  EXPECT_FALSE(action.power_emergency);
  EXPECT_DOUBLE_EQ(action.shed_scale[1], config.cooling_shed_fraction);
  EXPECT_DOUBLE_EQ(action.healthy_setpoint_delta_c, -kSetpointDropC);
  EXPECT_DOUBLE_EQ(action.reroute_scale[0], 0.0);
}

TEST(DegradationPolicy, PartialDerateShedsProportionally) {
  DegradationPolicyConfig config;
  DegradationPolicy policy(config, 2);
  policy.on_fault({FaultType::kCoolingDerate, 0.0, 600.0, 0, 0.5}, true, 0.0);
  const DegradationAction action = policy.react(0.0, 1.0e9);
  EXPECT_DOUBLE_EQ(policy.cooling_loss(), 0.5);
  EXPECT_DOUBLE_EQ(action.shed_scale[1], 0.5 * config.cooling_shed_fraction);
  EXPECT_DOUBLE_EQ(action.healthy_setpoint_delta_c,
                   -0.5 * kSetpointDropC);

  policy.on_fault({FaultType::kCoolingDerate, 0.0, 600.0, 0, 0.5}, false, 600.0);
  EXPECT_DOUBLE_EQ(policy.cooling_loss(), 0.0);
  EXPECT_FALSE(policy.react(660.0, 1.0e9).cooling_emergency);
}

TEST(DegradationPolicy, SensorFaultsAreNotHandled) {
  DegradationPolicy policy(DegradationPolicyConfig{}, 2);
  EXPECT_FALSE(
      policy.on_fault({FaultType::kSensorDropout, 0.0, 60.0, 0, 1.0}, true, 0.0));
  EXPECT_FALSE(
      policy.on_fault({FaultType::kSensorStuck, 0.0, 60.0, 1, 1.0}, true, 0.0));
  // They still count as active (consolidation pauses conservatively).
  EXPECT_TRUE(policy.any_fault_active());
}

TEST(DegradationPolicy, PostureTransitionsLandInDecisionLog) {
  epm::macro::DecisionLog log;
  DegradationPolicyConfig config;
  DegradationPolicy policy(config, 2, &log);
  policy.on_fault(outage(), true, 0.0);
  policy.react(0.0, 0.0);
  policy.react(60.0, 0.0);  // same posture — must not double-log

  EXPECT_EQ(log.count(epm::macro::DecisionKind::kRiskAlert), 1u);
  EXPECT_EQ(log.count(epm::macro::DecisionKind::kLoadShedding), 1u);
  EXPECT_EQ(log.count(epm::macro::DecisionKind::kLoadBalancing), 1u);
  EXPECT_EQ(log.count(epm::macro::DecisionKind::kPowerCapping), 1u);
  EXPECT_EQ(log.count(epm::macro::DecisionKind::kCoolingControl), 1u);
}

TEST(DegradationPolicy, RejectsBadConfig) {
  DegradationPolicyConfig bad_tier;
  bad_tier.low_tier_service = 5;
  EXPECT_THROW(DegradationPolicy(bad_tier, 2), std::invalid_argument);

  DegradationPolicyConfig bad_shed;
  bad_shed.low_tier_shed_fraction = 1.5;
  EXPECT_THROW(DegradationPolicy(bad_shed, 2), std::invalid_argument);
}

}  // namespace
