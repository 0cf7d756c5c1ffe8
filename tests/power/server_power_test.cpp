#include "power/server_power.h"

#include <gtest/gtest.h>

#include <tuple>

namespace epm::power {
namespace {

TEST(ServerPowerModel, PaperIdleFraction) {
  // Paper §4.3: "a powered on server with zero workload consumes about 60%
  // of its peak power."
  ServerPowerModel model{ServerPowerConfig{}};
  EXPECT_NEAR(model.idle_power_w() / model.peak_power_w(), 0.60, 1e-12);
  EXPECT_DOUBLE_EQ(model.active_power_w(0, 0.0), model.idle_power_w());
  EXPECT_DOUBLE_EQ(model.active_power_w(0, 1.0), model.peak_power_w());
}

TEST(ServerPowerModel, PStatesOrderedFastestFirst) {
  ServerPowerModel model{ServerPowerConfig{}};
  ASSERT_EQ(model.pstate_count(), 5u);
  for (std::size_t p = 1; p < model.pstate_count(); ++p) {
    EXPECT_LT(model.pstates()[p].frequency_hz, model.pstates()[p - 1].frequency_hz);
    EXPECT_LT(model.busy_power_w(p), model.busy_power_w(p - 1));
  }
  EXPECT_DOUBLE_EQ(model.pstates().front().frequency_hz, 2.4e9);
  EXPECT_DOUBLE_EQ(model.pstates().back().frequency_hz, 1.2e9);
}

TEST(ServerPowerModel, PowerMonotoneInUtilization) {
  ServerPowerModel model{ServerPowerConfig{}};
  for (std::size_t p = 0; p < model.pstate_count(); ++p) {
    double prev = -1.0;
    for (double u = 0.0; u <= 1.0; u += 0.1) {
      const double w = model.active_power_w(p, u);
      ASSERT_GT(w, prev);
      prev = w;
    }
  }
}

TEST(ServerPowerModel, CubicDvfsSavings) {
  // At half frequency the dynamic term should drop by ~8x with exponent 3.
  ServerPowerConfig config;
  config.min_frequency_hz = 1.2e9;
  config.max_frequency_hz = 2.4e9;
  ServerPowerModel model(config);
  const double idle = model.idle_power_w();
  const double dyn_full = model.busy_power_w(0) - idle;
  const double dyn_half = model.busy_power_w(model.pstate_count() - 1) - idle;
  EXPECT_NEAR(dyn_half / dyn_full, 0.125, 1e-9);
}

TEST(ServerPowerModel, CapacityLinearInFrequencyAndDuty) {
  ServerPowerModel model{ServerPowerConfig{}};
  EXPECT_DOUBLE_EQ(model.relative_capacity(0), 1.0);
  EXPECT_DOUBLE_EQ(model.relative_capacity(model.pstate_count() - 1), 0.5);
  EXPECT_DOUBLE_EQ(model.relative_capacity(0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(model.capacity_rps(0), 100.0);
}

TEST(ServerPowerModel, DutyThrottleReducesPower) {
  ServerPowerModel model{ServerPowerConfig{}};
  const double full = model.active_power_w(0, 1.0, 1.0);
  const double half = model.active_power_w(0, 1.0, 0.5);
  EXPECT_LT(half, full);
  EXPECT_GT(half, model.idle_power_w());
  // Idle power unaffected by throttling.
  EXPECT_DOUBLE_EQ(model.active_power_w(0, 0.0, 0.5), model.idle_power_w());
}

TEST(ServerPowerModel, LowestPstateWithCapacity) {
  ServerPowerModel model{ServerPowerConfig{}};
  // Slowest state has 0.5 relative capacity.
  EXPECT_EQ(model.lowest_pstate_with_capacity(0.4), model.pstate_count() - 1);
  EXPECT_EQ(model.lowest_pstate_with_capacity(1.0), 0u);
  EXPECT_EQ(model.lowest_pstate_with_capacity(0.0), model.pstate_count() - 1);
  // Capacity 0.8 needs the state with >= 0.8 relative frequency.
  const std::size_t p = model.lowest_pstate_with_capacity(0.8);
  EXPECT_GE(model.relative_capacity(p), 0.8);
  if (p + 1 < model.pstate_count()) {
    EXPECT_LT(model.relative_capacity(p + 1), 0.8);
  }
}

TEST(ServerPowerModel, BootEnergy) {
  ServerPowerConfig config;
  config.boot_time_s = 100.0;
  config.boot_power_w = 250.0;
  ServerPowerModel model(config);
  EXPECT_DOUBLE_EQ(model.boot_energy_j(), 25000.0);
}

TEST(ServerPowerModel, SinglePStateModel) {
  ServerPowerConfig config;
  config.pstate_count = 1;
  ServerPowerModel model(config);
  EXPECT_EQ(model.pstate_count(), 1u);
  EXPECT_DOUBLE_EQ(model.relative_capacity(0), 1.0);
  EXPECT_DOUBLE_EQ(model.busy_power_w(0), kPeakPowerW);
}

TEST(ServerPowerModel, RejectsBadConfig) {
  ServerPowerConfig bad;
  bad.idle_fraction = 1.0;
  EXPECT_THROW(ServerPowerModel{bad}, std::invalid_argument);
  bad = ServerPowerConfig{};
  bad.min_frequency_hz = 3.0e9;  // above max
  EXPECT_THROW(ServerPowerModel{bad}, std::invalid_argument);
  bad = ServerPowerConfig{};
  bad.pstate_count = 0;
  EXPECT_THROW(ServerPowerModel{bad}, std::invalid_argument);
  bad = ServerPowerConfig{};
  bad.dvfs_exponent = 0.5;
  EXPECT_THROW(ServerPowerModel{bad}, std::invalid_argument);
}

TEST(ServerPowerModel, RejectsBadQueries) {
  ServerPowerModel model{ServerPowerConfig{}};
  EXPECT_THROW(model.active_power_w(99, 0.5), std::invalid_argument);
  EXPECT_THROW(model.active_power_w(0, 1.5), std::invalid_argument);
  EXPECT_THROW(model.active_power_w(0, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(model.busy_power_w(99), std::invalid_argument);
}

// Property sweep over DVFS exponents and idle fractions: busy power at any
// P-state stays within [idle, peak] and decreases with the P-state index.
class PowerCurveProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PowerCurveProperty, BusyPowerWithinBoundsAndMonotone) {
  const auto [exponent, idle_fraction] = GetParam();
  ServerPowerConfig config;
  config.dvfs_exponent = exponent;
  config.idle_fraction = idle_fraction;
  config.pstate_count = 7;
  ServerPowerModel model(config);
  double prev = model.busy_power_w(0) + 1.0;
  for (std::size_t p = 0; p < model.pstate_count(); ++p) {
    const double w = model.busy_power_w(p);
    ASSERT_LE(w, kPeakPowerW + 1e-9);
    ASSERT_GE(w, model.idle_power_w() - 1e-9);
    ASSERT_LT(w, prev);
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(Curves, PowerCurveProperty,
                         ::testing::Combine(::testing::Values(1.0, 2.0, 3.0),
                                            ::testing::Values(0.3, 0.6, 0.8)));

}  // namespace
}  // namespace epm::power
