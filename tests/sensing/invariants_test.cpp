#include "sensing/invariants.h"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace {

using epm::sensing::InvariantInputs;
using epm::sensing::InvariantMonitor;
using epm::sensing::InvariantMonitorConfig;

InvariantMonitorConfig recording_config() {
  InvariantMonitorConfig config;
  config.throw_on_violation = false;
  return config;
}

/// A physically consistent epoch: 100 kW IT + 30 kW mechanical covered by
/// the utility draw, PUE > 1, modest temperatures, no drops.
InvariantInputs healthy_inputs() {
  InvariantInputs in;
  in.time_s = 3600.0;
  in.it_power_w = 100e3;
  in.mechanical_power_w = 30e3;
  in.utility_draw_w = 135e3;
  in.pue = 1.35;
  in.max_zone_temp_c = 28.5;
  in.zone_temps_c = {28.5, 26.0};
  in.arrival_rate_per_s = {4000.0, 2500.0};
  in.dropped_rate_per_s = {0.0, 12.5};
  in.state_of_charge = 0.93;
  return in;
}

TEST(InvariantMonitorTest, HealthyEpochPassesEveryCheck) {
  InvariantMonitor monitor(recording_config());
  monitor.check(healthy_inputs());
  EXPECT_TRUE(monitor.ok());
  EXPECT_EQ(monitor.violation_count(), 0u);
  EXPECT_EQ(monitor.checks(), 1u);
  EXPECT_NE(monitor.report().find("all invariants held"), std::string::npos);
}

TEST(InvariantMonitorTest, BrokenEnergyConservationIsNamedInTheReport) {
  InvariantMonitor monitor(recording_config());
  // A deliberately broken power tree: the utility supposedly delivers less
  // than the facility consumes — free energy.
  auto in = healthy_inputs();
  in.utility_draw_w = 90e3;
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].name, "energy-conservation");
  EXPECT_NE(monitor.report().find("energy-conservation"), std::string::npos);
  EXPECT_NE(monitor.report().find("t=3600"), std::string::npos);
}

TEST(InvariantMonitorTest, ServedAboveOfferedIsCaught) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.dropped_rate_per_s = {5000.0, 0.0};  // dropping more than was offered
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "served-within-offered");
}

TEST(InvariantMonitorTest, NegativeDropRateIsCaught) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.dropped_rate_per_s = {-1.0, 0.0};
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "served-within-offered");
}

TEST(InvariantMonitorTest, PueBelowOneIsCaughtOnlyUnderRealLoad) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.pue = 0.8;
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "pue-floor");

  // A dark facility reports PUE 0 by convention; that must not violate.
  InvariantMonitor dark(recording_config());
  InvariantInputs idle;
  idle.pue = 0.0;
  dark.check(idle);
  EXPECT_TRUE(dark.ok());
}

TEST(InvariantMonitorTest, TemperatureAndSocBoundsAreChecked) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.zone_temps_c[1] = 300.0;  // beyond any machine-room physics
  in.max_zone_temp_c = 300.0;
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "temperature-bounds");

  InvariantMonitor soc(recording_config());
  auto in2 = healthy_inputs();
  in2.state_of_charge = 1.7;
  soc.check(in2);
  EXPECT_FALSE(soc.ok());
  EXPECT_EQ(soc.violations()[0].name, "soc-bounds");
}

TEST(InvariantMonitorTest, TemperatureViolationsNameTheReading) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.zone_temps_c = {-41.25, 150.5};
  in.max_zone_temp_c = 150.5;
  monitor.check(in);
  ASSERT_EQ(monitor.violations().size(), 3u);
  EXPECT_EQ(monitor.violations()[0].detail, "max zone at 150.5C");
  EXPECT_EQ(monitor.violations()[1].detail, "zone 0 at -41.25C");
  EXPECT_EQ(monitor.violations()[2].detail, "zone 1 at 150.5C");
  for (const auto& v : monitor.violations()) {
    EXPECT_EQ(v.name, "temperature-bounds");
    EXPECT_EQ(v.time_s, 3600.0);
  }
}

TEST(InvariantMonitorTest, CheckScalarViolationDetailShowsValueAndBounds) {
  InvariantMonitor monitor(recording_config());
  monitor.check_scalar("soc-bounds", 1.0625, 0.0, 1.0, 60.0);
  monitor.check_scalar("headroom", -0.2, 0.25, 7.5, 120.0);
  ASSERT_EQ(monitor.violations().size(), 2u);
  EXPECT_EQ(monitor.violations()[0].detail, "1.0625 outside [0, 1]");
  EXPECT_EQ(monitor.violations()[1].name, "headroom");
  EXPECT_EQ(monitor.violations()[1].detail, "-0.2 outside [0.25, 7.5]");
  EXPECT_EQ(monitor.checks(), 2u);
}

TEST(InvariantMonitorTest, NonFiniteStateShortCircuits) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.it_power_w = std::numeric_limits<double>::quiet_NaN();
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  ASSERT_EQ(monitor.violations().size(), 1u);  // later checks skipped
  EXPECT_EQ(monitor.violations()[0].name, "finite-state");
}

TEST(InvariantMonitorTest, NegativePowerIsCaught) {
  InvariantMonitor monitor(recording_config());
  auto in = healthy_inputs();
  in.mechanical_power_w = -500.0;
  monitor.check(in);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "non-negative-power");
}

TEST(InvariantMonitorTest, ThrowModeAbortsWithNamedReport) {
  InvariantMonitorConfig config;
  config.throw_on_violation = true;
  InvariantMonitor monitor(config);
  auto in = healthy_inputs();
  in.utility_draw_w = 0.0;
  try {
    monitor.check(in);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("energy-conservation"),
              std::string::npos);
  }
}

TEST(InvariantMonitorTest, CheckScalarBoundsArbitraryQuantities) {
  InvariantMonitor monitor(recording_config());
  monitor.check_scalar("soc-bounds", 0.5, 0.0, 1.0, 100.0);
  EXPECT_TRUE(monitor.ok());
  monitor.check_scalar("soc-bounds", -0.2, 0.0, 1.0, 200.0);
  EXPECT_FALSE(monitor.ok());
  EXPECT_EQ(monitor.violations()[0].name, "soc-bounds");
}

TEST(InvariantMonitorTest, RecordingIsBoundedButCountingIsNot) {
  InvariantMonitorConfig config;
  config.throw_on_violation = false;
  config.max_recorded = 2;
  InvariantMonitor monitor(config);
  for (int i = 0; i < 5; ++i) {
    monitor.check_scalar("soc-bounds", 2.0, 0.0, 1.0, i * 60.0);
  }
  EXPECT_EQ(monitor.violations().size(), 2u);
  EXPECT_EQ(monitor.violation_count(), 5u);
}

}  // namespace
