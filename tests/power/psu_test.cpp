#include "power/psu.h"

#include <gtest/gtest.h>

namespace epm::power {
namespace {

TEST(Psu, EfficiencyWithinConfiguredBounds) {
  Psu psu{PsuConfig{}};
  for (double out = 0.0; out <= 450.0; out += 25.0) {
    const double eff = psu.efficiency_at(out);
    ASSERT_GE(eff, 0.77);
    ASSERT_LE(eff, 0.92 + 1e-9);
  }
}

TEST(Psu, PeakEfficiencyAtConfiguredLoadPoint) {
  PsuConfig config;
  Psu psu(config);
  const double at_peak = psu.efficiency_at(config.rated_output_w * 0.5);
  EXPECT_NEAR(at_peak, kPeakEfficiency, 1e-9);
  EXPECT_LT(psu.efficiency_at(config.rated_output_w * 0.1), at_peak);
  EXPECT_LE(psu.efficiency_at(config.rated_output_w), at_peak);
}

TEST(Psu, LightLoadIsLessEfficient) {
  Psu psu{PsuConfig{}};
  EXPECT_LT(psu.efficiency_at(45.0), psu.efficiency_at(225.0));
}

TEST(Psu, InputPowerExceedsOutput) {
  Psu psu{PsuConfig{}};
  for (double out : {50.0, 150.0, 300.0, 450.0}) {
    EXPECT_GT(psu.input_power_w(out), out);
    EXPECT_NEAR(psu.loss_w(out), psu.input_power_w(out) - out, 1e-9);
  }
  EXPECT_DOUBLE_EQ(psu.input_power_w(0.0), 0.0);
}

TEST(Psu, InputPowerMonotoneInOutput) {
  Psu psu{PsuConfig{}};
  double prev = 0.0;
  for (double out = 10.0; out <= 450.0; out += 10.0) {
    const double in = psu.input_power_w(out);
    ASSERT_GT(in, prev);
    prev = in;
  }
}

TEST(Psu, RejectsBadConfigAndInput) {
  PsuConfig bad;
  bad.rated_output_w = 0.0;
  EXPECT_THROW(Psu{bad}, std::invalid_argument);
  bad = PsuConfig{};
  bad.efficiency_at_10pct = 0.95;  // above peak
  EXPECT_THROW(Psu{bad}, std::invalid_argument);
  Psu psu{PsuConfig{}};
  EXPECT_THROW(psu.efficiency_at(-1.0), std::invalid_argument);
  EXPECT_THROW(psu.input_power_w(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace epm::power
