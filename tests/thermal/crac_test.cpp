#include "thermal/crac.h"

#include <gtest/gtest.h>

namespace epm::thermal {
namespace {

CracConfig two_zone_crac() {
  CracConfig c;
  c.zone_sensitivity = {0.8, 0.2};
  return c;
}

TEST(Crac, ObservedReturnIsSensitivityWeighted) {
  Crac crac(two_zone_crac());
  EXPECT_NEAR(crac.observed_return_c({20.0, 30.0}), 0.8 * 20.0 + 0.2 * 30.0, 1e-12);
}

TEST(Crac, BlindZoneBarelyMoves) {
  CracConfig c;
  c.zone_sensitivity = {0.95, 0.05};
  Crac crac(c);
  // Zone B is scorching but the CRAC barely sees it.
  EXPECT_LT(crac.observed_return_c({22.0, 40.0}), 23.0);
}

TEST(Crac, CoolsWhenObservedAboveSetpoint) {
  Crac crac(two_zone_crac());
  const double before = crac.supply_temp_c();
  crac.control_step({30.0, 30.0});  // observed 30 > 24 setpoint
  EXPECT_LT(crac.supply_temp_c(), before);
}

TEST(Crac, WarmsWhenObservedBelowSetpoint) {
  // "The CRAC then believes that there is not much heat generated in its
  //  effective zone and thus increases the temperature of the cooling air."
  Crac crac(two_zone_crac());
  const double before = crac.supply_temp_c();
  crac.control_step({18.0, 18.0});
  EXPECT_GT(crac.supply_temp_c(), before);
}

TEST(Crac, DeadbandSuppressesSmallErrors) {
  Crac crac(two_zone_crac());
  const double before = crac.supply_temp_c();
  crac.control_step({24.3, 24.3});  // within +-0.5 deadband
  EXPECT_DOUBLE_EQ(crac.supply_temp_c(), before);
}

TEST(Crac, SupplyClampedToRange) {
  CracConfig c = two_zone_crac();
  c.gain = 10.0;
  Crac crac(c);
  for (int i = 0; i < 20; ++i) crac.control_step({60.0, 60.0});
  EXPECT_DOUBLE_EQ(crac.supply_temp_c(), c.min_supply_c);
  for (int i = 0; i < 40; ++i) crac.control_step({5.0, 5.0});
  EXPECT_DOUBLE_EQ(crac.supply_temp_c(), kMaxSupplyC);
}

TEST(Crac, ControlActionCounter) {
  Crac crac(two_zone_crac());
  crac.control_step({25.0, 25.0});
  crac.control_step({25.0, 25.0});
  EXPECT_EQ(crac.control_actions(), 2u);
}

TEST(Crac, ManualOverrideValidated) {
  Crac crac(two_zone_crac());
  crac.set_supply_temp_c(20.0);
  EXPECT_DOUBLE_EQ(crac.supply_temp_c(), 20.0);
  EXPECT_THROW(crac.set_supply_temp_c(5.0), std::invalid_argument);
  EXPECT_THROW(crac.set_supply_temp_c(40.0), std::invalid_argument);
}

TEST(Crac, RejectsBadConfig) {
  CracConfig bad = two_zone_crac();
  bad.zone_sensitivity = {};
  EXPECT_THROW(Crac{bad}, std::invalid_argument);
  bad = two_zone_crac();
  bad.zone_sensitivity = {0.0, 0.0};
  EXPECT_THROW(Crac{bad}, std::invalid_argument);
  bad = two_zone_crac();
  bad.control_period_s = 0.0;
  EXPECT_THROW(Crac{bad}, std::invalid_argument);
  Crac crac(two_zone_crac());
  EXPECT_THROW(crac.observed_return_c({20.0}), std::invalid_argument);
}

}  // namespace
}  // namespace epm::thermal
