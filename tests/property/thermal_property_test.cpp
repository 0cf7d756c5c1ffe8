// Randomized invariant sweeps for the thermal models.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.h"
#include "thermal/cooling_plant.h"
#include "thermal/room.h"
#include "thermal/zone.h"

namespace epm::thermal {
namespace {

class ThermalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThermalProperty, ZoneTemperatureStaysPhysical) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    ZoneConfig config;
    config.heat_capacity_j_per_c = rng.uniform(1.0e5, 5.0e6);
    config.conductance_w_per_c = rng.uniform(500.0, 8.0e3);
    config.supply_lag_s = rng.uniform(0.0, 900.0);
    config.initial_temp_c = rng.uniform(15.0, 30.0);
    ThermalZone zone(config);
    const double supply = rng.uniform(12.0, 27.0);
    const double heat = rng.uniform(0.0, 40.0e3);
    const double steady = zone.steady_state_c(heat, supply);
    // The lagged supply starts at the initial temperature and relaxes toward
    // the command, so the transient target ranges over
    // [min(supply, initial), max(supply, initial)] + heat/G.
    const double dT = heat / config.conductance_w_per_c;
    const double lo = std::min({config.initial_temp_c, supply, steady}) - 1e-6;
    const double hi =
        std::max({config.initial_temp_c,
                  std::max(supply, config.initial_temp_c) + dT}) +
        1e-6;
    for (int step = 0; step < 200; ++step) {
      zone.step(rng.uniform(1.0, 600.0), heat, supply);
      ASSERT_GE(zone.temperature_c(), lo);
      ASSERT_LE(zone.temperature_c(), hi);
    }
    // Long enough: converged to the steady state.
    zone.step(1.0e7, heat, supply);
    zone.step(1.0e7, heat, supply);
    ASSERT_NEAR(zone.temperature_c(), steady, 0.05);
  }
}

TEST_P(ThermalProperty, CracSupplyAlwaysWithinRange) {
  Rng rng(GetParam() + 5);
  for (int round = 0; round < 50; ++round) {
    CracConfig config;
    config.gain = rng.uniform(0.1, 5.0);
    config.zone_sensitivity = {rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)};
    Crac crac(config);
    for (int step = 0; step < 100; ++step) {
      crac.control_step({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
      ASSERT_GE(crac.supply_temp_c(), config.min_supply_c - 1e-12);
      ASSERT_LE(crac.supply_temp_c(), kMaxSupplyC + 1e-12);
    }
  }
}

TEST_P(ThermalProperty, CoolingDrawNonNegativeAndMonotoneInHeat) {
  Rng rng(GetParam() + 9);
  for (int round = 0; round < 100; ++round) {
    CoolingPlantConfig config;
    config.has_economizer = rng.bernoulli(0.5);
    const CoolingPlant plant(config);
    const double supply = rng.uniform(12.0, 27.0);
    const double outside = rng.uniform(-20.0, 40.0);
    const double h1 = rng.uniform(0.0, 500.0e3);
    const double h2 = h1 + rng.uniform(0.0, 500.0e3);
    const auto d1 = plant.power_draw(h1, supply, outside);
    const auto d2 = plant.power_draw(h2, supply, outside);
    ASSERT_GE(d1.total_w(), 0.0);
    ASSERT_LE(d1.total_w(), d2.total_w() + 1e-9);
    // Economizer mode never burns more than chiller mode for the same heat.
    if (d1.economizer_active) {
      CoolingPlantConfig no_econ = config;
      no_econ.has_economizer = false;
      const CoolingPlant chiller_only(no_econ);
      ASSERT_LE(d1.total_w(), chiller_only.power_draw(h1, supply, outside).total_w() + 1e-9);
    }
  }
}

TEST_P(ThermalProperty, RoomConvergesToZoneSteadyStates) {
  Rng rng(GetParam() + 13);
  for (int round = 0; round < 10; ++round) {
    MachineRoomConfig config;
    ZoneConfig zone;
    zone.supply_lag_s = rng.uniform(0.0, 600.0);
    config.zones = {zone};
    CracConfig crac;
    crac.zone_sensitivity = {1.0};
    config.cracs = {crac};
    config.airflow_share = {{1.0}};
    MachineRoom room(config);
    const double heat = rng.uniform(1.0e3, 30.0e3);
    room.run_until(48.0 * 3600.0, {heat});
    // In equilibrium the zone sits at supply + heat/G for the final supply.
    const double expected =
        room.crac(0).supply_temp_c() + heat / zone.conductance_w_per_c;
    ASSERT_NEAR(room.zone(0).temperature_c(), expected, 0.2) << "heat " << heat;
    ASSERT_NEAR(room.heat_removal_w(), heat, heat * 0.02 + 10.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThermalProperty, ::testing::Values(41, 42));

}  // namespace
}  // namespace epm::thermal
