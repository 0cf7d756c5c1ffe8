#include "macro/coordinator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "macro/uncoordinated.h"

namespace epm::macro {
namespace {

std::vector<double> demand_at(double t_s) {
  // Mild diurnal demand in requests/s for {web, batch}.
  const double phase = t_s / 86400.0 * 2.0 * 3.14159265358979;
  const double web = 900.0 + 500.0 * std::sin(phase);
  const double batch = 600.0 + 200.0 * std::sin(phase + 1.0);
  return {std::max(web, 50.0), std::max(batch, 50.0)};
}

TEST(MacroResourceManager, ProducesDecisionsOfEveryCoreKind) {
  Facility facility(make_reference_facility(40));
  MacroResourceManager manager(facility);
  for (int i = 0; i < 60; ++i) {
    manager.step(demand_at(facility.now_s()), 22.0);
  }
  const auto& log = manager.log();
  EXPECT_GT(log.count(DecisionKind::kServerAllocation), 0u);
  EXPECT_GT(log.count(DecisionKind::kDvfs), 0u);
  EXPECT_GT(log.count(DecisionKind::kCoolingControl), 0u);
  EXPECT_GT(log.size(), 10u);
}

TEST(MacroResourceManager, ScalesFleetDownOffPeak) {
  Facility facility(make_reference_facility(40));
  MacroResourceManager manager(facility);
  // Constant low demand: the fleet should shrink well below 40.
  for (int i = 0; i < 60; ++i) manager.step({200.0, 200.0}, 22.0);
  EXPECT_LT(facility.service(0).committed_count(), 20u);
  EXPECT_LT(facility.service(1).committed_count(), 20u);
}

TEST(MacroResourceManager, KeepsSlaUnderSteadyLoad) {
  Facility facility(make_reference_facility(40));
  MacroResourceManager manager(facility);
  std::size_t violations_after_warmup = 0;
  for (int i = 0; i < 120; ++i) {
    const auto step = manager.step({1500.0, 800.0}, 22.0);
    if (i >= 20) {
      for (const auto& svc : step.services) {
        if (svc.sla_violated) ++violations_after_warmup;
      }
    }
  }
  // Steady demand, ample fleet: nearly no violations after warm-up.
  EXPECT_LE(violations_after_warmup, 4u);
}

TEST(MacroResourceManager, CoolingOverrideDisablesCracAutopilot) {
  Facility facility(make_reference_facility(40));
  MacroResourceManager manager(facility);
  manager.step({500.0, 500.0}, 22.0);
  // Coordinated mode pins the CRAC; its own controller must not act.
  const auto actions_before = facility.room().crac(0).control_actions();
  for (int i = 0; i < 30; ++i) manager.step({500.0, 500.0}, 22.0);
  EXPECT_EQ(facility.room().crac(0).control_actions(), actions_before);
}

TEST(MacroResourceManager, EnergyBeatsUncoordinatedAtEqualOrBetterSla) {
  // The paper's core claim (§1, §3.2): coordination across cyber and
  // physical beats per-knob local policies.
  const auto config = make_reference_facility(40);

  Facility coordinated_facility(config);
  MacroResourceManager manager(coordinated_facility);
  Facility uncoordinated_facility(config);
  UncoordinatedStack baseline(uncoordinated_facility);

  for (int i = 0; i < 240; ++i) {  // 4 simulated hours
    const auto demand = demand_at(coordinated_facility.now_s());
    manager.step(demand, 22.0);
    baseline.step(demand, 22.0);
  }

  const double coord_energy = coordinated_facility.total_energy_j();
  const double uncoord_energy = uncoordinated_facility.total_energy_j();
  EXPECT_LT(coord_energy, uncoord_energy);
}

TEST(MacroResourceManager, PowerBudgetTriggersCapping) {
  auto config = make_reference_facility(40);
  Facility facility(config);
  MacroManagerConfig mc;
  mc.power_budget_w = 5000.0;  // absurdly tight: forces capping
  MacroResourceManager manager(facility, mc);
  for (int i = 0; i < 20; ++i) manager.step({3000.0, 3000.0}, 22.0);
  EXPECT_GT(manager.capping_epochs(), 0u);
  EXPECT_GT(manager.log().count(DecisionKind::kPowerCapping), 0u);
}

TEST(UncoordinatedStack, ReactsToLoad) {
  Facility facility(make_reference_facility(40));
  UncoordinatedStack baseline(facility);
  for (int i = 0; i < 30; ++i) baseline.step({200.0, 200.0}, 22.0);
  // The delay-threshold policy should have shrunk the fleet from 40.
  EXPECT_LT(facility.service(0).committed_count(), 40u);
}

}  // namespace
}  // namespace epm::macro
