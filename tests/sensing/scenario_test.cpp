#include "sensing/scenario.h"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "faults/fault_plan.h"
#include "faults/types.h"

namespace {

using epm::ThreadPool;
using epm::faults::FaultEvent;
using epm::faults::FaultPlan;
using epm::faults::FaultType;
using epm::sensing::DegradedScenarioConfig;
using epm::sensing::DegradedScenarioOutcome;
using epm::sensing::make_sensing_fault_plan;
using epm::sensing::run_degraded_scenario;
using epm::sensing::validate_sensing_plan;

/// Smaller plant / shorter horizon than the bench so the grid tests stay
/// cheap; the physics and control paths exercised are identical.
DegradedScenarioConfig small_config() {
  DegradedScenarioConfig config;
  config.servers_per_service = 16;
  config.horizon_s = 3600.0;
  return config;
}

void expect_same_outcome(const DegradedScenarioOutcome& a,
                         const DegradedScenarioOutcome& b) {
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.sla_violation_epochs, b.sla_violation_epochs);
  EXPECT_EQ(a.thermal_alarms, b.thermal_alarms);
  EXPECT_EQ(a.max_zone_temp_c, b.max_zone_temp_c);  // bitwise, not approx
  EXPECT_EQ(a.offered_requests, b.offered_requests);
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.it_energy_kwh, b.it_energy_kwh);
  EXPECT_EQ(a.mechanical_energy_kwh, b.mechanical_energy_kwh);
  EXPECT_EQ(a.max_estimate_age_s, b.max_estimate_age_s);
  EXPECT_EQ(a.sensor_readings, b.sensor_readings);
  EXPECT_EQ(a.sensor_dropped, b.sensor_dropped);
  EXPECT_EQ(a.sensor_stuck, b.sensor_stuck);
  EXPECT_EQ(a.sensor_noisy, b.sensor_noisy);
  EXPECT_EQ(a.estimator_fallbacks, b.estimator_fallbacks);
  EXPECT_EQ(a.commands_issued, b.commands_issued);
  EXPECT_EQ(a.commands_acked, b.commands_acked);
  EXPECT_EQ(a.commands_failed, b.commands_failed);
  EXPECT_EQ(a.command_retries, b.command_retries);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_conserved, b.faults_conserved);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.invariants_ok, b.invariants_ok);
}

TEST(SensingScenario, RejectsInvalidConfig) {
  DegradedScenarioConfig config;
  config.servers_per_service = 0;
  EXPECT_THROW(run_degraded_scenario(config, FaultPlan{}),
               std::invalid_argument);
  config = {};
  config.horizon_s = 0.0;
  EXPECT_THROW(run_degraded_scenario(config, FaultPlan{}),
               std::invalid_argument);
}

// Sensor faults target sensing domains: one per service plus the plant
// domain, so the reference facility's two services give three.
TEST(SensingScenario, PlanTargetsAreCheckedAgainstSensingDomains) {
  const DegradedScenarioConfig config;
  EXPECT_NO_THROW(validate_sensing_plan(config, FaultPlan::parse("sensor-stuck:2@100+60")));
  try {
    validate_sensing_plan(config, FaultPlan::parse("sensor-stuck:9@100+60"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string::npos,
              std::string(e.what()).find("unknown sensing domain 9 (facility has 3)"));
  }
}

TEST(SensingScenario, FaultPlanFactoryIsEmptyAtZeroIntensity) {
  EXPECT_TRUE(make_sensing_fault_plan(0.0, 14400.0, 1, 2).empty());
  EXPECT_THROW(make_sensing_fault_plan(-1.0, 14400.0, 1, 2),
               std::invalid_argument);
}

TEST(SensingScenario, FaultPlanFactoryHasScriptedCoreAndIsSeedStable) {
  const auto plan = make_sensing_fault_plan(1.0, 14400.0, 42, 2);
  // The scripted core guarantees a stuck-at window and a cooling-network
  // actuation outage at every positive intensity.
  EXPECT_GE(plan.count(FaultType::kSensorStuck), 1u);
  EXPECT_GE(plan.count(FaultType::kActuatorFail), 1u);

  const auto same = make_sensing_fault_plan(1.0, 14400.0, 42, 2);
  EXPECT_EQ(plan.fingerprint(), same.fingerprint());
  const auto reseeded = make_sensing_fault_plan(1.0, 14400.0, 43, 2);
  EXPECT_NE(plan.fingerprint(), reseeded.fingerprint());
}

// Satellite regression: pure sensing faults must not make the hardened
// controller cook the machine room. Dropout-only and stuck-only plans run
// against the fault-free baseline at the same seed; the validated
// estimator's fallback + staleness-widened margins have to absorb the
// observability loss without adding thermal alarms.
TEST(SensingScenario, DropoutOnlyFaultsDoNotIncreaseThermalAlarms) {
  DegradedScenarioConfig config;
  config.servers_per_service = 32;
  config.horizon_s = 2.0 * 3600.0;

  const auto clean = run_degraded_scenario(config, FaultPlan{});

  std::vector<FaultEvent> events;
  for (std::size_t domain = 0; domain < 3; ++domain) {
    events.push_back({FaultType::kSensorDropout, 900.0 + 1200.0 * domain,
                      600.0, domain, 1.0});
  }
  const auto faulty =
      run_degraded_scenario(config, FaultPlan::scripted(events));

  EXPECT_GT(faulty.sensor_dropped, 0u);
  EXPECT_GT(faulty.estimator_fallbacks, 0u);
  EXPECT_LE(faulty.thermal_alarms, clean.thermal_alarms);
  EXPECT_TRUE(faulty.invariants_ok) << faulty.invariant_report;
  EXPECT_TRUE(faulty.faults_conserved);
}

TEST(SensingScenario, StuckOnlyFaultsDoNotIncreaseThermalAlarms) {
  DegradedScenarioConfig config;
  config.servers_per_service = 32;
  config.horizon_s = 2.0 * 3600.0;

  const auto clean = run_degraded_scenario(config, FaultPlan{});

  std::vector<FaultEvent> events;
  for (std::size_t domain = 0; domain < 3; ++domain) {
    events.push_back({FaultType::kSensorStuck, 600.0 + 1500.0 * domain,
                      900.0, domain, 1.0});
  }
  const auto faulty =
      run_degraded_scenario(config, FaultPlan::scripted(events));

  EXPECT_GT(faulty.sensor_stuck, 0u);
  EXPECT_LE(faulty.thermal_alarms, clean.thermal_alarms);
  EXPECT_TRUE(faulty.invariants_ok) << faulty.invariant_report;
  EXPECT_TRUE(faulty.faults_conserved);
}

// Dominance smoke at one bench point: the hardened arm must be no worse
// than the naive arm on both gate metrics under the standard fault profile.
TEST(SensingScenario, HardenedArmWeaklyDominatesNaiveUnderFaults) {
  DegradedScenarioConfig config;
  const auto plan =
      make_sensing_fault_plan(1.0, config.horizon_s, config.seed + 17, 2);

  config.hardened = false;
  const auto naive = run_degraded_scenario(config, plan);
  config.hardened = true;
  const auto hardened = run_degraded_scenario(config, plan);

  EXPECT_LE(hardened.sla_violation_epochs, naive.sla_violation_epochs);
  EXPECT_LE(hardened.thermal_alarms, naive.thermal_alarms);
  EXPECT_GE(hardened.served_fraction(), naive.served_fraction());
  EXPECT_TRUE(naive.invariants_ok) << naive.invariant_report;
  EXPECT_TRUE(hardened.invariants_ok) << hardened.invariant_report;
  EXPECT_TRUE(naive.faults_conserved);
  EXPECT_TRUE(hardened.faults_conserved);
}

// Satellite determinism gate: evaluating the sweep grid through thread
// pools of 1, 2, and 8 workers must reproduce the serial outcomes bit for
// bit — every run owns its simulator, planes, and RNG streams, so thread
// count can only change scheduling, never results.
TEST(SensingScenario, OutcomesAreBitIdenticalAcrossSweepThreadCounts) {
  struct Point {
    double intensity;
    bool hardened;
  };
  const std::vector<Point> grid = {
      {0.0, false}, {0.0, true}, {1.0, false},
      {1.0, true},  {2.0, true},
  };

  auto evaluate = [&grid](std::size_t i) {
    DegradedScenarioConfig config = small_config();
    config.hardened = grid[i].hardened;
    const auto plan = make_sensing_fault_plan(
        grid[i].intensity, config.horizon_s, config.seed + 17, 2);
    return run_degraded_scenario(config, plan);
  };

  std::vector<DegradedScenarioOutcome> serial;
  serial.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    serial.push_back(evaluate(i));
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel = pool.parallel_map(grid.size(), evaluate);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " point=" + std::to_string(i));
      expect_same_outcome(serial[i], parallel[i]);
    }
  }
}

}  // namespace
