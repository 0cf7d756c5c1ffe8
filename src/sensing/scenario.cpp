#include "sensing/scenario.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/require.h"
#include "faults/injector.h"
#include "macro/coordinator.h"
#include "macro/facility.h"
#include "sensing/actuator_plane.h"
#include "sensing/estimator.h"
#include "sensing/invariants.h"
#include "sensing/sensor_plane.h"
#include "sim/simulator.h"

namespace epm::sensing {

constexpr double kOutsideC = 26.0;
/// Demand wave per service, as fractions of fleet capacity, over two hours.
constexpr double kBaseDemandFrac = 0.55;
constexpr double kSwingFrac = 0.35;
constexpr double kPeriodS = 2.0 * 3600.0;
/// Redundant sensors shared by both arms, with no base noise, so the arms
/// stay bit-identical until a fault actually bites; kSensorNoise faults
/// still inject noise windows where median voting earns its keep.
constexpr std::uint32_t kRedundancy = 3;
static_assert(kPeriodS > 0.0 && kBaseDemandFrac >= 0.0 && kSwingFrac >= 0.0 &&
              kBaseDemandFrac + kSwingFrac <= 1.0 && kRedundancy >= 1);

DegradedScenarioOutcome run_degraded_scenario(
    const DegradedScenarioConfig& config, const faults::FaultPlan& plan) {
  const std::size_t epochs = degraded_scenario_epochs(config);

  macro::Facility facility(
      macro::make_reference_facility(config.servers_per_service));
  const std::size_t services = facility.service_count();
  const double epoch_s = facility.epoch_s();
  // A fat-fingered plan must fail before arming.
  validate_sensing_plan(config, plan);

  sim::Simulator sim;
  faults::FaultInjector injector(sim, plan);

  // Both arms share the same sensor hardware (redundancy, base noise) and
  // the same fault exposure; only the estimator and the retry policy differ.
  SensorPlaneConfig sensor_config;
  sensor_config.seed = config.seed ^ 0x5e11505ULL;
  sensor_config.redundancy = kRedundancy;
  sensor_config.fault_domains = static_cast<std::uint32_t>(services) + 1;
  SensorPlane sensors(sensor_config);
  injector.subscribe([&sensors](const faults::FaultEvent& event, bool onset,
                                double now_s) {
    return sensors.on_fault(event, onset, now_s);
  });

  ActuatorPlaneConfig actuator_config;
  actuator_config.seed = config.seed ^ 0xac70ULL;
  if (config.hardened) {
    actuator_config.max_attempts = 6;
    actuator_config.retry_backoff_s = 60.0;
    actuator_config.backoff_multiplier = 2.0;
    actuator_config.max_backoff_s = 480.0;
    actuator_config.command_timeout_s = 1500.0;
  } else {
    actuator_config.max_attempts = 1;  // fire-and-forget
  }
  ActuatorPlane actuators(actuator_config);
  injector.subscribe([&actuators](const faults::FaultEvent& event, bool onset,
                                  double now_s) {
    return actuators.on_fault(event, onset, now_s);
  });
  injector.arm();

  macro::MacroManagerConfig manager_config;
  if (config.hardened) {
    manager_config.estimator.validate = true;
    manager_config.estimator.use_median = true;
    manager_config.estimator.stuck_after = 3;
    // Doubles the safety margins after ten minutes of stale data, capped.
    manager_config.estimator.stale_margin_gain_per_s = 1.0 / 600.0;
    manager_config.estimator.max_margin_multiplier = 2.5;
  }
  macro::MacroResourceManager manager(facility, manager_config, &sensors,
                                      &actuators);

  InvariantMonitor monitor(InvariantMonitorConfig{});
  facility.attach_invariant_monitor(&monitor);

  std::vector<double> capacity_rps(services, 0.0);
  for (std::size_t s = 0; s < services; ++s) {
    const auto& model = facility.service(s).power_model();
    const double per_server_rps =
        model.relative_capacity(0) /
        facility.request_model(s).config().mean_service_demand_s;
    capacity_rps[s] =
        static_cast<double>(facility.service(s).server_count()) * per_server_rps;
  }

  DegradedScenarioOutcome out;
  const double two_pi = 2.0 * 3.14159265358979323846;
  std::vector<double> demand(services, 0.0);
  for (std::size_t e = 0; e < epochs; ++e) {
    const double t0 = static_cast<double>(e) * epoch_s;
    sim.run_until(t0);

    // Staggered sinusoidal demand per service: ramps stress the demand
    // predictors exactly where stuck/stale sensing hurts the most.
    for (std::size_t s = 0; s < services; ++s) {
      const double phase = static_cast<double>(s) * (two_pi / 6.0);
      demand[s] =
          capacity_rps[s] *
          (kBaseDemandFrac + kSwingFrac * std::sin(two_pi * t0 / kPeriodS + phase));
      demand[s] = std::max(0.0, demand[s]);
    }

    const auto step = manager.step(demand, kOutsideC);

    ++out.epochs;
    out.thermal_alarms += step.new_thermal_alarms;
    out.max_zone_temp_c = std::max(out.max_zone_temp_c, step.max_zone_temp_c);
    out.max_estimate_age_s =
        std::max(out.max_estimate_age_s, manager.max_estimate_age_s());
    for (std::size_t s = 0; s < services; ++s) {
      const double dropped = step.services[s].dropped_rate_per_s;
      out.offered_requests += demand[s] * epoch_s;
      out.dropped_requests += dropped * epoch_s;
      out.served_requests += std::max(0.0, demand[s] - dropped) * epoch_s;
      if (step.services[s].sla_violated) ++out.sla_violation_epochs;
    }
  }
  // Deliver clears scheduled past the horizon so conservation holds.
  sim.run_all();

  out.it_energy_kwh = facility.total_it_energy_j() / 3.6e6;
  out.mechanical_energy_kwh = facility.total_mechanical_energy_j() / 3.6e6;
  out.sensor_readings = sensors.readings();
  out.sensor_dropped = sensors.dropped_readings();
  out.sensor_stuck = sensors.stuck_readings();
  out.sensor_noisy = sensors.noisy_readings();
  out.estimator_fallbacks = manager.estimator().fallbacks();
  out.commands_issued = actuators.issued();
  out.commands_acked = actuators.acked();
  out.commands_failed = actuators.failed();
  out.command_retries = actuators.retries();
  out.faults_injected = injector.plan().size();
  out.faults_conserved = injector.conserved();
  out.invariant_violations = monitor.violation_count();
  out.invariants_ok = monitor.ok();
  out.invariant_report = monitor.report();
  return out;
}

void validate_sensing_plan(const DegradedScenarioConfig& config,
                           const faults::FaultPlan& plan) {
  const macro::FacilityConfig facility =
      macro::make_reference_facility(config.servers_per_service);
  // Sensing targets are sensor domains, one per service plus the plant
  // domain.
  plan.validate_targets(facility.services.size() + 1, facility.room.cracs.size());
}

std::size_t degraded_scenario_epochs(const DegradedScenarioConfig& config) {
  require(config.servers_per_service > 0,
          "DegradedScenario: servers_per_service must be positive");
  require(config.horizon_s > 0.0, "DegradedScenario: horizon must be positive");
  return checked_count(std::ceil(config.horizon_s / macro::kFacilityEpochS),
                       "DegradedScenario: horizon / epoch");
}

faults::FaultPlan make_sensing_fault_plan(double intensity, double horizon_s,
                                          std::uint64_t seed,
                                          std::size_t service_count) {
  require(intensity >= 0.0, "SensingPlan: intensity must be >= 0");
  require(horizon_s > 0.0, "SensingPlan: horizon must be positive");
  require(service_count > 0, "SensingPlan: need at least one service");
  if (intensity <= 0.0) return {};

  // Scripted core, present at every positive intensity so the sweep always
  // exercises both failure planes (times assume the default 4 h horizon of
  // DegradedScenarioConfig and the 2 h demand period, kPeriodS):
  //  - a stuck-at window on domain 0's sensors over the first demand ramp:
  //    the controller keeps seeing mid-ramp demand while real demand climbs
  //    to the peak, and
  //  - a cooling-network actuation outage (kActuatorFail, domain 1) across
  //    the trough-to-peak heat climb: fleet-size commands keep landing, so
  //    the heat arrives, while CRAC supply commands silently fail — only
  //    retry/backoff restores cooling before the hot zone crosses its alarm.
  std::vector<faults::FaultEvent> events;
  events.push_back({faults::FaultType::kSensorStuck, 600.0,
                    std::min(1800.0, 0.2 * horizon_s), 0, 1.0});
  events.push_back({faults::FaultType::kActuatorFail,
                    std::min(5700.0, 0.5 * horizon_s),
                    std::min(3600.0, 0.25 * horizon_s), 1,
                    std::min(0.97, 0.9 + 0.05 * intensity)});

  // Intensity-scaled sampled faults across every sensing domain (service
  // domains plus the plant domain at index service_count).
  faults::FaultPlanConfig sampled;
  sampled.horizon_s = horizon_s;
  sampled.seed = seed;
  const std::size_t domains = service_count + 1;
  auto& drop = sampled.rate(faults::FaultType::kSensorDropout);
  drop.rate_per_day = 24.0 * intensity;
  drop.mean_duration_s = 240.0;
  drop.min_duration_s = 60.0;
  drop.target_count = domains;
  auto& stuck = sampled.rate(faults::FaultType::kSensorStuck);
  stuck.rate_per_day = 12.0 * intensity;
  stuck.mean_duration_s = 480.0;
  stuck.min_duration_s = 120.0;
  stuck.target_count = domains;
  auto& noise = sampled.rate(faults::FaultType::kSensorNoise);
  noise.rate_per_day = 18.0 * intensity;
  noise.mean_duration_s = 600.0;
  noise.min_duration_s = 120.0;
  noise.severity_lo = 0.05;
  noise.severity_hi = 0.10 + 0.15 * intensity;
  noise.target_count = domains;
  auto& act = sampled.rate(faults::FaultType::kActuatorFail);
  act.rate_per_day = 8.0 * intensity;
  act.mean_duration_s = 600.0;
  act.min_duration_s = 120.0;
  act.severity_lo = 0.3;
  act.severity_hi = std::min(0.9, 0.5 + 0.3 * intensity);
  act.target_count = kActuationDomains;

  return faults::FaultPlan::scripted(std::move(events))
      .merged_with(faults::FaultPlan::sampled(sampled));
}

}  // namespace epm::sensing
