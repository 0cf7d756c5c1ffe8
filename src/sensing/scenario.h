// Degraded-observability comparison harness.
//
// Drives the macro-resource manager through a sinusoidal demand wave while
// a FaultPlan degrades its sensing (dropout / stuck-at / noise) and its
// actuation (failed commands). Two controller builds share identical
// hardware, demand, and faults:
//
//   naive    — raw first-sensor readings, no validation, fire-and-forget
//              actuation (one attempt per command);
//   hardened — median voting over redundant sensors, range/rate/stuck-at
//              gates with last-known-good fallback and staleness-widened
//              margins, and actuation retried under bounded exponential
//              backoff.
//
// bench/exp_degraded_sensing sweeps fault intensity over both arms and
// gates on the hardened controller weakly dominating the naive one on SLA
// violations and thermal alarms; `epmctl sensing` prints the same
// comparison. Everything is seeded and serial, so one config + plan maps to
// exactly one outcome at any sweep thread count.
#pragma once

#include <cstdint>
#include <string>

#include "faults/fault_plan.h"

namespace epm::sensing {

struct DegradedScenarioConfig {
  std::size_t servers_per_service = 64;
  double horizon_s = 4.0 * 3600.0;
  std::uint64_t seed = 2009;
  /// false = naive arm (raw readings, single-attempt actuation).
  bool hardened = true;
};

struct DegradedScenarioOutcome {
  std::size_t epochs = 0;
  std::size_t sla_violation_epochs = 0;
  std::size_t thermal_alarms = 0;
  double max_zone_temp_c = 0.0;
  double offered_requests = 0.0;
  double served_requests = 0.0;
  double dropped_requests = 0.0;
  double it_energy_kwh = 0.0;
  double mechanical_energy_kwh = 0.0;
  double max_estimate_age_s = 0.0;
  std::uint64_t sensor_readings = 0;
  std::uint64_t sensor_dropped = 0;
  std::uint64_t sensor_stuck = 0;
  std::uint64_t sensor_noisy = 0;
  std::uint64_t estimator_fallbacks = 0;
  std::uint64_t commands_issued = 0;
  std::uint64_t commands_acked = 0;
  std::uint64_t commands_failed = 0;
  std::uint64_t command_retries = 0;
  std::size_t faults_injected = 0;
  bool faults_conserved = false;
  std::size_t invariant_violations = 0;
  bool invariants_ok = true;
  std::string invariant_report;

  double served_fraction() const {
    return offered_requests > 0.0 ? served_requests / offered_requests : 1.0;
  }
};

DegradedScenarioOutcome run_degraded_scenario(
    const DegradedScenarioConfig& config, const faults::FaultPlan& plan);

/// Throws std::invalid_argument where run_degraded_scenario would refuse
/// `plan`: a fault its sensor and actuator planes never apply (anything but
/// sensor dropout, stuck and noise faults and actuator failures), or a
/// target outside the facility's sensing domains (one per service plus the
/// plant domain).
void validate_sensing_plan(const DegradedScenarioConfig& config,
                           const faults::FaultPlan& plan);

/// The epochs run_degraded_scenario runs, ceil(horizon / facility epoch);
/// throws std::invalid_argument where it would refuse the fleet or horizon.
std::size_t degraded_scenario_epochs(const DegradedScenarioConfig& config);

/// Sensing/actuation fault profile for the degraded-observability sweep: a
/// scripted stuck-at window over the first demand ramp and a high-severity
/// actuator-failure window over the second, plus intensity-scaled sampled
/// dropout / stuck / noise / actuator faults across every sensing domain
/// (service domains plus the plant domain at index `service_count`).
/// Intensity 0 yields an empty plan.
faults::FaultPlan make_sensing_fault_plan(double intensity, double horizon_s,
                                          std::uint64_t seed,
                                          std::size_t service_count);

}  // namespace epm::sensing
