// Facility-level fault-storm runner.
//
// Drives a macro::Facility through a FaultPlan on the shared simulation
// clock: the injector delivers fault edges, the runner translates the
// active fault set into layer effects each control epoch (crashed servers,
// CRAC derates, utility outage carried by the UPS battery, demand surges,
// sensor faults on the telemetry path), optionally lets the
// macro::DegradationPolicy react, and accounts offered / locally-served /
// shed / re-routed / dropped requests over the storm.
//
// Everything is serial and seeded, so one StormConfig + FaultPlan maps to
// exactly one StormOutcome, regardless of how many sweep threads run storms
// concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "macro/degradation.h"
#include "macro/facility.h"
#include "power/ups.h"

namespace epm::faults {

struct StormConfig {
  macro::FacilityConfig facility;
  /// Baseline demand (requests/s with the reference request model) per
  /// service; surges multiply it.
  std::vector<double> demand_rps;
  double horizon_s = 6.0 * 3600.0;
  /// false = uncoordinated baseline: same provisioning, no fault reaction.
  bool policy_enabled = true;
  macro::DegradationPolicyConfig policy;
  power::UpsBatteryConfig battery;
};

struct StormOutcome {
  double offered_requests = 0.0;
  double served_requests = 0.0;    ///< served locally (excludes re-routes)
  double shed_requests = 0.0;      ///< policy-shed low-tier load
  double rerouted_requests = 0.0;  ///< policy re-routes served by a peer site
  double dropped_requests = 0.0;   ///< capacity / brown-out / trip losses
  double it_energy_kwh = 0.0;
  double mechanical_energy_kwh = 0.0;
  std::size_t epochs = 0;
  std::size_t brownout_epochs = 0;  ///< UPS exhausted during an outage
  std::size_t trip_epochs = 0;      ///< thermal protective trip lockout
  std::size_t sla_violation_epochs = 0;
  std::size_t thermal_alarms = 0;
  std::size_t overload_epochs = 0;
  double max_zone_temp_c = 0.0;
  double min_state_of_charge = 1.0;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t degraded_samples = 0;
  std::uint64_t dropped_samples = 0;
  std::size_t faults_injected = 0;
  std::size_t faults_handled = 0;
  std::size_t faults_cleared = 0;
  bool faults_conserved = false;
  std::uint64_t sensor_readings = 0;
  std::uint64_t sensor_dropped = 0;
  std::uint64_t sensor_stuck = 0;
  std::uint64_t sensor_noisy = 0;
  std::uint64_t commands_issued = 0;
  std::uint64_t commands_acked = 0;
  std::uint64_t commands_failed = 0;
  std::uint64_t command_retries = 0;
  std::size_t invariant_violations = 0;
  bool invariants_ok = true;
  std::string invariant_report;
  std::map<std::string, std::size_t> decision_counts;

  double served_fraction() const {
    return offered_requests > 0.0 ? served_requests / offered_requests : 1.0;
  }
};

StormOutcome run_fault_storm(const StormConfig& config, const FaultPlan& plan);

/// Throws std::invalid_argument where run_fault_storm would refuse `plan`:
/// a target outside `config`'s facility (FaultPlan::validate_targets).
void validate_storm_plan(const StormConfig& config, const FaultPlan& plan);

/// The epochs run_fault_storm runs, ceil(horizon / facility epoch); throws
/// std::invalid_argument where it would refuse the horizon.
std::size_t storm_epochs(const StormConfig& config);

/// StormConfig for the reference two-service facility with a UPS battery
/// deliberately sized so an unmanaged full-draw fleet cannot ride through
/// the storm plan's scripted outage — the scenario the degradation policy
/// exists for.
StormConfig make_reference_storm_config(std::size_t servers_per_service = 60);

}  // namespace epm::faults
