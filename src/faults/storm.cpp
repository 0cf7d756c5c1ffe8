#include "faults/storm.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "faults/injector.h"
#include "macro/coordinator.h"
#include "sensing/actuator_plane.h"
#include "sensing/estimator.h"
#include "sensing/invariants.h"
#include "sensing/sensor_plane.h"
#include "sensing/telemetry_feed.h"
#include "sim/simulator.h"
#include "telemetry/store.h"

namespace epm::faults {
namespace {

constexpr double kOutsideC = 28.0;
/// Zone temperature at which servers protectively trip: the facility serves
/// nothing until the room has stayed cool for kTripLockoutEpochs.
constexpr double kThermalTripC = 34.0;
constexpr std::size_t kTripLockoutEpochs = 5;
/// Provisioning headroom: fleet sized for demand / (max_util / headroom).
constexpr double kProvisionHeadroom = 1.1;
static_assert(kProvisionHeadroom >= 1.0);

/// The active fault set folded into per-layer effect magnitudes. All
/// aggregates are additive (sums / counts), so applying the same edges in
/// the same order always reproduces the same state bit-for-bit.
struct FaultState {
  std::vector<double> crash_frac;     ///< per service: Σ active crash/PSU severities
  std::vector<double> surge_excess;   ///< per service: Σ active (severity - 1)
  std::vector<double> crac_derate;    ///< per CRAC: Σ active derate severities
  int outage_active = 0;

  FaultState(std::size_t services, std::size_t cracs)
      : crash_frac(services, 0.0),
        surge_excess(services, 0.0),
        crac_derate(cracs, 0.0) {}

  bool apply(const FaultEvent& event, bool onset) {
    const double sign = onset ? 1.0 : -1.0;
    switch (event.type) {
      case FaultType::kServerCrash:
      case FaultType::kPsuTrip:
        crash_frac[event.target % crash_frac.size()] +=
            sign * std::clamp(event.severity, 0.0, 1.0);
        return true;
      case FaultType::kCracFailure:
        crac_derate[event.target % crac_derate.size()] += sign * 1.0;
        return true;
      case FaultType::kCoolingDerate:
        crac_derate[event.target % crac_derate.size()] +=
            sign * std::clamp(event.severity, 0.0, 1.0);
        return true;
      case FaultType::kUtilityOutage:
        outage_active += onset ? 1 : -1;
        return true;
      case FaultType::kRegionLoss:
        // At facility scope a regional grid loss is a utility outage; the
        // correlation across sites lives in the fleet layer (fault_domain).
        outage_active += onset ? 1 : -1;
        return true;
      case FaultType::kFlashCrowd:
        surge_excess[event.target % surge_excess.size()] +=
            sign * std::max(0.0, event.severity - 1.0);
        return true;
      case FaultType::kSensorDropout:
      case FaultType::kSensorStuck:
      case FaultType::kSensorNoise:
      case FaultType::kActuatorFail:
        return false;  // the sensing / actuation planes own these
      case FaultType::kControllerCrash:
      case FaultType::kControllerHang:
      case FaultType::kControllerRestart:
        return false;  // the macro control plane owns these
    }
    return false;
  }
};

}  // namespace

StormOutcome run_fault_storm(const StormConfig& config, const FaultPlan& plan) {
  require(!config.facility.services.empty(), "Storm: facility has no services");
  require(config.demand_rps.size() == config.facility.services.size(),
          "Storm: demand_rps must cover every service");
  const std::size_t epochs = storm_epochs(config);

  macro::Facility facility(config.facility);
  const std::size_t services = facility.service_count();
  const std::size_t cracs = facility.room().crac_count();
  // A fat-fingered plan (crash on service 7 of a 2-service facility) must
  // fail loudly before the injector arms anything.
  validate_storm_plan(config, plan);
  const double epoch_s = facility.epoch_s();

  sim::Simulator sim;
  FaultInjector injector(sim, plan);
  FaultState state(services, cracs);
  injector.subscribe([&state](const FaultEvent& event, bool onset, double) {
    return state.apply(event, onset);
  });

  // Sensing plane: exact single sensors, service channels in per-service
  // fault domains, plant channels (IT power) in the final domain, read raw.
  sensing::SensorPlaneConfig sensor_config;
  sensor_config.fault_domains = static_cast<std::uint32_t>(services) + 1;
  sensing::SensorPlane sensors(sensor_config);
  sensing::ValidatedEstimator estimator(sensing::EstimatorConfig{});
  injector.subscribe([&sensors](const FaultEvent& event, bool onset,
                                double now_s) {
    return sensors.on_fault(event, onset, now_s);
  });

  // Single-attempt actuation, infallible without kActuatorFail faults.
  macro::DecisionLog log;
  sensing::ActuatorPlane actuators(sensing::ActuatorPlaneConfig{});
  injector.subscribe([&actuators](const FaultEvent& event, bool onset,
                                  double now_s) {
    return actuators.on_fault(event, onset, now_s);
  });
  actuators.set_logger([&log](double now_s, const std::string& text) {
    log.record({now_s, macro::DecisionKind::kActuation, "", text});
  });
  actuators.set_applier([&facility](const sensing::ActuatorCommand& command) {
    return macro::apply_actuator_command(facility, command,
                                         /*use_sleep_states=*/false);
  });

  macro::DegradationPolicy policy(config.policy, services, &log);
  if (config.policy_enabled) {
    injector.subscribe(
        [&policy](const FaultEvent& event, bool onset, double now_s) {
          return policy.on_fault(event, onset, now_s);
        });
  }
  injector.arm();

  sensing::InvariantMonitor monitor(sensing::InvariantMonitorConfig{});
  facility.attach_invariant_monitor(&monitor);

  power::UpsBattery battery(config.battery);
  telemetry::TelemetryStore telemetry;
  sensing::TelemetryFeed feed(telemetry);
  const auto& topo = facility.power_topology();
  const double ups_loss = topo.tree.spec(topo.ups_id).loss_fraction;
  const double ups_fixed_w = topo.tree.spec(topo.ups_id).fixed_loss_w;

  // Baseline return setpoints: the policy's deltas are applied on top each
  // epoch, never accumulated.
  std::vector<double> base_setpoint_c(cracs, 0.0);
  for (std::size_t k = 0; k < cracs; ++k) {
    base_setpoint_c[k] = facility.room().crac(k).config().return_setpoint_c;
  }

  const std::size_t deepest_pstate =
      facility.service(0).power_model().pstate_count() - 1;

  StormOutcome out;
  double prev_it_power_w = 0.0;
  for (std::size_t s = 0; s < services; ++s) {
    // First-epoch draw estimate: the initially active fleet at idle.
    prev_it_power_w += static_cast<double>(facility.service(s).serving_count()) *
                       facility.service(s).power_model().idle_power_w();
  }
  std::size_t lockout_left = 0;

  for (std::size_t e = 0; e < epochs; ++e) {
    const double t0 = static_cast<double>(e) * epoch_s;
    sim.run_until(t0);
    actuators.tick(t0);

    // 1. Fold the active fault set into the layers.
    for (std::size_t s = 0; s < services; ++s) {
      const auto& cl = facility.service(s);
      const double frac = std::clamp(state.crash_frac[s], 0.0, 1.0);
      const auto lost = static_cast<std::size_t>(std::lround(
          frac * static_cast<double>(cl.server_count())));
      facility.service(s).set_unavailable(lost);
    }
    for (std::size_t k = 0; k < cracs; ++k) {
      facility.room().crac(k).set_derate(
          std::clamp(state.crac_derate[k], 0.0, 1.0));
    }

    // 2. Offered demand under any active surges.
    std::vector<double> offered(services, 0.0);
    for (std::size_t s = 0; s < services; ++s) {
      offered[s] = config.demand_rps[s] * (1.0 + state.surge_excess[s]);
    }

    // 3. Policy reaction from the active fault set and the UPS margin.
    const double est_draw_w = prev_it_power_w * (1.0 + ups_loss) + ups_fixed_w;
    macro::DegradationAction action;
    if (config.policy_enabled) {
      action = policy.react(t0, battery.ride_through_s(est_draw_w));
    } else {
      action.serve_scale.assign(services, 1.0);
      action.shed_scale.assign(services, 0.0);
      action.reroute_scale.assign(services, 0.0);
    }
    for (std::size_t k = 0; k < cracs; ++k) {
      double setpoint = base_setpoint_c[k] + action.setpoint_delta_c;
      if (state.crac_derate[k] <= 0.0) {
        setpoint += action.healthy_setpoint_delta_c;
      }
      actuators.issue({sensing::CommandKind::kCracReturnSetpoint, k,
                       std::max(1.0, setpoint), {}},
                      t0);
    }
    const std::size_t pstate = action.throttle ? deepest_pstate : 0;
    for (std::size_t s = 0; s < services; ++s) {
      actuators.issue({sensing::CommandKind::kPstate, s,
                       static_cast<double>(pstate), {}},
                      t0);
    }

    std::vector<double> local(services, 0.0);
    for (std::size_t s = 0; s < services; ++s) {
      local[s] = offered[s] * action.serve_scale[s];
    }

    // 4. Brown-out: during an outage the UPS must carry the whole epoch;
    //    if it cannot, the facility is dark until utility power returns.
    const bool brownout =
        state.outage_active > 0 &&
        battery.ride_through_s(est_draw_w) < epoch_s;
    const bool tripped = lockout_left > 0;
    if (brownout || tripped) {
      std::fill(local.begin(), local.end(), 0.0);
    }

    // 5. Provision each fleet for its local demand.
    for (std::size_t s = 0; s < services; ++s) {
      auto& cl = facility.service(s);
      std::size_t target = 0;
      if (!brownout && !tripped) {
        const auto& model = cl.power_model();
        const double per_server_rps =
            model.relative_capacity(pstate) /
            facility.request_model(s).config().mean_service_demand_s;
        const double util_target = cluster::kMaxUtilization / kProvisionHeadroom;
        target = static_cast<std::size_t>(
            std::ceil(local[s] / (per_server_rps * util_target)));
        target = std::min(std::max<std::size_t>(target, 1), cl.available_count());
        if (action.consolidation_paused) {
          target = std::max(target,
                            std::min(cl.committed_count(), cl.available_count()));
        }
      }
      actuators.issue({sensing::CommandKind::kFleetSize, s,
                       static_cast<double>(target), {}},
                      t0);
    }

    // 6. Advance the cyber-physical plant one epoch.
    const auto step = facility.step(local, kOutsideC);

    // 7. UPS energy flow.
    if (state.outage_active > 0) {
      const double draw_w = step.it_power_w * (1.0 + ups_loss) + ups_fixed_w;
      battery.discharge(draw_w, epoch_s);
    } else {
      battery.charge(battery.config().max_charge_w, epoch_s);
    }
    out.min_state_of_charge =
        std::min(out.min_state_of_charge, battery.state_of_charge());
    monitor.check_scalar("soc-bounds", battery.state_of_charge(), 0.0, 1.0, t0);

    // 8. Thermal protective trip.
    if (step.max_zone_temp_c > kThermalTripC) {
      lockout_left = kTripLockoutEpochs;
    } else if (lockout_left > 0) {
      --lockout_left;
    }

    // 9. Accounting.
    ++out.epochs;
    if (brownout) ++out.brownout_epochs;
    if (tripped) ++out.trip_epochs;
    out.thermal_alarms += step.new_thermal_alarms;
    if (step.power_overloaded) ++out.overload_epochs;
    out.max_zone_temp_c = std::max(out.max_zone_temp_c, step.max_zone_temp_c);
    // The policy's next ride-through estimate comes from the sensed (and
    // possibly stale or noisy) IT power, not the ground truth.
    {
      const auto key = sensing::make_channel(sensing::ChannelKind::kItPower, 0);
      prev_it_power_w =
          estimator.update(key, sensors.sample(key, step.it_power_w, t0), t0)
              .value;
    }

    for (std::size_t s = 0; s < services; ++s) {
      const double dropped = step.services[s].dropped_rate_per_s;
      const double served = std::max(0.0, local[s] - dropped);
      out.offered_requests += offered[s] * epoch_s;
      out.served_requests += served * epoch_s;
      if (brownout || tripped) {
        // Policy shed/re-route still happened upstream of the dark epoch.
        out.shed_requests += offered[s] * action.shed_scale[s] * epoch_s;
        out.rerouted_requests += offered[s] * action.reroute_scale[s] * epoch_s;
        out.dropped_requests +=
            offered[s] * action.serve_scale[s] * epoch_s;
      } else {
        out.shed_requests += offered[s] * action.shed_scale[s] * epoch_s;
        out.rerouted_requests += offered[s] * action.reroute_scale[s] * epoch_s;
        out.dropped_requests += dropped * epoch_s;
      }
      if (step.services[s].sla_violated) ++out.sla_violation_epochs;

      // 10. Telemetry path: the served-rate counter goes through the
      // sensing plane, so dropout/stuck/noise faults degrade it exactly as
      // they degrade the controller's view.
      const auto key = telemetry::make_key(static_cast<std::uint32_t>(s), 0);
      const auto readings = sensors.sample(
          sensing::make_channel(sensing::ChannelKind::kServiceArrival,
                                static_cast<std::uint32_t>(s)),
          served, t0);
      feed.publish(key, readings, t0);
    }
  }
  // Deliver any clears scheduled past the horizon so conservation holds for
  // plans that fit inside the storm.
  sim.run_all();

  out.it_energy_kwh = facility.total_it_energy_j() / 3.6e6;
  out.mechanical_energy_kwh = facility.total_mechanical_energy_j() / 3.6e6;
  out.telemetry_samples = telemetry.total_samples();
  out.degraded_samples = telemetry.degraded_samples();
  out.dropped_samples = telemetry.dropped_samples();
  out.faults_injected = injector.plan().size();
  out.faults_handled = injector.handled_count();
  out.faults_cleared = injector.cleared_count();
  out.faults_conserved = injector.conserved();
  out.sensor_readings = sensors.readings();
  out.sensor_dropped = sensors.dropped_readings();
  out.sensor_stuck = sensors.stuck_readings();
  out.sensor_noisy = sensors.noisy_readings();
  out.commands_issued = actuators.issued();
  out.commands_acked = actuators.acked();
  out.commands_failed = actuators.failed();
  out.command_retries = actuators.retries();
  out.invariant_violations = monitor.violation_count();
  out.invariants_ok = monitor.ok();
  out.invariant_report = monitor.report();
  out.decision_counts = log.counts_by_kind();
  return out;
}

void validate_storm_plan(const StormConfig& config, const FaultPlan& plan) {
  plan.validate_targets(config.facility.services.size(),
                        config.facility.room.cracs.size());
}

std::size_t storm_epochs(const StormConfig& config) {
  require(config.horizon_s > 0.0, "Storm: horizon must be positive");
  return checked_count(std::ceil(config.horizon_s / macro::kFacilityEpochS),
                       "Storm: horizon / epoch");
}

StormConfig make_reference_storm_config(std::size_t servers_per_service) {
  StormConfig config;
  config.facility = macro::make_reference_facility(servers_per_service);

  // Give the storm facility a second CRAC sharing the room 50/50, so a
  // CRAC failure halves the cooling path instead of erasing it and the
  // policy's "healthy CRACs cool harder" reaction has a surviving unit to
  // lean on.
  thermal::CracConfig spare = config.facility.room.cracs[0];
  spare.name = "crac1";
  spare.zone_sensitivity = {0.4, 0.6};
  config.facility.room.cracs.push_back(spare);
  config.facility.room.airflow_share = {{0.5, 0.5}, {0.5, 0.5}};

  // Moderate steady demand: ~60% of each fleet's full capacity (100 rps per
  // server at the reference demand of 0.01 s/request).
  const double capacity_rps = static_cast<double>(servers_per_service) * 100.0;
  config.demand_rps = {0.6 * capacity_rps, 0.6 * capacity_rps};

  // Size the UPS so the *unmanaged* fleet (everything on, near-peak draw
  // with conversion losses) rides through only ~3 minutes — far shorter
  // than every storm outage — while the policy's shed/re-routed fleet
  // stretches the same battery across several more epochs.
  const double full_draw_w =
      2.0 * static_cast<double>(servers_per_service) * 300.0 * 1.1;
  config.battery.energy_capacity_j = full_draw_w * 180.0;
  config.battery.max_discharge_w = full_draw_w * 2.0;
  config.battery.max_charge_w = full_draw_w * 0.25;

  config.policy.low_tier_service = 1;  // batch
  // Shed modestly and lean on geo re-routing: re-routed requests are served
  // by the peer site without spending the local UPS window, while every
  // shed request is a loss the policy must win back in ride-through.
  config.policy.low_tier_shed_fraction = 0.5;
  config.policy.reroute_fraction = 0.5;
  // Race-to-idle beats throttling here: the 60% idle floor means fewer fast
  // servers draw less than many slow ones for the same served load.
  config.policy.throttle_on_power_emergency = false;
  // With a surviving CRAC to cool harder, heat-shedding is not needed.
  config.policy.cooling_shed_fraction = 0.0;
  return config;
}

}  // namespace epm::faults
