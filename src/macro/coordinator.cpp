#include "macro/coordinator.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "macro/joint_policy.h"
#include "power/capping.h"

namespace epm::macro {

/// Coordination cadence in epochs (decisions are slower than epochs, as
/// Fig. 4's "time scale of demand variations" suggests).
constexpr std::size_t kCoordinateEveryEpochs = 5;
/// Safety margin in residual sigmas added to demand predictions.
constexpr double kDemandMarginSigmas = 1.5;
/// Keep predicted zone steady-state this far below the alarm threshold.
constexpr double kZoneMarginC = 3.0;
/// Shift load out of a zone only when it gets this close to its alarm
/// threshold. Smaller than kZoneMarginC, otherwise placement churns against
/// the cooling controller's own (efficient) operating point at exactly
/// alarm - kZoneMarginC.
constexpr double kPlacementTriggerMarginC = 1.0;
/// Share of every service's heat that placement moves out of a hot zone,
/// spread evenly over the other zones.
constexpr double kPlacementShiftFraction = 0.2;
static_assert(kCoordinateEveryEpochs >= 1 && kPlacementTriggerMarginC >= 0.0 &&
              kPlacementTriggerMarginC <= kZoneMarginC &&
              kPlacementShiftFraction > 0.0 && kPlacementShiftFraction < 1.0);

MacroResourceManager::MacroResourceManager(Facility& facility,
                                           MacroManagerConfig config,
                                           sensing::SensorPlane* sensors,
                                           sensing::ActuatorPlane* actuators)
    : facility_(facility), config_(config), estimator_(config.estimator) {
  if (sensors == nullptr) {
    // Exact plane: one sensor per channel, no noise, no quantization.
    sensing::SensorPlaneConfig exact;
    exact.fault_domains =
        static_cast<std::uint32_t>(facility_.service_count()) + 1;
    owned_sensors_ = std::make_unique<sensing::SensorPlane>(exact);
    sensors = owned_sensors_.get();
  }
  if (actuators == nullptr) {
    owned_actuators_ =
        std::make_unique<sensing::ActuatorPlane>(sensing::ActuatorPlaneConfig{});
    actuators = owned_actuators_.get();
  }
  sensors_ = sensors;
  actuators_ = actuators;
  actuators_->set_applier([this](const sensing::ActuatorCommand& command) {
    return apply_actuator_command(facility_, command, /*use_sleep_states=*/true);
  });
  actuators_->set_logger([this](double now_s, const std::string& text) {
    log_.record_text(now_s, DecisionKind::kActuation, text);
  });
  for (std::size_t i = 0; i < facility_.service_count(); ++i) {
    predictors_.emplace_back(onoff::SeasonalPredictorConfig{});
    last_arrival_rate_.push_back(0.0);
    // Until the first epoch reports a real service demand, assume the
    // RequestModel default (10 ms per request).
    last_service_demand_s_.push_back(0.01);
    chosen_pstate_.push_back(0);
  }
  // Decision subjects: service i is subject i, CRAC k is subject n + k.
  for (std::size_t i = 0; i < facility_.service_count(); ++i) {
    log_.add_subject(facility_.service_name(i));
  }
  for (std::size_t k = 0; k < facility_.room().crac_count(); ++k) {
    log_.add_subject(facility_.room().crac(k).config().name);
  }
}

sensing::Estimate MacroResourceManager::estimate(sensing::ChannelKind kind,
                                                 std::uint32_t index,
                                                 double truth, double now_s) {
  const sensing::ChannelKey key = sensing::make_channel(kind, index);
  return estimator_.update(key, sensors_->sample(key, truth, now_s), now_s);
}

bool apply_actuator_command(Facility& facility,
                            const sensing::ActuatorCommand& command,
                            bool use_sleep_states) {
  switch (command.kind) {
    case sensing::CommandKind::kFleetSize:
      facility.service(command.target)
          .set_target_committed(
              static_cast<std::size_t>(std::llround(command.value)),
              use_sleep_states);
      return true;
    case sensing::CommandKind::kPstate:
    case sensing::CommandKind::kPowerCap:
      facility.service(command.target)
          .set_uniform_pstate(
              static_cast<std::size_t>(std::llround(command.value)));
      return true;
    case sensing::CommandKind::kCracSupply:
      facility.room().set_crac_auto(command.target, false);
      facility.room().crac(command.target).set_supply_temp_c(command.value);
      return true;
    case sensing::CommandKind::kCracReturnSetpoint:
      facility.room().crac(command.target).set_return_setpoint_c(command.value);
      return true;
    case sensing::CommandKind::kZoneShare:
      facility.set_zone_share(command.target, command.values);
      return true;
    case sensing::CommandKind::kConsolidation:
      // Consolidation pausing is a control-plane concern; the storm facility
      // has no migration machinery to pause, so acknowledge and move on.
      return true;
  }
  return false;
}

void MacroResourceManager::issue(sensing::CommandKind kind, std::size_t target,
                                 double value, std::vector<double> values) {
  sensing::ActuatorCommand command;
  command.kind = kind;
  command.target = target;
  command.value = value;
  command.values = std::move(values);
  actuators_->issue(command, facility_.now_s());
}

FacilityStep MacroResourceManager::step(const std::vector<double>& demand_per_service,
                                        double outside_c) {
  actuators_->tick(facility_.now_s());
  if (epoch_count_ % kCoordinateEveryEpochs == 0) coordinate();
  ++epoch_count_;

  FacilityStep result = facility_.step(demand_per_service, outside_c);
  max_estimate_age_s_ = 0.0;
  for (std::size_t i = 0; i < result.services.size(); ++i) {
    const auto& r = result.services[i];
    const auto index = static_cast<std::uint32_t>(i);
    const sensing::Estimate arrival = estimate(
        sensing::ChannelKind::kServiceArrival, index, r.arrival_rate_per_s,
        r.time_s);
    const sensing::Estimate demand = estimate(
        sensing::ChannelKind::kServiceDemand, index, r.service_demand_s,
        r.time_s);
    predictors_[i].observe(r.time_s, arrival.value);
    last_arrival_rate_[i] = arrival.value;
    last_service_demand_s_[i] = demand.value;
    max_estimate_age_s_ =
        std::max({max_estimate_age_s_, arrival.age_s, demand.age_s});
  }
  return result;
}

void MacroResourceManager::coordinate() {
  const double now = facility_.now_s();

  // Stale sensing buys wider safety margins: the multiplier is exactly 1
  // at age 0, so fresh data reproduces the unwidened decisions bit-for-bit.
  const double demand_margin_sigmas =
      kDemandMarginSigmas * estimator_.margin_multiplier(max_estimate_age_s_);

  // --- 1+2: joint fleet sizing + DVFS per service, from predicted demand.
  double predicted_it_power = 0.0;
  std::vector<double>& per_service_power = service_power_w_;
  per_service_power.assign(facility_.service_count(), 0.0);
  for (std::size_t i = 0; i < facility_.service_count(); ++i) {
    const auto subject = static_cast<std::uint32_t>(i);
    auto& svc = facility_.service(i);
    const auto& model = svc.power_model();
    if (predictors_[i].observations() == 0) {
      // Cold start: no demand seen yet. Keep the operator-provisioned fleet
      // rather than shrinking to the minimum on a zero prediction.
      const double current = svc.power_model().idle_power_w() *
                             static_cast<double>(svc.committed_count());
      per_service_power[i] = current;
      predicted_it_power += current;
      continue;
    }
    const double lead_s = model.config().boot_time_s + facility_.epoch_s();
    double predicted = predictors_[i].predict(now + lead_s) +
                       demand_margin_sigmas * predictors_[i].residual_stddev();
    predicted = std::max(predicted, 0.0);

    const auto decision = decide_joint(
        model, svc.server_count(), svc.committed_count(), predicted,
        last_service_demand_s_[i], svc.config().sla.target_mean_response_s,
        JointPolicyConfig{});
    issue(sensing::CommandKind::kFleetSize, i,
          static_cast<double>(decision.servers));
    issue(sensing::CommandKind::kPstate, i,
          static_cast<double>(decision.pstate));
    chosen_pstate_[i] = decision.pstate;
    per_service_power[i] = decision.predicted_power_w;
    predicted_it_power += decision.predicted_power_w;

    log_.record(Decision::allocation(now, subject, decision.servers,
                                     decision.pstate, predicted,
                                     decision.predicted_power_w));
    log_.record(Decision::dvfs(now, subject, decision.pstate));
    if (!decision.feasible) {
      log_.record(Decision::sla_unreachable(now, subject));
    }
  }

  // --- 3: power provisioning: enforce the critical (UPS) budget.
  const double budget =
      config_.power_budget_w > 0.0
          ? config_.power_budget_w
          : facility_.power_topology().tree.spec(facility_.power_topology().ups_id)
                .capacity_w;
  if (predicted_it_power > budget) {
    ++capping_epochs_;
    // Scale every service's dynamic power down uniformly by stepping its
    // P-state until the prediction fits (coarse-grained facility cap).
    for (std::size_t i = 0; i < facility_.service_count(); ++i) {
      auto& svc = facility_.service(i);
      const auto& model = svc.power_model();
      std::size_t p = chosen_pstate_[i];
      while (p + 1 < model.pstate_count() && predicted_it_power > budget) {
        const double before = per_service_power[i];
        ++p;
        const double after = before * model.busy_power_w(p) / model.busy_power_w(p - 1);
        predicted_it_power -= before - after;
        per_service_power[i] = after;
      }
      issue(sensing::CommandKind::kPowerCap, i, static_cast<double>(p));
      chosen_pstate_[i] = p;
    }
    log_.record(Decision::capping(now, budget, predicted_it_power));
  }

  // --- 4: cooling control from server-side heat knowledge. Zone
  // temperatures are sensed, not read: a stale estimate widens the margin.
  auto& room = facility_.room();
  std::vector<double>& zone_temp_est = zone_temp_est_c_;
  zone_temp_est.assign(room.zone_count(), 0.0);
  double zone_age_s = 0.0;
  for (std::size_t z = 0; z < room.zone_count(); ++z) {
    const sensing::Estimate est =
        estimate(sensing::ChannelKind::kZoneTemp, static_cast<std::uint32_t>(z),
                 room.zone(z).temperature_c(), now);
    zone_temp_est[z] = est.value;
    zone_age_s = std::max(zone_age_s, est.age_s);
  }
  const double zone_margin_c =
      kZoneMarginC * estimator_.margin_multiplier(zone_age_s);
  std::vector<double>& zone_heat = zone_heat_w_;
  zone_heat.assign(room.zone_count(), 0.0);
  for (std::size_t i = 0; i < facility_.service_count(); ++i) {
    const auto& share = facility_.zone_share(i);
    for (std::size_t z = 0; z < zone_heat.size(); ++z) {
      zone_heat[z] += per_service_power[i] * share[z];
    }
  }
  for (std::size_t k = 0; k < room.crac_count(); ++k) {
    auto& crac = room.crac(k);
    // Supply temperature that keeps every zone's *steady state* below the
    // alarm threshold minus the margin — using real per-zone heat, not the
    // CRAC's biased return sensor.
    double required_supply = thermal::kMaxSupplyC;
    for (std::size_t z = 0; z < room.zone_count(); ++z) {
      const auto& zone = room.zone(z);
      const double limit_c = zone.config().alarm_temp_c - zone_margin_c;
      const double supply_c = limit_c - zone_heat[z] / zone.config().conductance_w_per_c;
      required_supply = std::min(required_supply, supply_c);
    }
    required_supply =
        std::clamp(required_supply, crac.config().min_supply_c, thermal::kMaxSupplyC);
    issue(sensing::CommandKind::kCracSupply, k, required_supply);
    log_.record(Decision::cooling_supply(
        now, static_cast<std::uint32_t>(facility_.service_count() + k),
        required_supply));
  }

  // --- 4b: what-if risk assessment of the committed plan (Fig. 4: "predict
  // performance impacts and risks on resource allocation decisions").
  {
    plans_.resize(facility_.service_count());
    for (std::size_t i = 0; i < facility_.service_count(); ++i) {
      auto& svc = facility_.service(i);
      ServicePlan& plan = plans_[i];
      plan.name = facility_.service_name(i);
      plan.model = &svc.power_model();
      plan.servers = std::max<std::size_t>(svc.committed_count(), 1);
      plan.pstate = chosen_pstate_[i];
      plan.predicted_arrival_rate = last_arrival_rate_[i];
      plan.service_demand_s = last_service_demand_s_[i];
      plan.sla_target_s = svc.config().sla.target_mean_response_s;
      plan.zone_share = facility_.zone_share(i);
    }
    FacilityEnvelope& envelope = envelope_;
    envelope.power_budget_w = budget;
    envelope.zone_margin_c = 0.0;  // alert only on actual alarm exposure
    envelope.zone_conductance_w_per_c.clear();
    envelope.zone_alarm_c.clear();
    envelope.zone_supply_c.clear();
    for (std::size_t z = 0; z < room.zone_count(); ++z) {
      const auto& zone = room.zone(z);
      envelope.zone_conductance_w_per_c.push_back(zone.config().conductance_w_per_c);
      envelope.zone_alarm_c.push_back(zone.config().alarm_temp_c);
      envelope.zone_supply_c.push_back(room.zone_supply_c(z));
    }
    const auto assessment = assess_plan(plans_, envelope);
    for (const auto& finding : assessment.diagnostics) {
      log_.record_text(now, DecisionKind::kRiskAlert, finding);
    }
  }

  // --- 5: placement: shift heat away from zones already near their limit,
  // judged from the sensed temperature estimates.
  for (std::size_t z = 0; z < room.zone_count(); ++z) {
    const auto& zone = room.zone(z);
    if (zone_temp_est[z] <=
        zone.config().alarm_temp_c - kPlacementTriggerMarginC) {
      continue;
    }
    for (std::size_t i = 0; i < facility_.service_count(); ++i) {
      auto share = facility_.zone_share(i);
      if (share[z] <= 0.0 || share.size() < 2) continue;
      const double moved = share[z] * kPlacementShiftFraction;
      share[z] -= moved;
      const double per_other = moved / static_cast<double>(share.size() - 1);
      for (std::size_t other = 0; other < share.size(); ++other) {
        if (other != z) share[other] += per_other;
      }
      issue(sensing::CommandKind::kZoneShare, i, 0.0, share);
      log_.record(Decision::placement_shift(now, static_cast<std::uint32_t>(i), z,
                                            kPlacementShiftFraction));
    }
  }
}

}  // namespace epm::macro
