#include "macro/degradation.h"

#include <algorithm>

#include "core/require.h"

namespace epm::macro {

/// Interactive demand evacuated to peer sites during a region emergency: a
/// regional grid loss darkens every nearby site too, so all of it.
constexpr double kRegionLossRerouteFraction = 1.0;

DegradationPolicy::DegradationPolicy(DegradationPolicyConfig config,
                                     std::size_t service_count,
                                     DecisionLog* log)
    : config_(config), service_count_(service_count), log_(log) {
  require(service_count_ > 0, "DegradationPolicy: no services");
  require(config_.low_tier_service < service_count_,
          "DegradationPolicy: low_tier_service out of range");
  require(config_.low_tier_shed_fraction >= 0.0 &&
              config_.low_tier_shed_fraction <= 1.0,
          "DegradationPolicy: shed fraction outside [0,1]");
  require(config_.reroute_fraction >= 0.0 && config_.reroute_fraction <= 1.0,
          "DegradationPolicy: reroute fraction outside [0,1]");
  require(config_.cooling_shed_fraction >= 0.0 &&
              config_.cooling_shed_fraction <= 1.0,
          "DegradationPolicy: cooling shed fraction outside [0,1]");
  require(config_.overload_shed_fraction >= 0.0 &&
              config_.overload_shed_fraction <= 1.0,
          "DegradationPolicy: overload shed fraction outside [0,1]");
  require(config_.overload_min_shed_rate_per_s >= 0.0,
          "DegradationPolicy: overload shed-rate threshold must be >= 0");
}

void DegradationPolicy::observe_overload(const OverloadSignal& signal,
                                         double now_s) {
  last_overload_ = signal;
  overload_active_ =
      signal.breaker_open ||
      signal.shed_rate_per_s > config_.overload_min_shed_rate_per_s;
  if (log_) {
    if (overload_active_ && !was_overload_) {
      log_->record_text(now_s, DecisionKind::kLoadShedding,
                        "overload defense engaged: shed batch tier for "
                        "interactive headroom");
    } else if (!overload_active_ && was_overload_) {
      log_->record_text(now_s, DecisionKind::kLoadShedding,
                        "overload cleared: restore batch tier");
    }
  }
  was_overload_ = overload_active_;
}

bool DegradationPolicy::on_fault(const faults::FaultEvent& event, bool onset,
                                 double now_s) {
  auto& count = active_[static_cast<std::size_t>(event.type)];
  if (onset) {
    ++count;
  } else if (count > 0) {
    --count;
  }

  const bool cooling = event.type == faults::FaultType::kCracFailure ||
                       event.type == faults::FaultType::kCoolingDerate;
  if (cooling) {
    const double loss = event.type == faults::FaultType::kCracFailure
                            ? 1.0
                            : std::clamp(event.severity, 0.0, 1.0);
    cooling_loss_ = std::max(0.0, cooling_loss_ + (onset ? loss : -loss));
  }

  if (log_ && onset) {
    log_->record_text(now_s, DecisionKind::kRiskAlert,
                      "fault onset: " + faults::to_string(event.type));
  }

  switch (event.type) {
    case faults::FaultType::kUtilityOutage:
    case faults::FaultType::kCracFailure:
    case faults::FaultType::kCoolingDerate:
    case faults::FaultType::kServerCrash:
    case faults::FaultType::kPsuTrip:
    case faults::FaultType::kFlashCrowd:
    case faults::FaultType::kRegionLoss:
      return true;
    case faults::FaultType::kSensorDropout:
    case faults::FaultType::kSensorStuck:
    case faults::FaultType::kSensorNoise:
      return false;  // the sensing plane's problem, not the coordinator's
    case faults::FaultType::kActuatorFail:
      return false;  // the actuator plane retries; nothing to shed for
    case faults::FaultType::kControllerCrash:
    case faults::FaultType::kControllerHang:
    case faults::FaultType::kControllerRestart:
      return false;  // the control plane's replicas handle their own deaths
  }
  return false;
}

bool DegradationPolicy::any_fault_active() const {
  for (const std::size_t n : active_) {
    if (n > 0) return true;
  }
  return false;
}

DegradationAction DegradationPolicy::react(double now_s,
                                           double battery_ride_through_s) {
  DegradationAction action;
  action.serve_scale.assign(service_count_, 1.0);
  action.shed_scale.assign(service_count_, 0.0);
  action.reroute_scale.assign(service_count_, 0.0);

  action.power_emergency =
      active_[static_cast<std::size_t>(faults::FaultType::kUtilityOutage)] > 0;
  action.cooling_emergency = cooling_loss_ > 0.0;
  action.consolidation_paused = any_fault_active();

  // Power emergency with an insufficient UPS window: shed the latency-
  // tolerant tier, push interactive traffic to a peer site, throttle, and
  // back off the cooling effort — every watt extends the window.
  const bool shedding = action.power_emergency &&
                        battery_ride_through_s < kRequiredRideThroughS;
  if (shedding) {
    action.shed_scale[config_.low_tier_service] = config_.low_tier_shed_fraction;
    for (std::size_t s = 0; s < service_count_; ++s) {
      if (s != config_.low_tier_service) {
        action.reroute_scale[s] = config_.reroute_fraction;
      }
    }
    action.throttle = config_.throttle_on_power_emergency;
    action.setpoint_delta_c = kSetpointRaiseC;
  }

  // Cooling emergency: shed low-tier heat in proportion to the lost cooling
  // capacity and make the surviving CRACs cool harder.
  if (action.cooling_emergency) {
    const double loss = std::min(1.0, cooling_loss_);
    const double shed = config_.cooling_shed_fraction * loss;
    auto& low = action.shed_scale[config_.low_tier_service];
    // Combine with any power-emergency shed multiplicatively so the result
    // stays a fraction and grows monotonically with either emergency.
    low = 1.0 - (1.0 - low) * (1.0 - shed);
    action.healthy_setpoint_delta_c = -kSetpointDropC * loss;
  }

  // Region emergency: every nearby site shares the lost grid feed, so the
  // posture is the severest tier — evacuate interactive traffic to remote
  // regions, shed the batch tier outright, throttle, and raise setpoints to
  // stretch whatever ride-through the UPS has left. Composes on top of the
  // power/cooling tiers (max, not sum — fractions stay fractions).
  action.region_emergency =
      active_[static_cast<std::size_t>(faults::FaultType::kRegionLoss)] > 0;
  if (action.region_emergency) {
    action.shed_scale[config_.low_tier_service] = 1.0;
    for (std::size_t s = 0; s < service_count_; ++s) {
      if (s != config_.low_tier_service) {
        action.reroute_scale[s] =
            std::max(action.reroute_scale[s], kRegionLossRerouteFraction);
      }
    }
    action.throttle = config_.throttle_on_power_emergency;
    action.setpoint_delta_c = std::max(action.setpoint_delta_c, kSetpointRaiseC);
  }

  // Overload defense engaged (admission stack shedding / breaker open):
  // hand batch capacity to the interactive tier so the reconnect/retry
  // backlog drains within the client timeout. Composes multiplicatively
  // with the power/cooling sheds, like those compose with each other.
  if (overload_active_) {
    auto& low = action.shed_scale[config_.low_tier_service];
    low = 1.0 - (1.0 - low) * (1.0 - config_.overload_shed_fraction);
  }

  for (std::size_t s = 0; s < service_count_; ++s) {
    action.serve_scale[s] =
        (1.0 - action.shed_scale[s]) * (1.0 - action.reroute_scale[s]);
  }

  if (log_) {
    if (shedding && !was_shedding_) {
      log_->record_text(now_s, DecisionKind::kLoadShedding,
                        "power emergency: shed low tier, reroute interactive");
      log_->record_text(now_s, DecisionKind::kLoadBalancing,
                        "reroute interactive traffic to peer site");
      if (action.throttle) {
        log_->record_text(now_s, DecisionKind::kPowerCapping,
                          "throttle fleet to deepest P-state");
      }
    }
    if (action.power_emergency && !was_power_emergency_) {
      log_->record_text(now_s, DecisionKind::kCoolingControl,
                        "raise CRAC setpoints for ride-through");
    }
    if (action.region_emergency && !was_region_emergency_) {
      log_->record_text(now_s, DecisionKind::kLoadBalancing,
                        "region emergency: evacuate interactive to remote "
                        "regions");
      log_->record_text(now_s, DecisionKind::kLoadShedding,
                        "region emergency: shed batch tier outright");
    }
    if (action.cooling_emergency && !was_cooling_emergency_) {
      log_->record_text(now_s, DecisionKind::kLoadShedding,
                        "cooling emergency: shed low tier heat");
      log_->record_text(now_s, DecisionKind::kCoolingControl,
                        "healthy CRACs cool harder");
    }
    if (action.consolidation_paused &&
        !(was_power_emergency_ || was_cooling_emergency_ || was_shedding_) &&
        (action.power_emergency || action.cooling_emergency)) {
      log_->record_text(now_s, DecisionKind::kServerAllocation,
                        "pause consolidation during fault");
    }
  }
  was_shedding_ = shedding;
  was_power_emergency_ = action.power_emergency;
  was_cooling_emergency_ = action.cooling_emergency;
  was_region_emergency_ = action.region_emergency;
  return action;
}

}  // namespace epm::macro
