// Graceful-degradation policy: the macro-resource manager's reaction to
// injected physical faults (paper §2.1/§2.2: the UPS window during utility
// outages, CRAC failures; §4: "performances can degrade gracefully when
// reaching resource limits").
//
// The policy subscribes to the fault injector and, each control epoch,
// converts the set of currently active faults plus the UPS ride-through
// margin into one DegradationAction: shed low-tier (batch) load, re-route a
// fraction of interactive traffic to a peer site, throttle P-states, move
// CRAC setpoints, and pause consolidation. Every posture change lands in
// the DecisionLog.
//
// The reaction is a pure function of the *active fault set* and the battery
// margin — no hysteresis, no internal schedule — which gives the
// monotonicity property the test suite leans on: adding fault events can
// only hold served load equal or push it down, never up.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "faults/types.h"
#include "macro/decision_log.h"

namespace epm::macro {

/// Shed/re-route only when the UPS cannot carry the present draw this long
/// (the paper's ride-through window).
inline constexpr double kRequiredRideThroughS = 1800.0;
/// Return-setpoint raise applied to every CRAC during a power emergency
/// (less cooling work, longer ride-through).
inline constexpr double kSetpointRaiseC = 3.0;
/// Return-setpoint drop applied to *healthy* CRACs during a cooling
/// emergency (surviving units cool harder).
inline constexpr double kSetpointDropC = 4.0;

struct DegradationPolicyConfig {
  /// Index of the sheddable low-tier service (batch in the reference
  /// facility); interactive services are only ever re-routed, not shed.
  std::size_t low_tier_service = 1;
  /// Fraction of low-tier demand shed during a power emergency.
  double low_tier_shed_fraction = 0.85;
  /// Fraction of low-tier demand shed per unit of lost cooling capacity
  /// during a cooling emergency (0 relies on the surviving CRACs alone).
  double cooling_shed_fraction = 0.85;
  /// Fraction of interactive demand re-routed to a peer site during a power
  /// emergency (served remotely — not counted as locally served).
  double reroute_fraction = 0.5;
  /// Throttle the fleet to the deepest P-state during a power emergency.
  bool throttle_on_power_emergency = true;
  /// Fraction of low-tier demand shed while the overload defense reports
  /// congestion (breaker not closed, or shed rate above the threshold), so
  /// brownout shedding and admission control compose instead of fighting:
  /// batch capacity is handed to the interactive tier for retry-storm
  /// recovery. Only engages once observe_overload() has been called — the
  /// default figure paths never are, and are bit-identical.
  double overload_shed_fraction = 1.0;
  /// Shed rate (req/s refused by queue/bucket/breaker) above which the
  /// overload posture engages even with the breaker closed.
  double overload_min_shed_rate_per_s = 1.0;
};

/// Feedback from the cluster admission stack (bounded queue + token bucket
/// + circuit breaker) into the macro layer, sampled once per control epoch.
struct OverloadSignal {
  /// True when the cluster breaker is open or probing (not closed).
  bool breaker_open = false;
  /// Requests per second refused by the admission stack this epoch.
  double shed_rate_per_s = 0.0;
  /// Re-offered (retry) attempts per second this epoch.
  double retry_rate_per_s = 0.0;
};

/// What the facility loop should do this epoch.
struct DegradationAction {
  /// Per-service fraction of offered demand to keep serving locally.
  std::vector<double> serve_scale;
  /// Per-service fraction of offered demand shed outright.
  std::vector<double> shed_scale;
  /// Per-service fraction of offered demand re-routed to a peer site.
  std::vector<double> reroute_scale;
  bool power_emergency = false;
  bool cooling_emergency = false;
  /// Active kRegionLoss fault: the severest tier — full interactive
  /// evacuation, batch fully shed, throttle, consolidation paused.
  bool region_emergency = false;
  /// Servers stop retiring while any fault is active.
  bool consolidation_paused = false;
  bool throttle = false;
  /// Delta on every CRAC's return setpoint (positive during power
  /// emergencies).
  double setpoint_delta_c = 0.0;
  /// Additional delta on healthy (underated) CRACs (negative during cooling
  /// emergencies).
  double healthy_setpoint_delta_c = 0.0;
};

class DegradationPolicy {
 public:
  DegradationPolicy(DegradationPolicyConfig config, std::size_t service_count,
                    DecisionLog* log = nullptr);

  /// FaultInjector subscriber: tracks the active set, logs risk alerts.
  /// Returns true for fault types the policy reacts to.
  bool on_fault(const faults::FaultEvent& event, bool onset, double now_s);

  /// Computes this epoch's posture from the active fault set and the UPS
  /// ride-through at the present draw. Logs posture transitions.
  DegradationAction react(double now_s, double battery_ride_through_s);

  /// Admission-stack feedback: while the signal reports congestion, react()
  /// additionally sheds the low tier by overload_shed_fraction. Never
  /// calling this leaves the policy exactly as before (goldens unchanged).
  void observe_overload(const OverloadSignal& signal, double now_s);

  const DegradationPolicyConfig& config() const { return config_; }
  bool any_fault_active() const;
  /// True while the last observed overload signal reported congestion.
  bool overload_active() const { return overload_active_; }
  const OverloadSignal& last_overload() const { return last_overload_; }
  std::size_t active_count(faults::FaultType type) const {
    return active_[static_cast<std::size_t>(type)];
  }
  /// Sum of active cooling-fault severities (CRAC failure counts as 1.0).
  double cooling_loss() const { return cooling_loss_; }

 private:
  DegradationPolicyConfig config_;
  std::size_t service_count_;
  DecisionLog* log_;
  std::array<std::size_t, faults::kFaultTypeCount> active_{};
  double cooling_loss_ = 0.0;
  bool was_power_emergency_ = false;
  bool was_shedding_ = false;
  bool was_cooling_emergency_ = false;
  bool was_region_emergency_ = false;
  bool overload_active_ = false;
  bool was_overload_ = false;
  OverloadSignal last_overload_{};
};

}  // namespace epm::macro
