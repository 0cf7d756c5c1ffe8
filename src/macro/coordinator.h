// The macro-resource management layer (paper §3.2, Fig. 4).
//
// "It takes information such as service-level agreement (SLA), application
//  structures, and environmental conditions... monitors the operation status
//  from application, system, and physical data... and makes decisions that
//  affect power provisioning, cooling control, server allocation, service
//  placement, load balancing, and job priorities."
//
// Concretely, every coordination period the manager:
//   1. updates per-service seasonal demand predictors,
//   2. jointly sizes each cluster's fleet and P-state (decide_joint),
//   3. checks the UPS power budget against the predicted draw and plans
//      caps when oversubscription would overflow (power provisioning),
//   4. steers CRAC supply temperatures from *server-side* knowledge of
//      per-zone heat, instead of letting the CRACs chase their own biased
//      return-air sensors (cooling control), and
//   5. shifts service zone shares away from zones at thermal risk
//      (service placement).
// Every decision lands in the DecisionLog.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "macro/decision_log.h"
#include "macro/facility.h"
#include "macro/joint_policy.h"
#include "onoff/predictor.h"
#include "sensing/actuator_plane.h"
#include "sensing/estimator.h"
#include "sensing/sensor_plane.h"

namespace epm::macro {

struct MacroManagerConfig {
  JointPolicyConfig joint;
  onoff::SeasonalPredictorConfig predictor;
  /// Coordination cadence in epochs (decisions are slower than epochs, as
  /// Fig. 4's "time scale of demand variations" suggests).
  std::size_t coordinate_every_epochs = 5;
  /// Safety margin in residual sigmas added to demand predictions.
  double demand_margin_sigmas = 1.5;
  /// Keep predicted zone steady-state this far below the alarm threshold.
  double zone_margin_c = 3.0;
  /// Shift load out of a zone only when it gets this close to its alarm
  /// threshold. Must be smaller than zone_margin_c, otherwise placement
  /// churns against the cooling controller's own (efficient) operating
  /// point at exactly alarm - zone_margin_c.
  double placement_trigger_margin_c = 1.0;
  /// Facility power budget; 0 = the UPS capacity from the topology.
  double power_budget_w = 0.0;
  /// Estimated mechanical fraction used when budgeting (before the plant
  /// reacts); the critical budget is what the UPS actually limits.
  bool use_sleep_states = true;
  /// Validation/estimation applied to every sensed channel. The default is
  /// an exact raw passthrough, so the manager's decisions are bit-identical
  /// to direct ground-truth reads until hardening is enabled.
  sensing::EstimatorConfig estimator;
};

/// Executes one actuator command against the facility's plant; fleet-size
/// commands park servers in sleep states when `use_sleep_states`, else
/// power them off. Returns false for an unknown command kind.
bool apply_actuator_command(Facility& facility,
                            const sensing::ActuatorCommand& command,
                            bool use_sleep_states);

/// The manager never touches ground truth directly: every observation goes
/// through a SensorPlane + ValidatedEstimator, and every command (fleet
/// size, P-state, CRAC setpoint, power cap, zone share) is issued through an
/// ActuatorPlane. Pass external planes to subject the manager to sensor and
/// actuator faults; by default it owns exact, infallible planes.
class MacroResourceManager {
 public:
  MacroResourceManager(Facility& facility, MacroManagerConfig config = {},
                       sensing::SensorPlane* sensors = nullptr,
                       sensing::ActuatorPlane* actuators = nullptr);

  /// One epoch: retry pending actuations, coordinate if due, then advance
  /// the facility.
  FacilityStep step(const std::vector<double>& demand_per_service, double outside_c);

  const DecisionLog& log() const { return log_; }
  std::size_t capping_epochs() const { return capping_epochs_; }
  const sensing::ValidatedEstimator& estimator() const { return estimator_; }
  const sensing::ActuatorPlane& actuators() const { return *actuators_; }
  /// Oldest accepted-data age across the service channels as of the last
  /// step; drives the staleness margin widening.
  double max_estimate_age_s() const { return max_estimate_age_s_; }

 private:
  void coordinate();
  sensing::Estimate estimate(sensing::ChannelKind kind, std::uint32_t index,
                             double truth, double now_s);
  void issue(sensing::CommandKind kind, std::size_t target, double value,
             std::vector<double> values = {});

  Facility& facility_;
  MacroManagerConfig config_;
  DecisionLog log_;
  std::unique_ptr<sensing::SensorPlane> owned_sensors_;
  std::unique_ptr<sensing::ActuatorPlane> owned_actuators_;
  sensing::SensorPlane* sensors_ = nullptr;
  sensing::ActuatorPlane* actuators_ = nullptr;
  sensing::ValidatedEstimator estimator_;
  std::vector<onoff::SeasonalPredictor> predictors_;
  std::vector<double> last_arrival_rate_;
  std::vector<double> last_service_demand_s_;
  std::vector<std::size_t> chosen_pstate_;
  double max_estimate_age_s_ = 0.0;
  std::size_t epoch_count_ = 0;
  std::size_t capping_epochs_ = 0;
};

}  // namespace epm::macro
