// Shared cyber-physical facility plumbing used by both the coordinated
// macro-resource manager and the uncoordinated baseline stack: service
// clusters mapped onto thermal zones, the tier-2 power tree, the machine
// room, and the cooling plant, with unified energy/PUE/alarm accounting.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cluster/service_cluster.h"
#include "power/distribution.h"
#include "thermal/cooling_plant.h"
#include "thermal/room.h"
#include "workload/request_model.h"

namespace epm::sensing {
class InvariantMonitor;
}

namespace epm::macro {

struct MacroServiceSpec {
  std::string name;
  cluster::ServiceClusterConfig cluster;
  workload::RequestModelConfig requests;
  /// zone_share[z]: fraction of this service's server heat landing in each
  /// thermal zone. Normalized internally; adjusting it is the "placement /
  /// migration" knob.
  std::vector<double> zone_share;
};

/// A facility steps its services and plant once a minute.
inline constexpr double kFacilityEpochS = 60.0;

struct FacilityConfig {
  std::vector<MacroServiceSpec> services;
  power::Tier2TopologyConfig power;
  thermal::MachineRoomConfig room;
  thermal::CoolingPlantConfig plant;
};

/// Per-step outcome across services and the physical plant.
struct FacilityStep {
  double time_s = 0.0;
  std::vector<cluster::EpochResult> services;
  double it_power_w = 0.0;
  double mechanical_power_w = 0.0;
  double utility_draw_w = 0.0;
  double pue = 0.0;
  double max_zone_temp_c = 0.0;
  std::size_t new_thermal_alarms = 0;
  bool power_overloaded = false;
};

/// Owns the clusters and physical models and advances them together. The
/// managers mutate clusters/CRACs/zone shares between steps.
class Facility {
 public:
  explicit Facility(FacilityConfig config);

  std::size_t service_count() const { return clusters_.size(); }
  cluster::ServiceCluster& service(std::size_t i);
  const cluster::ServiceCluster& service(std::size_t i) const;
  const std::string& service_name(std::size_t i) const;
  workload::RequestModel& request_model(std::size_t i);
  thermal::MachineRoom& room() { return room_; }
  const thermal::MachineRoom& room() const { return room_; }
  const thermal::CoolingPlant& plant() const { return plant_; }
  const power::Tier2Topology& power_topology() const { return topology_; }
  double epoch_s() const { return kFacilityEpochS; }
  double now_s() const { return now_s_; }

  /// Sets a service's zone heat distribution (normalized internally).
  void set_zone_share(std::size_t service, std::vector<double> share);
  const std::vector<double>& zone_share(std::size_t service) const;

  /// Advances one epoch: runs every cluster under its demand level, injects
  /// the resulting heat into zones, advances the room, evaluates the cooling
  /// plant and power tree.
  FacilityStep step(const std::vector<double>& demand_per_service, double outside_c);

  /// Called after every step with the completed step result.
  using StepObserver = std::function<void(const FacilityStep&)>;
  void add_step_observer(StepObserver observer);

  /// Registers a step observer that feeds every epoch's state (power tree,
  /// PUE, per-service request accounting, zone temperatures) into the
  /// runtime invariant monitor. The monitor must outlive the facility.
  void attach_invariant_monitor(sensing::InvariantMonitor* monitor);

  /// Cumulative totals.
  double total_it_energy_j() const { return it_energy_j_; }
  double total_mechanical_energy_j() const { return mech_energy_j_; }
  double total_energy_j() const { return it_energy_j_ + mech_energy_j_; }
  std::size_t total_sla_violation_epochs() const;
  std::size_t total_thermal_alarms() const { return alarms_seen_; }
  std::size_t total_overload_epochs() const { return overload_epochs_; }
  std::size_t epochs_run() const { return epochs_run_; }

 private:
  FacilityConfig config_;
  std::vector<cluster::ServiceCluster> clusters_;
  std::vector<workload::RequestModel> request_models_;
  std::vector<std::vector<double>> zone_shares_;
  power::Tier2Topology topology_;
  thermal::MachineRoom room_;
  thermal::CoolingPlant plant_;
  std::vector<StepObserver> observers_;
  std::vector<double> zone_heat_;  ///< step's per-zone heat, reused
  power::DistributionReport report_;  ///< step's power-tree report, reused
  double now_s_ = 0.0;
  double it_energy_j_ = 0.0;
  double mech_energy_j_ = 0.0;
  std::size_t alarms_seen_ = 0;
  std::size_t overload_epochs_ = 0;
  std::size_t epochs_run_ = 0;
};

/// A ready-made two-service / two-zone / one-CRAC facility used by the
/// Fig. 4 bench, the examples, and the integration tests.
FacilityConfig make_reference_facility(std::size_t servers_per_service = 120);

}  // namespace epm::macro
