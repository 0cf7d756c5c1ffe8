// A machine room: thermal zones coupled to CRAC units through an airflow
// share matrix, plus inter-zone heat recirculation (paper §2.2 / Fig. 2).
//
// The room advances in fixed integration steps; each CRAC runs its discrete
// control law on its own 15-minute schedule, and thermal alarms are recorded
// whenever a zone crosses its protective threshold.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/crac.h"
#include "thermal/zone.h"

namespace epm::thermal {

struct AlarmEvent {
  double time_s;
  std::size_t zone;
  double temperature_c;
};

struct MachineRoomConfig {
  std::vector<ZoneConfig> zones;
  std::vector<CracConfig> cracs;
  /// airflow_share[zone][crac]: fraction of the zone's cooling air supplied
  /// by each CRAC. Rows are normalized internally and must not be all-zero.
  std::vector<std::vector<double>> airflow_share;
  /// recirculation[dst][src]: fraction of src zone's IT heat that spills
  /// into dst's aisle on top of dst's own heat. Diagonal is ignored (a
  /// zone's own heat is counted once). May be empty for no recirculation.
  std::vector<std::vector<double>> recirculation;
  double integration_step_s = 30.0;
};

class MachineRoom {
 public:
  explicit MachineRoom(MachineRoomConfig config);

  std::size_t zone_count() const { return zones_.size(); }
  std::size_t crac_count() const { return cracs_.size(); }
  double now_s() const { return now_s_; }

  const ThermalZone& zone(std::size_t i) const;
  const Crac& crac(std::size_t k) const;
  Crac& crac(std::size_t k);
  /// Commanded supply temperature a zone receives (its airflow-share mix of
  /// CRAC supplies, before the propagation lag).
  double zone_supply_c(std::size_t i) const;

  /// Advances the room to `until_s` with constant per-zone IT heat. CRAC
  /// controllers fire on their own schedules inside the interval. New alarm
  /// events are appended to `alarms()`.
  void run_until(double until_s, const std::vector<double>& it_heat_w);

  /// Total heat currently being removed through all zones' conductances
  /// (equals total injected heat in steady state).
  double heat_removal_w() const;

  const std::vector<AlarmEvent>& alarms() const { return alarms_; }
  /// Zones currently above their alarm threshold.
  std::vector<std::size_t> zones_in_alarm() const;

  /// Disables a CRAC's automatic control (macro-layer override).
  void set_crac_auto(std::size_t k, bool enabled);

 private:
  void integrate_step(double dt_s, const std::vector<double>& it_heat_w);
  double effective_supply_c(std::size_t zone) const;
  double injected_heat_w(std::size_t zone, const std::vector<double>& it_heat_w) const;

  MachineRoomConfig config_;
  std::vector<ThermalZone> zones_;
  std::vector<Crac> cracs_;
  std::vector<double> next_control_s_;
  std::vector<bool> crac_auto_;
  std::vector<bool> zone_alarmed_;  // edge-triggered alarm latch
  std::vector<AlarmEvent> alarms_;
  std::vector<double> temps_;  ///< zone temperatures for the CRACs, reused
  double now_s_ = 0.0;
};

/// Builds the two-zone/one-CRAC room of §5.1: the CRAC is highly sensitive
/// to zone A and almost blind to zone B.
MachineRoomConfig make_sensitivity_scenario_room(double sensitivity_a = 0.95,
                                                 double sensitivity_b = 0.05);

}  // namespace epm::thermal
