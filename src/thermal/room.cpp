#include "thermal/room.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::thermal {

MachineRoom::MachineRoom(MachineRoomConfig config) : config_(std::move(config)) {
  require(!config_.zones.empty(), "MachineRoom: no zones");
  require(!config_.cracs.empty(), "MachineRoom: no CRACs");
  require(config_.integration_step_s > 0.0, "MachineRoom: step must be positive");
  require(config_.airflow_share.size() == config_.zones.size(),
          "MachineRoom: airflow_share must have one row per zone");
  for (auto& row : config_.airflow_share) {
    require(row.size() == config_.cracs.size(),
            "MachineRoom: airflow_share row must have one entry per CRAC");
    double total = 0.0;
    for (double v : row) {
      require(v >= 0.0, "MachineRoom: negative airflow share");
      total += v;
    }
    require(total > 0.0, "MachineRoom: zone receives no airflow");
    for (double& v : row) v /= total;
  }
  if (!config_.recirculation.empty()) {
    require(config_.recirculation.size() == config_.zones.size(),
            "MachineRoom: recirculation must be zones x zones");
    for (const auto& row : config_.recirculation) {
      require(row.size() == config_.zones.size(),
              "MachineRoom: recirculation must be zones x zones");
      for (double v : row) {
        require(v >= 0.0 && v <= 1.0, "MachineRoom: recirculation outside [0,1]");
      }
    }
  }

  zones_.reserve(config_.zones.size());
  for (const auto& z : config_.zones) zones_.emplace_back(z);
  cracs_.reserve(config_.cracs.size());
  for (const auto& c : config_.cracs) {
    require(c.zone_sensitivity.size() == config_.zones.size(),
            "MachineRoom: CRAC sensitivity must cover every zone");
    cracs_.emplace_back(c);
    next_control_s_.push_back(c.control_period_s);
    crac_auto_.push_back(true);
  }
  zone_alarmed_.assign(zones_.size(), false);
}

const ThermalZone& MachineRoom::zone(std::size_t i) const {
  require(i < zones_.size(), "MachineRoom: zone index out of range");
  return zones_[i];
}

const Crac& MachineRoom::crac(std::size_t k) const {
  require(k < cracs_.size(), "MachineRoom: CRAC index out of range");
  return cracs_[k];
}

Crac& MachineRoom::crac(std::size_t k) {
  require(k < cracs_.size(), "MachineRoom: CRAC index out of range");
  return cracs_[k];
}

double MachineRoom::zone_supply_c(std::size_t i) const {
  require(i < zones_.size(), "MachineRoom: zone index out of range");
  return effective_supply_c(i);
}

double MachineRoom::effective_supply_c(std::size_t zone) const {
  double mix = 0.0;
  for (std::size_t k = 0; k < cracs_.size(); ++k) {
    mix += config_.airflow_share[zone][k] * cracs_[k].supply_temp_c();
  }
  return mix;
}

double MachineRoom::injected_heat_w(std::size_t zone,
                                    const std::vector<double>& it_heat_w) const {
  double heat = it_heat_w[zone];
  if (!config_.recirculation.empty()) {
    for (std::size_t src = 0; src < zones_.size(); ++src) {
      if (src == zone) continue;
      heat += config_.recirculation[zone][src] * it_heat_w[src];
    }
  }
  return heat;
}

void MachineRoom::integrate_step(double dt_s, const std::vector<double>& it_heat_w) {
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    zones_[i].step(dt_s, injected_heat_w(i, it_heat_w), effective_supply_c(i));
  }
  now_s_ += dt_s;
  // CRAC discrete control on each unit's own schedule.
  temps_.clear();
  for (const auto& z : zones_) temps_.push_back(z.temperature_c());
  for (std::size_t k = 0; k < cracs_.size(); ++k) {
    if (now_s_ + 1e-9 >= next_control_s_[k]) {
      if (crac_auto_[k]) cracs_[k].control_step(temps_);
      next_control_s_[k] += cracs_[k].config().control_period_s;
    }
  }
  // Edge-triggered alarm recording.
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    const bool hot = zones_[i].in_alarm();
    if (hot && !zone_alarmed_[i]) {
      alarms_.push_back(AlarmEvent{now_s_, i, zones_[i].temperature_c()});
    }
    zone_alarmed_[i] = hot;
  }
}

void MachineRoom::run_until(double until_s, const std::vector<double>& it_heat_w) {
  require(it_heat_w.size() == zones_.size(),
          "MachineRoom: it_heat_w must have one entry per zone");
  for (double h : it_heat_w) require(h >= 0.0, "MachineRoom: negative heat");
  while (now_s_ + 1e-9 < until_s) {
    const double dt = std::min(config_.integration_step_s, until_s - now_s_);
    integrate_step(dt, it_heat_w);
  }
}

double MachineRoom::heat_removal_w() const {
  double total = 0.0;
  for (const auto& z : zones_) {
    total += z.config().conductance_w_per_c *
             std::max(0.0, z.temperature_c() - z.lagged_supply_c());
  }
  return total;
}

std::vector<std::size_t> MachineRoom::zones_in_alarm() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    if (zones_[i].in_alarm()) out.push_back(i);
  }
  return out;
}

void MachineRoom::set_crac_auto(std::size_t k, bool enabled) {
  require(k < crac_auto_.size(), "MachineRoom: CRAC index out of range");
  crac_auto_[k] = enabled;
}

MachineRoomConfig make_sensitivity_scenario_room(double sensitivity_a,
                                                 double sensitivity_b) {
  require(sensitivity_a >= 0.0 && sensitivity_b >= 0.0 &&
              sensitivity_a + sensitivity_b > 0.0,
          "make_sensitivity_scenario_room: invalid sensitivities");
  MachineRoomConfig room;
  ZoneConfig a;
  a.name = "zoneA";
  ZoneConfig b;
  b.name = "zoneB";
  room.zones = {a, b};
  CracConfig crac;
  crac.name = "crac0";
  crac.zone_sensitivity = {sensitivity_a, sensitivity_b};
  room.cracs = {crac};
  room.airflow_share = {{1.0}, {1.0}};
  room.recirculation = {{0.0, 0.05}, {0.05, 0.0}};
  return room;
}

}  // namespace epm::thermal
