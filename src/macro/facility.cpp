#include "macro/facility.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "sensing/invariants.h"

namespace epm::macro {

Facility::Facility(FacilityConfig config)
    : config_(std::move(config)),
      topology_(power::build_tier2_topology(config_.power)),
      room_(config_.room),
      plant_(config_.plant) {
  require(!config_.services.empty(), "Facility: no services");
  require(config_.epoch_s > 0.0, "Facility: epoch must be positive");
  clusters_.reserve(config_.services.size());
  for (const auto& spec : config_.services) {
    clusters_.emplace_back(spec.cluster);
    request_models_.emplace_back(spec.requests);
    std::vector<double> share = spec.zone_share;
    if (share.empty()) share.assign(room_.zone_count(), 1.0);
    require(share.size() == room_.zone_count(),
            "Facility: zone_share must cover every zone");
    double total = 0.0;
    for (double s : share) {
      require(s >= 0.0, "Facility: negative zone share");
      total += s;
    }
    require(total > 0.0, "Facility: zone shares all zero");
    for (double& s : share) s /= total;
    zone_shares_.push_back(std::move(share));
  }
}

cluster::ServiceCluster& Facility::service(std::size_t i) {
  require(i < clusters_.size(), "Facility: service index out of range");
  return clusters_[i];
}

const cluster::ServiceCluster& Facility::service(std::size_t i) const {
  require(i < clusters_.size(), "Facility: service index out of range");
  return clusters_[i];
}

const std::string& Facility::service_name(std::size_t i) const {
  require(i < config_.services.size(), "Facility: service index out of range");
  return config_.services[i].name;
}

workload::RequestModel& Facility::request_model(std::size_t i) {
  require(i < request_models_.size(), "Facility: service index out of range");
  return request_models_[i];
}

void Facility::set_zone_share(std::size_t service, std::vector<double> share) {
  require(service < zone_shares_.size(), "Facility: service index out of range");
  require(share.size() == room_.zone_count(),
          "Facility: zone_share must cover every zone");
  double total = 0.0;
  for (double s : share) {
    require(s >= 0.0, "Facility: negative zone share");
    total += s;
  }
  require(total > 0.0, "Facility: zone shares all zero");
  for (double& s : share) s /= total;
  zone_shares_[service] = std::move(share);
}

const std::vector<double>& Facility::zone_share(std::size_t service) const {
  require(service < zone_shares_.size(), "Facility: service index out of range");
  return zone_shares_[service];
}

FacilityStep Facility::step(const std::vector<double>& demand_per_service,
                            double outside_c) {
  require(demand_per_service.size() == clusters_.size(),
          "Facility: demand vector must cover every service");

  FacilityStep out;
  out.time_s = now_s_;
  out.services.reserve(clusters_.size());

  // 1. Run every service cluster for one epoch.
  zone_heat_.assign(room_.zone_count(), 0.0);
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const auto load =
        request_models_[i].offered_load(demand_per_service[i], config_.epoch_s);
    const auto result = clusters_[i].run_epoch(config_.epoch_s, load);
    out.it_power_w += result.server_power_w;
    for (std::size_t z = 0; z < zone_heat_.size(); ++z) {
      zone_heat_[z] += result.server_power_w * zone_shares_[i][z];
    }
    out.services.push_back(result);
  }

  // 2. Advance the machine room; all server power becomes heat.
  const std::size_t alarms_before = room_.alarms().size();
  room_.run_until(now_s_ + config_.epoch_s, zone_heat_);
  out.new_thermal_alarms = room_.alarms().size() - alarms_before;
  alarms_seen_ += out.new_thermal_alarms;
  for (std::size_t z = 0; z < room_.zone_count(); ++z) {
    out.max_zone_temp_c = std::max(out.max_zone_temp_c, room_.zone(z).temperature_c());
  }

  // 3. Cooling plant draw: remove the injected heat at the heat-weighted
  //    mean supply temperature of the active CRACs.
  double total_heat = 0.0;
  for (double h : zone_heat_) total_heat += h;
  double supply_mix = 0.0;
  for (std::size_t k = 0; k < room_.crac_count(); ++k) {
    supply_mix += room_.crac(k).supply_temp_c();
  }
  supply_mix /= static_cast<double>(room_.crac_count());
  const auto cooling = plant_.power_draw(total_heat, supply_mix, outside_c);
  out.mechanical_power_w = cooling.total_w();

  // 4. Power tree: spread IT power uniformly over the racks, mechanical
  //    load on its feeder, and evaluate losses/overloads.
  auto& tree = topology_.tree;
  const double per_rack =
      out.it_power_w / static_cast<double>(topology_.rack_ids.size());
  for (power::NodeId rack : topology_.rack_ids) tree.set_direct_load(rack, per_rack);
  tree.set_direct_load(topology_.mechanical_id, out.mechanical_power_w);
  tree.evaluate(report_);
  out.utility_draw_w = report_.utility_draw_w;
  out.pue = report_.pue;
  out.power_overloaded = !report_.overloaded.empty();
  if (out.power_overloaded) ++overload_epochs_;

  it_energy_j_ += out.it_power_w * config_.epoch_s;
  mech_energy_j_ += out.mechanical_power_w * config_.epoch_s;
  now_s_ += config_.epoch_s;
  ++epochs_run_;
  for (const auto& observer : observers_) {
    observer(out);
  }
  return out;
}

void Facility::add_step_observer(StepObserver observer) {
  require(static_cast<bool>(observer), "Facility: null step observer");
  observers_.push_back(std::move(observer));
}

void Facility::attach_invariant_monitor(sensing::InvariantMonitor* monitor) {
  require(monitor != nullptr, "Facility: null invariant monitor");
  // One InvariantInputs serves every step: its vectors keep their capacity.
  add_step_observer([this, monitor, in = sensing::InvariantInputs{}](
                        const FacilityStep& step) mutable {
    in.time_s = step.time_s;
    in.it_power_w = step.it_power_w;
    in.mechanical_power_w = step.mechanical_power_w;
    in.utility_draw_w = step.utility_draw_w;
    in.pue = step.pue;
    in.max_zone_temp_c = step.max_zone_temp_c;
    in.zone_temps_c.clear();
    for (std::size_t z = 0; z < room_.zone_count(); ++z) {
      in.zone_temps_c.push_back(room_.zone(z).temperature_c());
    }
    in.arrival_rate_per_s.clear();
    in.dropped_rate_per_s.clear();
    for (const auto& r : step.services) {
      in.arrival_rate_per_s.push_back(r.arrival_rate_per_s);
      in.dropped_rate_per_s.push_back(r.dropped_rate_per_s);
    }
    monitor->check(in);
  });
}

std::size_t Facility::total_sla_violation_epochs() const {
  std::size_t n = 0;
  for (const auto& c : clusters_) n += c.sla_violation_epochs();
  return n;
}

FacilityConfig make_reference_facility(std::size_t servers_per_service) {
  FacilityConfig config;

  MacroServiceSpec web;
  web.name = "web";
  web.cluster.server_count = servers_per_service;
  web.cluster.initially_active = servers_per_service;
  web.requests.requests_per_demand_unit = 1.0;  // demand given in requests/s
  web.requests.stochastic_arrivals = false;
  web.zone_share = {0.7, 0.3};

  MacroServiceSpec batch = web;
  batch.name = "batch";
  batch.cluster.sla.target_mean_response_s = 2.0;  // latency-tolerant tier
  batch.zone_share = {0.3, 0.7};

  config.services = {web, batch};

  // Size the UPS for the fleet: 2 services x servers x 300 W peak, plus
  // margin for boot transients.
  const double peak_it =
      2.0 * static_cast<double>(servers_per_service) * 300.0;
  config.power.critical_capacity_w = peak_it * 1.15;
  config.power.pdu_count = 2;
  config.power.racks_per_pdu = 4;
  config.power.rack_capacity_w = peak_it / 4.0;

  config.room = thermal::make_sensitivity_scenario_room(0.6, 0.4);
  config.plant.has_economizer = false;
  return config;
}

}  // namespace epm::macro
