#include "repro/figures.h"

#include <cstddef>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/require.h"
#include "core/units.h"
#include "macro/coordinator.h"
#include "macro/uncoordinated.h"
#include "sensing/invariants.h"
#include "power/distribution.h"
#include "power/psu.h"
#include "thermal/cooling_plant.h"
#include "thermal/room.h"
#include "workload/messenger.h"

namespace epm::repro {

std::string FigureTable::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c) out << ',';
    out << columns[c];
  }
  out << '\n';
  out << std::setprecision(17);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << row[c];
    }
    out << '\n';
  }
  return out.str();
}

FigureTable FigureTable::from_csv(const std::string& name,
                                  const std::string& csv) {
  FigureTable table;
  table.name = name;
  std::istringstream stream(csv);
  std::string line;
  if (!std::getline(stream, line)) {
    throw std::invalid_argument("FigureTable: empty CSV for " + name);
  }
  std::istringstream header(line);
  std::string cell;
  while (std::getline(header, cell, ',')) table.columns.push_back(cell);
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    std::istringstream values(line);
    std::vector<double> row;
    while (std::getline(values, cell, ',')) row.push_back(std::stod(cell));
    if (row.size() != table.columns.size()) {
      throw std::invalid_argument("FigureTable: ragged CSV row in " + name);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

namespace {

// The conservative 2009-era cooling plant both fig1 tables assume: no
// economizer, over-cold supply air, low COP. Keeps PUE near the paper's
// "close to 2".
thermal::CoolingPlantConfig fig1_plant_config() {
  thermal::CoolingPlantConfig config;
  config.has_economizer = false;
  config.cop_at_reference = 2.2;
  config.fan_fraction = 0.22;
  return config;
}

}  // namespace

FigureTable fig1_power_flow() {
  FigureTable table;
  table.name = "fig1_power_flow";
  table.columns = {"load_frac", "servers",    "rack_kw", "critical_kw",
                   "ups_in_kw", "mech_kw",    "transformer_in_kw",
                   "utility_kw", "loss_kw",   "pue"};

  power::Tier2TopologyConfig topo_config;
  const thermal::CoolingPlant plant(fig1_plant_config());
  const power::Psu psu{power::PsuConfig{}};

  for (double load_frac : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    auto topo = power::build_tier2_topology(topo_config);
    const double it_dc_w = topo_config.critical_capacity_w * load_frac * 0.85;
    const double per_server_dc = 450.0 * 0.6;
    const auto servers = static_cast<std::size_t>(it_dc_w / per_server_dc);
    const double psu_in_per_server = psu.input_power_w(per_server_dc);
    const double rack_total = psu_in_per_server * static_cast<double>(servers);
    const double per_rack =
        rack_total / static_cast<double>(topo.rack_ids.size());
    for (auto rack : topo.rack_ids) topo.tree.set_direct_load(rack, per_rack);
    const auto cooling = plant.power_draw(rack_total, 14.0, 25.0);
    topo.tree.set_direct_load(topo.mechanical_id, cooling.total_w());

    const auto report = topo.tree.evaluate();
    const auto& ups_flow = report.flows[topo.ups_id];
    table.rows.push_back({load_frac, static_cast<double>(servers),
                          to_kilowatts(rack_total),
                          to_kilowatts(report.critical_power_w),
                          to_kilowatts(ups_flow.input_w),
                          to_kilowatts(report.mechanical_power_w),
                          to_kilowatts(report.flows[1].input_w),
                          to_kilowatts(report.utility_draw_w),
                          to_kilowatts(report.total_loss_w), report.pue});
  }
  return table;
}

FigureTable fig1_stage_shares() {
  FigureTable table;
  table.name = "fig1_stage_shares";
  table.columns = {"stage", "kw", "share_of_utility"};

  power::Tier2TopologyConfig topo_config;
  const thermal::CoolingPlant plant(fig1_plant_config());
  auto topo = power::build_tier2_topology(topo_config);
  const double rack_total = 500.0e3;
  for (auto rack : topo.rack_ids) {
    topo.tree.set_direct_load(
        rack, rack_total / static_cast<double>(topo.rack_ids.size()));
  }
  const auto cooling = plant.power_draw(rack_total, 14.0, 25.0);
  topo.tree.set_direct_load(topo.mechanical_id, cooling.total_w());
  const auto report = topo.tree.evaluate();
  const double utility = report.utility_draw_w;

  double pdu_loss = 0.0;
  for (auto id : topo.tree.nodes_of_kind(power::NodeKind::kPdu)) {
    pdu_loss += report.flows[id].loss_w;
  }
  const double stages[5] = {report.critical_power_w, report.mechanical_power_w,
                            report.flows[topo.ups_id].loss_w, pdu_loss,
                            report.flows[1].loss_w};
  for (std::size_t i = 0; i < 5; ++i) {
    table.rows.push_back({static_cast<double>(i), to_kilowatts(stages[i]),
                          stages[i] / utility});
  }
  return table;
}

FigureTable fig2_cooling_dynamics() {
  FigureTable table;
  table.name = "fig2_cooling_dynamics";
  table.columns = {"t_h",      "it_heat_kw",   "zone0_c", "zone1_c",
                   "supply_c", "crac_actions", "alarms"};

  thermal::MachineRoomConfig config;
  thermal::ZoneConfig cold_aisle;
  cold_aisle.name = "cold-aisle";
  thermal::ZoneConfig hot_spot = cold_aisle;
  hot_spot.name = "dense-racks";
  hot_spot.conductance_w_per_c = 2.0e3;
  config.zones = {cold_aisle, hot_spot};
  thermal::CracConfig crac;
  crac.name = "crac0";
  crac.zone_sensitivity = {0.5, 0.5};
  config.cracs = {crac};
  config.airflow_share = {{1.0}, {1.0}};
  config.recirculation = {{0.0, 0.08}, {0.08, 0.0}};
  thermal::MachineRoom room(config);

  const std::vector<double> light{8.0e3, 6.0e3};
  const std::vector<double> heavy{24.0e3, 18.0e3};
  double t = 0.0;
  const double sample_s = minutes(15.0);
  for (int i = 0; i <= 24; ++i) {
    const auto& heat = t < hours(2.0) ? light : heavy;
    if (i > 0) room.run_until(t, heat);
    table.rows.push_back({to_hours(t), (heat[0] + heat[1]) / 1e3,
                          room.zone(0).temperature_c(),
                          room.zone(1).temperature_c(),
                          room.crac(0).supply_temp_c(),
                          static_cast<double>(room.crac(0).control_actions()),
                          static_cast<double>(room.alarms().size())});
    t += sample_s;
  }
  return table;
}

namespace {

workload::MessengerTrace fig3_trace() {
  workload::MessengerConfig config;
  config.step_s = 15.0;
  config.seed = 2009;
  return workload::generate_messenger_trace(config, weeks(1.0));
}

}  // namespace

FigureTable fig3_daily_stats() {
  FigureTable table;
  table.name = "fig3_daily_stats";
  table.columns = {"day", "mean_conn_norm", "peak_conn_norm", "mean_login_rps",
                   "peak_login_rps"};
  const auto trace = fig3_trace();
  const double peak_conn = trace.connections.stats().max();
  for (int d = 0; d < 7; ++d) {
    const auto conn = trace.connections.stats_between(days(d), days(d + 1));
    const auto login =
        trace.login_rate_per_s.stats_between(days(d), days(d + 1));
    table.rows.push_back({static_cast<double>(d), conn.mean() / peak_conn,
                          conn.max() / peak_conn, login.mean(), login.max()});
  }
  return table;
}

FigureTable fig3_callouts() {
  FigureTable table;
  table.name = "fig3_callouts";
  table.columns = {"afternoon_to_midnight_ratio", "weekday_to_weekend_ratio",
                   "peak_login_rps", "flash_crowd_count"};
  workload::MessengerConfig config;
  config.step_s = 15.0;
  config.seed = 2009;
  const auto trace = workload::generate_messenger_trace(config, weeks(1.0));
  const workload::DiurnalModel diurnal(config.diurnal);
  const auto shape = summarize_messenger_trace(trace, diurnal);
  table.rows.push_back({shape.afternoon_to_midnight_ratio,
                        shape.weekday_to_weekend_ratio, shape.peak_login_rate,
                        static_cast<double>(shape.flash_crowd_count)});
  return table;
}

namespace {

struct Fig4Outcome {
  double it_kwh = 0.0;
  double mech_kwh = 0.0;
  double mean_pue = 0.0;
  double mean_servers = 0.0;
  std::size_t sla_violations = 0;
  std::size_t alarms = 0;
  std::size_t overloads = 0;
};

template <typename Stack>
Fig4Outcome fig4_run_week(macro::Facility& facility, Stack& stack,
                          const TimeSeries& demand_level) {
  // Every fig4 epoch is checked against the runtime physical invariants
  // (energy conservation, served <= offered, temperature bounds, PUE floor).
  // The monitor is scoped to this run; no caller steps the facility again.
  sensing::InvariantMonitor monitor;
  facility.attach_invariant_monitor(&monitor);
  Fig4Outcome out;
  double pue_sum = 0.0;
  double servers_sum = 0.0;
  for (std::size_t i = 0; i < demand_level.size(); ++i) {
    const double level = demand_level[i];
    const auto step = stack.step({level * 4000.0, level * 2500.0}, 18.0);
    pue_sum += step.pue;
    for (const auto& svc : step.services) {
      servers_sum += static_cast<double>(svc.serving);
      if (svc.sla_violated) ++out.sla_violations;
    }
    out.overloads += step.power_overloaded ? 1 : 0;
  }
  const auto epochs = static_cast<double>(demand_level.size());
  out.it_kwh = to_kwh(facility.total_it_energy_j());
  out.mech_kwh = to_kwh(facility.total_mechanical_energy_j());
  out.mean_pue = pue_sum / epochs;
  out.alarms = facility.total_thermal_alarms();
  out.mean_servers = servers_sum / epochs / 2.0;
  require(monitor.ok(), [&] {
    return "fig4: runtime invariant violated:\n" + monitor.report();
  });
  return out;
}

TimeSeries fig4_demand_level() {
  workload::MessengerConfig wl;
  wl.step_s = 60.0;
  wl.seed = 4;
  const auto trace = workload::generate_messenger_trace(wl, weeks(1.0));
  const double peak = trace.connections.stats().max();
  return trace.connections.scaled(1.0 / peak);
}

}  // namespace

FigureTable fig4_stack_outcomes() {
  FigureTable table;
  table.name = "fig4_stack_outcomes";
  table.columns = {"stack",           "it_kwh",         "mech_kwh",
                   "mean_pue",        "mean_servers_per_svc",
                   "sla_violations",  "thermal_alarms", "power_overloads"};
  const auto level = fig4_demand_level();
  const auto config = macro::make_reference_facility(60);

  macro::Facility static_facility(config);
  struct StaticStack {
    macro::Facility& facility;
    macro::FacilityStep step(const std::vector<double>& demand,
                             double outside_c) {
      return facility.step(demand, outside_c);
    }
  } static_stack{static_facility};
  const auto static_out = fig4_run_week(static_facility, static_stack, level);

  macro::Facility baseline_facility(config);
  macro::UncoordinatedStack baseline(baseline_facility);
  const auto micro_out = fig4_run_week(baseline_facility, baseline, level);

  macro::Facility coordinated(config);
  macro::MacroResourceManager manager(coordinated);
  const auto macro_out = fig4_run_week(coordinated, manager, level);

  const Fig4Outcome* outs[3] = {&static_out, &micro_out, &macro_out};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& o = *outs[i];
    table.rows.push_back({static_cast<double>(i), o.it_kwh, o.mech_kwh,
                          o.mean_pue, o.mean_servers,
                          static_cast<double>(o.sla_violations),
                          static_cast<double>(o.alarms),
                          static_cast<double>(o.overloads)});
  }
  return table;
}

FigureTable fig4_decision_counts() {
  FigureTable table;
  table.name = "fig4_decision_counts";
  table.columns = {"kind", "count"};
  const auto level = fig4_demand_level();
  const auto config = macro::make_reference_facility(60);
  macro::Facility coordinated(config);
  macro::MacroResourceManager manager(coordinated);
  (void)fig4_run_week(coordinated, manager, level);
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(macro::DecisionKind::kLoadShedding) + 1;
  for (std::size_t k = 0; k < kKinds; ++k) {
    table.rows.push_back(
        {static_cast<double>(k),
         static_cast<double>(
             manager.log().count(static_cast<macro::DecisionKind>(k)))});
  }
  return table;
}

std::vector<FigureTable> all_figure_tables() {
  return {fig1_power_flow(),   fig1_stage_shares(), fig2_cooling_dynamics(),
          fig3_daily_stats(),  fig3_callouts(),     fig4_stack_outcomes(),
          fig4_decision_counts()};
}

}  // namespace epm::repro
