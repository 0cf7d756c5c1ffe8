// The macro-resource management layer (paper Fig. 4) running a full
// cyber-physical facility: two services across two thermal zones, one CRAC,
// a tier-2 power tree, and a cooling plant, coordinated every five minutes.
//
//   ./build/examples/coordinated_power
#include <cmath>
#include <iostream>
#include <numbers>

#include "core/table.h"
#include "core/units.h"
#include "macro/coordinator.h"

using namespace epm;

int main() {
  // The reference facility: "web" (tight SLA) and "batch" (relaxed SLA)
  // sharing 2 x 120 servers, two zones, one CRAC.
  macro::Facility facility(macro::make_reference_facility(120));
  macro::MacroResourceManager manager(facility);

  // Two diurnal days of demand (requests/second per service).
  Table table({"hour", "web rps", "web servers", "batch servers", "IT (kW)",
               "cooling (kW)", "PUE", "max zone (C)"});
  for (int epoch = 0; epoch < 2 * 24 * 60; ++epoch) {
    const double t = epoch * minutes(1.0);
    const double phase = 2.0 * std::numbers::pi * (to_hours(t) - 14.0) / 24.0;
    const double level = 0.55 + 0.45 * std::cos(phase);
    const auto step = manager.step({7000.0 * level, 4000.0 * level}, 16.0);
    if (epoch % 240 == 0) {
      table.add_row({fmt(to_hours(t), 0), fmt(step.services[0].arrival_rate_per_s, 0),
                     std::to_string(step.services[0].serving),
                     std::to_string(step.services[1].serving),
                     fmt(to_kilowatts(step.it_power_w), 1),
                     fmt(to_kilowatts(step.mechanical_power_w), 1), fmt(step.pue, 2),
                     fmt(step.max_zone_temp_c, 1)});
    }
  }
  std::cout << "\nTwo coordinated days of the reference facility:\n\n"
            << table.render();

  std::cout << "\nTotals: IT " << fmt(to_kwh(facility.total_it_energy_j()), 0)
            << " kWh + cooling " << fmt(to_kwh(facility.total_mechanical_energy_j()), 0)
            << " kWh; " << facility.total_sla_violation_epochs()
            << " SLA-violating service-epochs; " << facility.total_thermal_alarms()
            << " thermal alarms\n";

  std::cout << "\nWhat the coordinator decided (counts by kind):\n";
  Table kinds({"decision", "count"});
  for (const auto& [kind, count] : manager.log().counts_by_kind()) {
    kinds.add_row({kind, std::to_string(count)});
  }
  std::cout << kinds.render();

  std::cout << "\nA mid-day slice of the decision log:\n";
  Table slice({"t (h)", "kind", "service", "detail"});
  std::size_t shown = 0;
  const macro::DecisionLog& log = manager.log();
  for (const auto& d : log.all()) {
    if (d.time_s < hours(12.0)) continue;
    slice.add_row(
        {fmt(to_hours(d.time_s), 2), to_string(d.kind), log.service(d), log.detail(d)});
    if (++shown == 6) break;
  }
  std::cout << slice.render();
  return 0;
}
