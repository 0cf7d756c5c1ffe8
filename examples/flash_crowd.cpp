// Rides the Animoto surge (paper §3, ref [5]): demand grows 70x in three
// days, then recedes. Shows how an elastic cluster tracks it and what the
// surge costs under different policies.
//
//   ./build/examples/flash_crowd
#include <iostream>

#include "cluster/service_cluster.h"
#include "core/table.h"
#include "core/units.h"
#include "macro/joint_policy.h"
#include "workload/surge.h"

using namespace epm;

int main() {
  const workload::SurgeModel surge{workload::SurgeConfig{}};  // 50 -> 3500
  const auto demand = sample_surge(surge, days(8.0), minutes(5.0));
  std::cout << "Animoto-style surge (server-equivalents of demand):\n"
            << ascii_chart(demand.values(), 64, 8) << "\n";

  cluster::ServiceClusterConfig config;
  config.server_count = 4000;
  config.initially_active = 80;
  config.sla.target_mean_response_s = 0.1;
  cluster::ServiceCluster cluster(config);

  Table table({"day", "demand (svr-eq)", "committed", "serving", "booting",
               "P-state", "power (kW)"});
  for (std::size_t i = 0; i < demand.size(); ++i) {
    workload::OfferedLoad load;
    load.arrival_rate_per_s = demand[i] * 65.0;
    load.service_demand_s = 0.01;
    const auto r = cluster.run_epoch(minutes(5.0), load);
    // Coordinated joint sizing reacts every epoch.
    const auto d = macro::decide_joint(cluster.power_model(), config.server_count,
                                       cluster.committed_count(), r.arrival_rate_per_s,
                                       r.service_demand_s,
                                       config.sla.target_mean_response_s);
    cluster.set_uniform_pstate(d.pstate);
    cluster.set_target_committed(d.servers, false);
    if (i % 288 == 0) {  // daily rows
      table.add_row({fmt(to_days(demand.time_at(i)), 1), fmt(demand[i], 0),
                     std::to_string(cluster.committed_count()),
                     std::to_string(r.serving), std::to_string(r.booting),
                     power::pstate_name(d.pstate),
                     fmt(to_kilowatts(r.server_power_w), 0)});
    }
  }
  std::cout << table.render();

  std::cout << "\nSurge week: " << fmt(to_mwh(cluster.total_energy_j()), 1)
            << " MWh, " << cluster.sla_violation_epochs()
            << " SLA-violating epochs, "
            << fmt(cluster.total_dropped_requests(), 0) << " requests dropped\n"
            << "A statically peak-provisioned fleet would have burned ~"
            << fmt(to_mwh(3500.0 * 0.6 * 300.0 * days(8.0)), 1)
            << " MWh over the same period.\n";
  return 0;
}
