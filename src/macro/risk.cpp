#include "macro/risk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "cluster/queueing.h"
#include "core/require.h"
#include "core/table.h"

namespace epm::macro {

RiskAssessment assess_plan(const std::vector<ServicePlan>& plans,
                           const FacilityEnvelope& envelope) {
  require(!plans.empty(), "assess_plan: no services");
  const std::size_t zones = envelope.zone_conductance_w_per_c.size();
  require(envelope.zone_alarm_c.size() == zones && envelope.zone_supply_c.size() == zones,
          "assess_plan: inconsistent zone envelope");
  for (double g : envelope.zone_conductance_w_per_c) {
    require(g > 0.0, "assess_plan: conductance must be positive");
  }
  require(envelope.zone_margin_c >= 0.0, "assess_plan: negative margin");

  RiskAssessment out;
  out.services.reserve(plans.size());
  // Holds each zone's heat (W) until every plan is summed, then its
  // predicted steady-state temperature.
  std::vector<double>& zone_heat = out.predicted_zone_temp_c;
  zone_heat.assign(zones, 0.0);

  for (const auto& plan : plans) {
    require(plan.model != nullptr, "assess_plan: plan without a power model");
    require(plan.servers >= 1, "assess_plan: plan with no servers");
    require(plan.service_demand_s > 0.0 && plan.sla_target_s > 0.0,
            "assess_plan: invalid service parameters");
    require(plan.predicted_arrival_rate >= 0.0, "assess_plan: negative demand");
    require(zones == 0 || plan.zone_share.size() == zones,
            "assess_plan: zone_share must cover every zone");

    ServiceRisk risk;
    const double cap = plan.model->relative_capacity(plan.pstate);
    const double capacity_rps =
        static_cast<double>(plan.servers) * cap / plan.service_demand_s;
    risk.predicted_utilization = plan.predicted_arrival_rate / capacity_rps;
    if (risk.predicted_utilization >= 1.0) {
      risk.saturated = true;
      risk.sla_at_risk = true;
      risk.predicted_response_s = std::numeric_limits<double>::infinity();
      std::ostringstream os;
      os << plan.name << ": plan saturates (" << fmt(risk.predicted_utilization, 2)
         << "x capacity at P" << plan.pstate << " with " << plan.servers
         << " servers)";
      out.diagnostics.push_back(os.str());
    } else {
      risk.predicted_response_s = cluster::mg1ps_response_time_s(
          plan.service_demand_s / cap, risk.predicted_utilization);
      if (risk.predicted_response_s > plan.sla_target_s) {
        risk.sla_at_risk = true;
        std::ostringstream os;
        os << plan.name << ": predicted response " << fmt(risk.predicted_response_s, 3)
           << "s exceeds SLA " << fmt(plan.sla_target_s, 3) << "s";
        out.diagnostics.push_back(os.str());
      }
    }

    const double u = std::min(risk.predicted_utilization, 1.0);
    const double power =
        static_cast<double>(plan.servers) * plan.model->active_power_w(plan.pstate, u);
    out.predicted_it_power_w += power;
    for (std::size_t z = 0; z < zones; ++z) {
      zone_heat[z] += power * plan.zone_share[z];
    }
    out.services.push_back(risk);
  }

  if (envelope.power_budget_w > 0.0 &&
      out.predicted_it_power_w > envelope.power_budget_w) {
    out.power_at_risk = true;
    std::ostringstream os;
    os << "critical power " << fmt(out.predicted_it_power_w / 1e3, 1)
       << "kW exceeds budget " << fmt(envelope.power_budget_w / 1e3, 1) << "kW";
    out.diagnostics.push_back(os.str());
  }

  for (std::size_t z = 0; z < zones; ++z) {
    out.predicted_zone_temp_c[z] =
        envelope.zone_supply_c[z] + zone_heat[z] / envelope.zone_conductance_w_per_c[z];
    if (out.predicted_zone_temp_c[z] >
        envelope.zone_alarm_c[z] - envelope.zone_margin_c) {
      out.thermal_at_risk = true;
      std::ostringstream os;
      os << "zone " << z << ": predicted steady state "
         << fmt(out.predicted_zone_temp_c[z], 1) << "C within "
         << fmt(envelope.zone_margin_c, 1) << "C of the "
         << fmt(envelope.zone_alarm_c[z], 1) << "C alarm";
      out.diagnostics.push_back(os.str());
    }
  }
  return out;
}

}  // namespace epm::macro
