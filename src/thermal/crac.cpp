#include "thermal/crac.h"

#include <algorithm>
#include <numeric>

#include "core/require.h"

namespace epm::thermal {

/// No control action within the return setpoint +- this band.
constexpr double kDeadbandC = 0.5;
static_assert(kDeadbandC >= 0.0 && kCoolingCapacityW > 0.0);

Crac::Crac(CracConfig config) : config_(config), supply_c_(config.initial_supply_c) {
  require(config_.control_period_s > 0.0, "Crac: control period must be positive");
  require(config_.gain > 0.0, "Crac: gain must be positive");
  require(config_.min_supply_c < kMaxSupplyC, "Crac: invalid supply range");
  require(config_.initial_supply_c >= config_.min_supply_c &&
              config_.initial_supply_c <= kMaxSupplyC,
          "Crac: initial supply outside range");
  require(!config_.zone_sensitivity.empty(), "Crac: no zone sensitivities");
  double total = 0.0;
  for (double s : config_.zone_sensitivity) {
    require(s >= 0.0, "Crac: negative sensitivity");
    total += s;
  }
  require(total > 0.0, "Crac: all sensitivities zero");
}

double Crac::supply_temp_c() const {
  // A derated coil removes less heat; model it as the supply air warming
  // linearly toward the top of the unit's range (a fully failed CRAC just
  // recirculates warm air).
  return supply_c_ + derate_ * (kMaxSupplyC - supply_c_);
}

void Crac::set_derate(double fraction) {
  require(fraction >= 0.0 && fraction <= 1.0, "Crac: derate outside [0,1]");
  derate_ = fraction;
}

void Crac::set_return_setpoint_c(double setpoint_c) {
  require(setpoint_c > 0.0, "Crac: setpoint must be positive");
  config_.return_setpoint_c = setpoint_c;
}

double Crac::observed_return_c(const std::vector<double>& zone_temps_c) const {
  require(zone_temps_c.size() >= config_.zone_sensitivity.size(),
          "Crac: fewer zone temperatures than sensitivities");
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < config_.zone_sensitivity.size(); ++i) {
    weighted += config_.zone_sensitivity[i] * zone_temps_c[i];
    total += config_.zone_sensitivity[i];
  }
  return weighted / total;
}

double Crac::control_step(const std::vector<double>& zone_temps_c) {
  ++control_actions_;
  const double observed = observed_return_c(zone_temps_c);
  const double error = observed - config_.return_setpoint_c;
  if (error > kDeadbandC) {
    // Too warm where we can see: blow colder.
    supply_c_ -= config_.gain * (error - kDeadbandC);
  } else if (error < -kDeadbandC) {
    // "The CRAC then believes that there is not much heat generated in its
    //  effective zone and thus increases the temperature of the cooling
    //  air." (§5.1)
    supply_c_ += config_.gain * (-kDeadbandC - error);
  }
  supply_c_ = std::clamp(supply_c_, config_.min_supply_c, kMaxSupplyC);
  return supply_c_;
}

void Crac::set_supply_temp_c(double temp_c) {
  require(temp_c >= config_.min_supply_c && temp_c <= kMaxSupplyC,
          "Crac: supply override outside range");
  supply_c_ = temp_c;
}

}  // namespace epm::thermal
