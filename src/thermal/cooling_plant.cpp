#include "thermal/cooling_plant.h"

#include <algorithm>

#include "core/require.h"

namespace epm::thermal {

/// Supply temperature at which the chiller runs at `cop_at_reference`.
constexpr double kReferenceSupplyC = 18.0;
/// COP gain per degree of warmer supply air (warmer water -> better COP).
constexpr double kCopPerDegree = 0.12;
/// Fan overhead in economizer mode (more air moved than with chilled coils).
constexpr double kEconomizerFanFraction = 0.10;
/// Frost limit: colder outside air is not used directly even though it
/// could carry the heat (dampers close, chiller takes over).
constexpr double kMinOutsideC = -15.0;
static_assert(kEconomizerFanFraction >= 0.0);

CoolingPlant::CoolingPlant(CoolingPlantConfig config) : config_(config) {
  require(config_.cop_at_reference > 0.0, "CoolingPlant: COP must be positive");
  require(config_.min_cop > 0.0, "CoolingPlant: min COP must be positive");
  require(config_.fan_fraction >= 0.0, "CoolingPlant: negative fan fraction");
  require(config_.economizer_approach_c >= 0.0, "CoolingPlant: negative approach");
  require(config_.min_intake_rh >= 0.0 && config_.min_intake_rh < config_.max_intake_rh &&
              config_.max_intake_rh <= 1.0,
          "CoolingPlant: invalid intake humidity envelope");
}

double CoolingPlant::cop_at(double supply_c) const {
  const double cop = config_.cop_at_reference +
                     kCopPerDegree * (supply_c - kReferenceSupplyC);
  return std::max(cop, config_.min_cop);
}

bool CoolingPlant::economizer_usable(double outside_c, double supply_c) const {
  if (!config_.has_economizer) return false;
  if (outside_c < kMinOutsideC) return false;  // frost limit
  return outside_c <= supply_c - config_.economizer_approach_c;
}

bool CoolingPlant::economizer_usable(double outside_c, double supply_c,
                                     double outside_rh) const {
  require(outside_rh >= 0.0 && outside_rh <= 1.0,
          "CoolingPlant: relative humidity outside [0,1]");
  if (outside_rh < config_.min_intake_rh || outside_rh > config_.max_intake_rh) {
    // Outside the intake envelope: humidifying/dehumidifying would cost more
    // than the chiller saves (paper §2.2's humidity challenge).
    return false;
  }
  return economizer_usable(outside_c, supply_c);
}

CoolingDraw CoolingPlant::power_draw(double heat_w, double supply_c, double outside_c,
                                     double outside_rh) const {
  require(heat_w >= 0.0, "CoolingPlant: negative heat");
  if (!economizer_usable(outside_c, supply_c, outside_rh)) {
    CoolingDraw draw;
    draw.fan_power_w = heat_w * config_.fan_fraction;
    draw.chiller_power_w = heat_w / cop_at(supply_c);
    return draw;
  }
  CoolingDraw draw;
  draw.economizer_active = true;
  draw.fan_power_w = heat_w * kEconomizerFanFraction;
  return draw;
}

CoolingDraw CoolingPlant::power_draw(double heat_w, double supply_c,
                                     double outside_c) const {
  require(heat_w >= 0.0, "CoolingPlant: negative heat");
  CoolingDraw draw;
  if (economizer_usable(outside_c, supply_c)) {
    draw.economizer_active = true;
    draw.fan_power_w = heat_w * kEconomizerFanFraction;
    return draw;
  }
  draw.fan_power_w = heat_w * config_.fan_fraction;
  draw.chiller_power_w = heat_w / cop_at(supply_c);
  return draw;
}

}  // namespace epm::thermal
