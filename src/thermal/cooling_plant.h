// Cooling plant: chilled-water plant + CRAC fans + optional air-side
// economizer (paper §2.2).
//
// Converts "heat to remove" into mechanical electrical power. With the
// chiller, efficiency follows a COP model that improves as the supply
// temperature rises (one reason over-cooling is expensive). With the
// economizer, outside air below the usable threshold carries the heat for
// fan power alone.
#pragma once

namespace epm::thermal {

struct CoolingPlantConfig {
  /// Chiller coefficient of performance at the reference supply temp
  /// (18 C).
  double cop_at_reference = 3.5;
  double min_cop = 1.2;
  /// CRAC / air-handler fan power as a fraction of removed heat.
  double fan_fraction = 0.06;
  /// Economizer: usable when outside temp <= supply setpoint - approach.
  bool has_economizer = false;
  double economizer_approach_c = 4.0;
  /// Relative-humidity envelope for direct outside air (paper §2.2 /
  /// ASHRAE: 30-45% recommended; we allow a wider but bounded intake range
  /// since mixing dampers can condition moderately dry/damp air).
  double min_intake_rh = 0.15;
  double max_intake_rh = 0.80;
};

struct CoolingDraw {
  double chiller_power_w = 0.0;
  double fan_power_w = 0.0;
  bool economizer_active = false;
  double total_w() const { return chiller_power_w + fan_power_w; }
};

class CoolingPlant {
 public:
  explicit CoolingPlant(CoolingPlantConfig config);

  const CoolingPlantConfig& config() const { return config_; }

  /// Chiller COP when producing air at `supply_c`.
  double cop_at(double supply_c) const;

  /// True when the economizer can carry the load at this outside temp.
  /// `outside_rh` (fraction) additionally enforces the humidity envelope;
  /// the two-argument form assumes in-envelope air.
  bool economizer_usable(double outside_c, double supply_c) const;
  bool economizer_usable(double outside_c, double supply_c, double outside_rh) const;

  /// Electrical power to remove `heat_w` while producing supply air at
  /// `supply_c`, given the outside temperature (and optionally humidity).
  CoolingDraw power_draw(double heat_w, double supply_c, double outside_c) const;
  CoolingDraw power_draw(double heat_w, double supply_c, double outside_c,
                         double outside_rh) const;

 private:
  CoolingPlantConfig config_;
};

}  // namespace epm::thermal
