// Computer-room air conditioning unit (paper §2.2, §5.1).
//
// "CRAC units usually react every 15 minutes" — the unit runs a discrete
// proportional controller on the *return-air temperature it observes*,
// which is a sensitivity-weighted mix of zone temperatures (ref [30],
// Project Genome: "the CRAC can be extremely sensitive to servers at
// location A, while not sensitive to servers at locations B"). That
// asymmetric observation is exactly what makes the §5.1 migration hazard
// reproducible.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace epm::thermal {

/// Warmest supply air a CRAC blows (and what a fully derated unit blows).
inline constexpr double kMaxSupplyC = 27.0;
/// Heat a healthy coil can remove.
inline constexpr double kCoolingCapacityW = 400.0e3;

struct CracConfig {
  std::string name;
  double control_period_s = 900.0;  ///< paper: reacts every 15 minutes
  double return_setpoint_c = 24.0;  ///< target observed return temperature
  double gain = 0.8;                ///< supply-temp change per degree of error
  double min_supply_c = 12.0;
  double initial_supply_c = 18.0;
  /// Per-zone sensitivity of this CRAC's return-air sensor. Normalized
  /// internally; zones absent from the vector contribute nothing.
  std::vector<double> zone_sensitivity;
};

class Crac {
 public:
  explicit Crac(CracConfig config);

  const CracConfig& config() const { return config_; }
  /// Supply temperature the room actually receives: the controlled value
  /// pushed toward kMaxSupplyC in proportion to the active derate (a fully
  /// derated unit blows room-temperature air — it has failed).
  double supply_temp_c() const;
  /// Controller state before derate is applied.
  double commanded_supply_c() const { return supply_c_; }
  std::size_t control_actions() const { return control_actions_; }

  /// Fault hook: derates cooling capacity by `fraction` in [0,1]. 0 restores
  /// the healthy unit, 1 models outright failure.
  void set_derate(double fraction);
  double derate() const { return derate_; }
  /// Heat the coil can still remove under the active derate.
  double effective_capacity_w() const {
    return kCoolingCapacityW * (1.0 - derate_);
  }

  /// Degradation hook: moves the return-air setpoint (macro layer raises it
  /// to shed cooling load during power emergencies).
  void set_return_setpoint_c(double setpoint_c);

  /// The return temperature this CRAC *observes* for the given zone
  /// temperatures (sensitivity-weighted mean).
  double observed_return_c(const std::vector<double>& zone_temps_c) const;

  /// Runs one control decision against the observed zone temperatures;
  /// call every control_period_s. Returns the new supply temperature.
  double control_step(const std::vector<double>& zone_temps_c);

  /// Overrides the supply temperature (used by coordinated cooling control
  /// in the macro layer, and by tests).
  void set_supply_temp_c(double temp_c);

 private:
  CracConfig config_;
  double supply_c_;
  double derate_ = 0.0;
  std::size_t control_actions_ = 0;
};

}  // namespace epm::thermal
