#include "power/psu.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::power {

/// Load fraction at which the efficiency peaks.
constexpr double kPeakEfficiencyLoad = 0.5;
static_assert(kPeakEfficiency > 0.0 && kPeakEfficiency <= 1.0);
static_assert(kPeakEfficiencyLoad > 0.1 && kPeakEfficiencyLoad <= 1.0);

Psu::Psu(PsuConfig config) : config_(config) {
  require(config_.rated_output_w > 0.0, "Psu: rated output must be positive");
  require(config_.efficiency_at_10pct > 0.0 &&
              config_.efficiency_at_10pct <= kPeakEfficiency,
          "Psu: light-load efficiency must be in (0, peak]");
}

double Psu::efficiency_at(double output_w) const {
  require(output_w >= 0.0, "Psu: negative output power");
  const double load =
      std::min(output_w, config_.rated_output_w) / config_.rated_output_w;
  if (load <= 0.0) return config_.efficiency_at_10pct;
  // Quadratic in log-ish shape: rise from the 10% point to the peak point,
  // then a mild 2-point droop to full load.
  const double peak_load = kPeakEfficiencyLoad;
  if (load <= peak_load) {
    // Smooth monotone rise; anchored at (0.1, eff10) and (peak_load, peak).
    const double x = std::clamp((load - 0.1) / (peak_load - 0.1), 0.0, 1.0);
    const double rise = 1.0 - (1.0 - x) * (1.0 - x);  // ease-out
    return config_.efficiency_at_10pct +
           (kPeakEfficiency - config_.efficiency_at_10pct) * rise;
  }
  const double x = (load - peak_load) / (1.0 - peak_load);
  const double droop = 0.02 * x * x;  // ~2 points down at 100% load
  return std::max(kPeakEfficiency - droop, config_.efficiency_at_10pct);
}

double Psu::input_power_w(double output_w) const {
  require(output_w >= 0.0, "Psu: negative output power");
  if (output_w == 0.0) return 0.0;
  return output_w / efficiency_at(output_w);
}

double Psu::loss_w(double output_w) const { return input_power_w(output_w) - output_w; }

}  // namespace epm::power
