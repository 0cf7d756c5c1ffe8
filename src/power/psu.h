// Power-supply-unit efficiency model.
//
// The paper notes the Climate Savers Computing Initiative's push for
// "high-efficiency power supplies" (§1). Real PSUs are inefficient at light
// load; we model the standard efficiency-vs-load curve so distribution-loss
// accounting (Fig. 1 reproduction) reflects that partially loaded servers
// waste proportionally more at the wall.
#pragma once

namespace epm::power {

/// Best-case conversion efficiency (80 PLUS-ish).
inline constexpr double kPeakEfficiency = 0.92;

struct PsuConfig {
  double rated_output_w = 450.0;
  double efficiency_at_10pct = 0.78;  ///< light-load efficiency
};

class Psu {
 public:
  explicit Psu(PsuConfig config);

  const PsuConfig& config() const { return config_; }

  /// Conversion efficiency at `output_w` of DC load. Clamps to the rated
  /// output. Smooth curve rising from light load to the peak-efficiency
  /// point, with a gentle fall-off toward full load.
  double efficiency_at(double output_w) const;

  /// AC input power drawn from the PDU for a given DC output.
  double input_power_w(double output_w) const;
  /// Loss (input - output).
  double loss_w(double output_w) const;

 private:
  PsuConfig config_;
};

}  // namespace epm::power
