#include "workload/surge.h"

#include <cmath>

#include "core/require.h"

namespace epm::workload {

SurgeModel::SurgeModel(SurgeConfig config) : config_(config) {
  require(config_.baseline > 0.0, "SurgeModel: baseline must be positive");
  require(config_.peak > config_.baseline, "SurgeModel: peak must exceed baseline");
  require(config_.post_surge >= config_.baseline && config_.post_surge < config_.peak,
          "SurgeModel: post_surge must lie in [baseline, peak)");
  require(config_.ramp_s > 0.0 && config_.plateau_s >= 0.0 && config_.recede_tau_s > 0.0,
          "SurgeModel: invalid timing");
}

double SurgeModel::demand_at(double t_s) const {
  const auto& c = config_;
  if (t_s < c.surge_start_s) return c.baseline;
  const double since = t_s - c.surge_start_s;
  if (since < c.ramp_s) {
    // Logistic ramp centered mid-ramp; steepness chosen so the curve covers
    // ~98% of the rise within the ramp window.
    const double k = 8.0 / c.ramp_s;
    const double x = since - c.ramp_s / 2.0;
    const double sig = 1.0 / (1.0 + std::exp(-k * x));
    // Rescale so the ramp starts exactly at baseline and ends at peak.
    const double sig0 = 1.0 / (1.0 + std::exp(k * c.ramp_s / 2.0));
    const double sig1 = 1.0 / (1.0 + std::exp(-k * c.ramp_s / 2.0));
    const double unit = (sig - sig0) / (sig1 - sig0);
    return c.baseline + (c.peak - c.baseline) * unit;
  }
  const double after_ramp = since - c.ramp_s;
  if (after_ramp < c.plateau_s) return c.peak;
  const double recede = after_ramp - c.plateau_s;
  return c.post_surge + (c.peak - c.post_surge) * std::exp(-recede / c.recede_tau_s);
}

TimeSeries sample_surge(const SurgeModel& model, double horizon_s, double step_s) {
  require(horizon_s > 0.0 && step_s > 0.0, "sample_surge: invalid horizon/step");
  TimeSeries out(0.0, step_s);
  const std::size_t n = checked_count(horizon_s / step_s, "sample_surge: horizon / step");
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(model.demand_at(static_cast<double>(i) * step_s));
  }
  return out;
}

}  // namespace epm::workload
