// Demand predictor used by predictive provisioning and the macro layer.
//
// SeasonalPredictor implements the multi-scale idea of §5.3: a time-of-week
// profile (hourly buckets) captures the diurnal/weekly trend, an EWMA tracks
// the residual level, and the residual variance feeds safety margins.
#pragma once

#include <cstddef>
#include <vector>

#include "core/stats.h"

namespace epm::onoff {

struct SeasonalPredictorConfig {
  /// Bucket width of the time-of-week profile.
  double bucket_s = 3600.0;
  /// Seasonal period (one week by default; one day also works).
  double period_s = 7.0 * 86400.0;
  /// When the exact bucket is still cold, fall back to the same phase one
  /// `fallback_period_s` earlier (daily by default): Tuesday 2pm borrows
  /// Monday 2pm until Tuesdays have been seen. 0 disables the fallback.
  double fallback_period_s = 86400.0;
};

/// Time-of-week profile + EWMA residual. Cold buckets fall back to the
/// global mean until they have seen data.
class SeasonalPredictor {
 public:
  explicit SeasonalPredictor(SeasonalPredictorConfig config = {});

  void observe(double time_s, double value);
  double predict(double future_time_s) const;
  double residual_stddev() const;
  std::size_t observations() const { return observations_; }

 private:
  std::size_t bucket_of(double time_s) const;

  SeasonalPredictorConfig config_;
  std::vector<double> profile_;
  std::vector<bool> warm_;
  Ewma residual_level_;
  OnlineStats residuals_;
  OnlineStats global_;
  std::size_t observations_ = 0;
};

}  // namespace epm::onoff
