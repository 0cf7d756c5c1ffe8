#include "onoff/predictor.h"

#include <cmath>

#include "core/require.h"

namespace epm::onoff {

SeasonalPredictor::SeasonalPredictor(SeasonalPredictorConfig config)
    : config_(config), residual_level_(config.residual_alpha) {
  require(config_.bucket_s > 0.0, "SeasonalPredictor: bucket must be positive");
  require(config_.period_s >= config_.bucket_s,
          "SeasonalPredictor: period shorter than bucket");
  require(config_.profile_alpha > 0.0 && config_.profile_alpha <= 1.0,
          "SeasonalPredictor: profile_alpha outside (0,1]");
  require(config_.fallback_period_s >= 0.0,
          "SeasonalPredictor: negative fallback period");
  const auto buckets = static_cast<std::size_t>(config_.period_s / config_.bucket_s);
  profile_.assign(buckets, 0.0);
  warm_.assign(buckets, false);
}

std::size_t SeasonalPredictor::bucket_of(double time_s) const {
  double phase = std::fmod(time_s, config_.period_s);
  if (phase < 0.0) phase += config_.period_s;
  auto b = static_cast<std::size_t>(phase / config_.bucket_s);
  if (b >= profile_.size()) b = profile_.size() - 1;
  return b;
}

void SeasonalPredictor::observe(double time_s, double value) {
  const std::size_t b = bucket_of(time_s);
  const double predicted = predict(time_s);
  if (observations_ > 0) {
    residuals_.add(value - predicted);
  }
  if (!warm_[b]) {
    profile_[b] = value;
    warm_[b] = true;
  } else {
    profile_[b] += config_.profile_alpha * (value - profile_[b]);
  }
  residual_level_.add(value - profile_[b]);
  global_.add(value);
  ++observations_;
}

double SeasonalPredictor::predict(double future_time_s) const {
  if (observations_ == 0) return 0.0;
  std::size_t b = bucket_of(future_time_s);
  if (!warm_[b] && config_.fallback_period_s > 0.0) {
    // Borrow the same phase from earlier fallback periods (e.g. yesterday's
    // hour-of-day) until this bucket has seen real data.
    const auto shift =
        static_cast<std::size_t>(config_.fallback_period_s / config_.bucket_s);
    if (shift > 0) {
      for (std::size_t back = shift; back < profile_.size(); back += shift) {
        const std::size_t alt = (b + profile_.size() - back % profile_.size()) %
                                profile_.size();
        if (warm_[alt]) {
          b = alt;
          break;
        }
      }
    }
  }
  const double base = warm_[b] ? profile_[b] : global_.mean();
  return base + (residual_level_.empty() ? 0.0 : residual_level_.value());
}

double SeasonalPredictor::residual_stddev() const { return residuals_.stddev(); }

}  // namespace epm::onoff
