#include "sensing/estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace epm::sensing {
namespace {

/// Lower median of the valid readings: deterministic, bit-stable (never
/// averages two floats), and robust to a minority of wild sensors.
double median_of(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

}  // namespace

ValidatedEstimator::ValidatedEstimator(const EstimatorConfig& config)
    : config_(config) {
  if (config_.ewma_alpha <= 0.0) {
    throw std::invalid_argument("ValidatedEstimator: ewma_alpha must be > 0");
  }
  if (config_.max_margin_multiplier < 1.0) {
    throw std::invalid_argument(
        "ValidatedEstimator: max_margin_multiplier must be >= 1");
  }
}

Estimate ValidatedEstimator::fallback(ChannelEstimate& ch, double now_s) {
  ++fallbacks_;
  Estimate est;
  est.value = ch.value;
  est.age_s = ch.has_value ? std::max(0.0, now_s - ch.last_good_time) : 0.0;
  est.degraded = true;
  est.has_value = ch.has_value;
  return est;
}

Estimate ValidatedEstimator::update(ChannelKey channel,
                                    std::span<const SensorReading> readings,
                                    double now_s) {
  ChannelEstimate& ch = channels_[channel];

  votes_.clear();
  for (const auto& reading : readings) {
    if (reading.valid) {
      votes_.push_back(reading.value);
    }
  }
  if (votes_.empty()) {
    return fallback(ch, now_s);
  }

  double candidate;
  if (config_.validate && config_.use_median) {
    candidate = median_of(votes_);
  } else {
    candidate = votes_.front();
  }

  if (config_.validate) {
    const ChannelBounds bounds = default_bounds(kind_of(channel));
    if (!std::isfinite(candidate) || candidate < bounds.lo ||
        candidate > bounds.hi) {
      ++rejected_range_;
      return fallback(ch, now_s);
    }
    // Stuck-at: a varying truth never repeats bit-identically on a healthy
    // sensor; channels with legitimately constant truth opt out via bounds.
    if (config_.stuck_after > 0 && bounds.stuck_detect) {
      if (ch.repeat_count > 0 && candidate == ch.last_candidate) {
        ++ch.repeat_count;
      } else {
        ch.repeat_count = 1;
        ch.last_candidate = candidate;
      }
      if (ch.repeat_count >= config_.stuck_after) {
        ++rejected_stuck_;
        return fallback(ch, now_s);
      }
    }
    // Rate-of-change gate with re-lock: a persistent level shift is real
    // after rate_relock_after consecutive violations.
    if (ch.has_value) {
      const double dt = now_s - ch.last_good_time;
      const ChannelBounds kind_bounds = default_bounds(kind_of(channel));
      if (dt > 0.0 &&
          std::abs(candidate - ch.last_raw) > kind_bounds.max_rate_per_s * dt) {
        ++ch.rate_rejects;
        if (ch.rate_rejects < config_.rate_relock_after) {
          ++rejected_rate_;
          return fallback(ch, now_s);
        }
      }
    }
    ch.rate_rejects = 0;
  }

  // Accepted: smooth and commit.
  if (config_.ewma_alpha >= 1.0 || !ch.has_value) {
    ch.value = candidate;
  } else {
    ch.value += config_.ewma_alpha * (candidate - ch.value);
  }
  ch.last_raw = candidate;
  ch.last_good_time = now_s;
  ch.has_value = true;
  ++accepted_;

  Estimate est;
  est.value = ch.value;
  est.age_s = 0.0;
  est.degraded = false;
  est.has_value = true;
  return est;
}

double ValidatedEstimator::margin_multiplier(double age_s) const {
  return std::min(config_.max_margin_multiplier,
                  1.0 + config_.stale_margin_gain_per_s * age_s);
}

}  // namespace epm::sensing
