// ValidatedEstimator: from fallible readings to a defensible estimate.
//
// Sits between the SensorPlane and any controller. In raw mode (the
// default) it passes the first reading through untouched — bit-exact, so
// wiring it under an existing controller changes nothing until validation
// is enabled. In validated mode it median-votes across redundant sensors,
// rejects readings outside the channel's plausibility envelope (range and
// rate-of-change), detects stuck-at sensors (bit-identical medians repeated
// `stuck_after` times), smooths accepted values with an EWMA, and falls back
// to the last known-good estimate when nothing passes — tracking the age of
// that estimate so the controller can widen its safety margins
// proportionally (margin_multiplier()).
//
// Exactness contract relied on by the golden figure tests: with the default
// config (validate=false, ewma_alpha=1, stale_margin_gain_per_s=0) and an
// exact SensorPlane, update() returns the truth bitwise and
// margin_multiplier() returns exactly 1.0.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sensing/channels.h"
#include "sensing/sensor_plane.h"

namespace epm::sensing {

struct EstimatorConfig {
  /// false = raw passthrough of the first reading (hold-last on dropout).
  bool validate = false;
  /// Median-vote across redundant readings (validated mode only).
  bool use_median = true;
  /// EWMA smoothing of accepted values; >= 1 disables (exact passthrough).
  double ewma_alpha = 1.0;
  /// Consecutive bit-identical medians before the channel is declared
  /// stuck; 0 disables. Needs base sensor noise > 0 to avoid false
  /// positives on legitimately constant truth.
  std::size_t stuck_after = 0;
  /// Consecutive rate-gate rejections before the estimator re-locks onto
  /// the new level (a genuine step change looks like a rate violation).
  std::size_t rate_relock_after = 3;
  /// Margin multiplier growth per second of estimate age; 0 disables.
  double stale_margin_gain_per_s = 0.0;
  double max_margin_multiplier = 3.0;
};

struct Estimate {
  double value = 0.0;
  /// Seconds since the last accepted reading (0 when this update accepted).
  double age_s = 0.0;
  /// True when this update fell back on the last known-good value.
  bool degraded = false;
  /// False until the channel has ever produced an accepted value.
  bool has_value = false;
};

class ValidatedEstimator {
 public:
  explicit ValidatedEstimator(const EstimatorConfig& config = {});

  /// Folds one sampling round on `channel` into the channel's estimate.
  Estimate update(ChannelKey channel, std::span<const SensorReading> readings,
                  double now_s);

  /// Safety-margin widening for an estimate of the given age: exactly 1.0
  /// at age 0, growing by stale_margin_gain_per_s per second, capped.
  double margin_multiplier(double age_s) const;

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t fallbacks() const { return fallbacks_; }
  std::uint64_t rejected_range() const { return rejected_range_; }
  std::uint64_t rejected_rate() const { return rejected_rate_; }
  std::uint64_t rejected_stuck() const { return rejected_stuck_; }
  const EstimatorConfig& config() const { return config_; }

 private:
  struct ChannelEstimate {
    bool has_value = false;
    double value = 0.0;        ///< current (possibly smoothed) estimate
    double last_raw = 0.0;     ///< last accepted pre-EWMA candidate
    double last_good_time = 0.0;
    double last_candidate = 0.0;
    std::size_t repeat_count = 0;
    std::size_t rate_rejects = 0;
  };

  Estimate fallback(ChannelEstimate& ch, double now_s);

  EstimatorConfig config_;
  std::map<ChannelKey, ChannelEstimate> channels_;
  /// The valid readings of the round being folded; reused across updates.
  std::vector<double> votes_;
  std::uint64_t accepted_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t rejected_range_ = 0;
  std::uint64_t rejected_rate_ = 0;
  std::uint64_t rejected_stuck_ = 0;
};

}  // namespace epm::sensing
