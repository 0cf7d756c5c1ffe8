#include "telemetry/anomaly.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/require.h"
#include "core/stats.h"

namespace epm::telemetry {

std::vector<Spike> detect_spikes(const TimeSeries& series, const SpikeConfig& config) {
  require(config.window >= 2, "detect_spikes: window must be >= 2");
  require(config.sigmas > 0.0, "detect_spikes: sigmas must be positive");
  std::vector<Spike> spikes;
  if (series.size() <= config.window) return spikes;

  // Rolling mean/variance over the trailing window (exact, O(n)).
  double sum = 0.0;
  double sumsq = 0.0;
  for (std::size_t i = 0; i < config.window; ++i) {
    sum += series[i];
    sumsq += series[i] * series[i];
  }
  const auto w = static_cast<double>(config.window);
  for (std::size_t i = config.window; i < series.size(); ++i) {
    const double mean = sum / w;
    const double var = std::max(sumsq / w - mean * mean, 0.0);
    const double sd = std::max(std::sqrt(var), config.min_stddev);
    const double z = (series[i] - mean) / sd;
    if (z > config.sigmas) {
      spikes.push_back(Spike{i, series[i], z});
    }
    // Slide the window (spiky samples included: a sustained shift stops
    // alarming once the window absorbs it, which is the desired behaviour).
    const double out = series[i - config.window];
    sum += series[i] - out;
    sumsq += series[i] * series[i] - out * out;
  }
  return spikes;
}

TimeSeries remove_seasonal(const TimeSeries& series, double period_s, double bucket_s) {
  require(period_s > 0.0 && bucket_s > 0.0, "remove_seasonal: invalid period/bucket");
  require(period_s >= bucket_s, "remove_seasonal: period shorter than bucket");
  const auto buckets = static_cast<std::size_t>(period_s / bucket_s);
  std::vector<OnlineStats> per_bucket(buckets);
  auto bucket_of = [&](std::size_t i) {
    const double phase = std::fmod(series.time_at(i), period_s);
    auto b = static_cast<std::size_t>(phase / bucket_s);
    return b < buckets ? b : buckets - 1;
  };
  for (std::size_t i = 0; i < series.size(); ++i) {
    per_bucket[bucket_of(i)].add(series[i]);
  }
  TimeSeries out(series.start_s(), series.step_s());
  out.reserve(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    out.push_back(series[i] - per_bucket[bucket_of(i)].mean());
  }
  return out;
}

double residual_correlation(const TimeSeries& a, const TimeSeries& b, double period_s,
                            double bucket_s) {
  require(a.size() == b.size(), "residual_correlation: length mismatch");
  const TimeSeries ra = remove_seasonal(a, period_s, bucket_s);
  const TimeSeries rb = remove_seasonal(b, period_s, bucket_s);
  return pearson_correlation(ra.values(), rb.values());
}

/// EWMA weight: state half-life ~ ln 2 / alpha samples (0.05 ~ 14 samples,
/// comparable to detect_spikes' default trailing window).
constexpr double kEwmaAlpha = 0.05;
/// Samples observed before the band arms (the batch pass has the same blind
/// spot: its first `window` samples are never tested).
constexpr std::uint64_t kWarmupSamples = 32;

void StreamingSpikeDetector::observe_column(const double* times_s, const double* values,
                                            std::size_t n,
                                            std::vector<AnomalyEvent>& events) {
  // An escape lies above the band and above zero.
  const double band = std::max(config_.sigmas, 0.0);
  double mean = mean_;
  double var = var_;
  std::uint64_t seen = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = values[i];
    if (seen >= kWarmupSamples) {
      const double sd = std::max(std::sqrt(std::max(var, 0.0)), config_.min_stddev);
      const double z = (value - mean) / sd;
      if (z > band) events.push_back(AnomalyEvent{0, times_s[i], value, z});
    }
    // West's exponentially weighted update; the escape sample itself feeds
    // the state so a level shift is absorbed instead of alarming forever.
    if (seen == 0) {
      mean = value;
      var = 0.0;
    } else {
      const double delta = value - mean;
      const double incr = kEwmaAlpha * delta;
      mean += incr;
      var = (1.0 - kEwmaAlpha) * (var + delta * incr);
    }
    ++seen;
  }
  mean_ = mean;
  var_ = var;
  n_ = seen;
}

}  // namespace epm::telemetry
