// Band-pass analyses over counter data (paper §5.3): the same CPU-utilization
// stream serves trend prediction, within-day patterns, load-balancer
// monitoring via residual correlation, and spike anomaly detection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time_series.h"

namespace epm::telemetry {

struct SpikeConfig {
  /// Trailing window used to estimate the local mean/stddev.
  std::size_t window = 40;
  /// Threshold in local standard deviations.
  double sigmas = 4.0;
  /// Floor on the stddev estimate so flat series don't alarm on noise.
  double min_stddev = 1e-9;
};

struct Spike {
  std::size_t index;
  double value;
  double zscore;
};

/// Detects "unusually spikes" (§5.3): samples more than `sigmas` local
/// standard deviations above the trailing-window mean.
std::vector<Spike> detect_spikes(const TimeSeries& series, const SpikeConfig& config = {});

/// Removes the mean per bucket-of-period (e.g. hourly-of-day with
/// period=86400, bucket=3600): returns the residual series. This is the
/// "after removing the hourly trend" step before correlating counters to
/// "monitor load balancer behavior".
TimeSeries remove_seasonal(const TimeSeries& series, double period_s, double bucket_s);

/// Correlation of two counters' residuals after seasonal removal; a healthy
/// load balancer keeps replica residuals strongly correlated.
double residual_correlation(const TimeSeries& a, const TimeSeries& b, double period_s,
                            double bucket_s);

// ---------------------------------------------------------------------------
// In-stream detection (columnar firehose path).
//
// detect_spikes() above is a batch pass over a finished series; at firehose
// rates the detector has to ride along with ingest instead. The streaming
// recast keeps O(1) state per counter — an exponentially weighted mean and
// variance — and flags samples that escape the EWMA band. It runs inside
// the block-seal pipeline (block.h) over a whole sealed column at a time,
// with its state in locals for the column, so detection latency is one
// sealed block, not one query.

struct StreamingAnomalyConfig {
  /// EWMA weight: state half-life ~ ln 2 / alpha samples (0.05 ~ 14
  /// samples, comparable to detect_spikes' default trailing window).
  double alpha = 0.05;
  /// Band half-width in EWMA standard deviations.
  double sigmas = 6.0;
  /// Floor on the stddev estimate so flat series don't alarm on noise.
  double min_stddev = 1e-9;
  /// Samples observed before the band arms (the batch pass has the same
  /// blind spot: its first `window` samples are never tested).
  std::uint32_t warmup = 32;
  bool enabled = true;
};

/// One band escape, stamped with the counter it fired on.
struct AnomalyEvent {
  std::uint64_t key = 0;  ///< CounterKey (store.h)
  double time_s = 0.0;
  double value = 0.0;
  double zscore = 0.0;
};

/// O(1)-state spike detector: online EWMA mean/variance + band escape.
/// Deterministic: state depends only on the per-series sample order, which
/// the store fixes to batch order at every thread count.
class StreamingSpikeDetector {
 public:
  explicit StreamingSpikeDetector(const StreamingAnomalyConfig& config = {})
      : config_(config) {}

  /// Observes a time-ordered column sample by sample and appends one event
  /// (key 0: the store stamps the counter) per sample that escapes the band
  /// once armed after warmup. The state update includes band escapes,
  /// mirroring detect_spikes: a sustained shift stops alarming once the
  /// EWMA absorbs it. Splitting a column changes nothing.
  void observe_column(const double* times_s, const double* values, std::size_t n,
                      std::vector<AnomalyEvent>& events);

  bool enabled() const { return config_.enabled; }

 private:
  StreamingAnomalyConfig config_;
  double mean_ = 0.0;
  double var_ = 0.0;
  std::uint64_t n_ = 0;
};

}  // namespace epm::telemetry
