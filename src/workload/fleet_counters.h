// Reference fleet-counter mix for the §5.3 telemetry firehose.
//
//   "consider a 10,000 server cloud computing environment, if there are 100
//    software performance counters of interests, and each of them are
//    sampled every 15 seconds, we will expect 2.4 million data points per
//    minutes"
//
// Real performance counters are not white noise: most are near-constant
// health gauges, a large minority are monotone cumulative counters, and the
// rest are coarsely quantized utilizations tracking the diurnal load. This
// generator reproduces that mix — it is the workload the compression and
// throughput gates (EXP-AA) are defined against, so the ratio printed in
// BENCH_telemetry.json describes a stated distribution, not a lucky input:
//
//   * 50% near-constant gauges: an integer baseline, rare +-1 excursions;
//   * 25% cumulative counters: integer increments per tick (resets rare);
//   * 25% diurnal utilizations: a sinusoidal daily profile quantized to
//     integer percent, plus occasional jitter.
//
// All values are integer-valued doubles (what /proc-style counters report),
// timestamps are a fixed 15 s cadence with per-server phase offsets.
// Optionally a known set of spike faults is injected so the in-stream
// anomaly detector has ground truth to be scored against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/store.h"

namespace epm::workload {

struct FleetCountersConfig {
  std::uint32_t servers = 100;
  std::uint32_t counters_per_server = 100;
  /// Sampling ticks to synthesize (per counter).
  std::uint32_t ticks = 40;
  double cadence_s = 15.0;
  std::uint64_t seed = 0xf1ee7;
  /// Probability that a given (server, counter) pair hosts one injected
  /// spike: a single sample multiplied far outside the detector band.
  double spike_probability = 0.0;
};

/// One injected ground-truth spike, for scoring the anomaly detector.
struct InjectedSpike {
  telemetry::CounterKey key = 0;
  double time_s = 0.0;
};

struct FleetCountersBatch {
  /// Samples ordered by tick, then server, then counter — the order a
  /// fleet-wide scrape would emit (all counters of tick t before any of
  /// tick t+1), so per-series timestamps are non-decreasing.
  std::vector<telemetry::Sample> samples;
  std::vector<InjectedSpike> spikes;
};

/// Deterministically synthesizes the reference mix. Same config -> same
/// batch, bit for bit.
FleetCountersBatch synthesize_fleet_counters(const FleetCountersConfig& config);

}  // namespace epm::workload
