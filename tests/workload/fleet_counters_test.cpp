// Reference fleet-counter mix (workload/fleet_counters.h): the synthetic
// firehose the EXP-AA compression and throughput gates are defined against.
// The generator must be deterministic, emit tick-major order (per-series
// timestamps non-decreasing), produce the documented integer-valued mix,
// and stamp ground-truth spikes the detector can be scored on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "workload/fleet_counters.h"

namespace epm::workload {
namespace {

TEST(FleetCounters, SameConfigSameBatchBitForBit) {
  FleetCountersConfig config;
  config.servers = 20;
  config.counters_per_server = 5;
  config.ticks = 12;
  config.spike_probability = 0.1;
  const auto a = synthesize_fleet_counters(config);
  const auto b = synthesize_fleet_counters(config);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].key, b.samples[i].key);
    EXPECT_EQ(a.samples[i].time_s, b.samples[i].time_s);
    EXPECT_EQ(a.samples[i].value, b.samples[i].value);
  }
  ASSERT_EQ(a.spikes.size(), b.spikes.size());
  for (std::size_t i = 0; i < a.spikes.size(); ++i) {
    EXPECT_EQ(a.spikes[i].key, b.spikes[i].key);
    EXPECT_EQ(a.spikes[i].time_s, b.spikes[i].time_s);
  }
}

TEST(FleetCounters, EmitsEverySeriesTickMajorWithMonotoneTimes) {
  FleetCountersConfig config;
  config.servers = 10;
  config.counters_per_server = 4;
  config.ticks = 15;
  const auto batch = synthesize_fleet_counters(config);
  ASSERT_EQ(batch.samples.size(),
            static_cast<std::size_t>(10) * 4 * 15);
  std::map<telemetry::CounterKey, double> last_time;
  std::map<telemetry::CounterKey, std::size_t> counts;
  double last_tick_floor = 0.0;
  for (const auto& sample : batch.samples) {
    // Tick-major: coarse time never rewinds across the whole batch...
    const double tick_floor =
        std::floor(sample.time_s / config.cadence_s) * config.cadence_s;
    EXPECT_GE(tick_floor + config.cadence_s, last_tick_floor);
    last_tick_floor = tick_floor;
    // ...and per-series timestamps are strictly non-decreasing.
    const auto it = last_time.find(sample.key);
    if (it != last_time.end()) {
      EXPECT_GT(sample.time_s, it->second);
    }
    last_time[sample.key] = sample.time_s;
    ++counts[sample.key];
    // /proc-style counters: integer-valued doubles.
    EXPECT_EQ(sample.value, std::floor(sample.value));
  }
  EXPECT_EQ(counts.size(), 40u);
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 15u) << key;
}

TEST(FleetCounters, SpikesAreStampedAndPresentInTheSamples) {
  FleetCountersConfig config;
  config.servers = 25;
  config.counters_per_server = 8;
  config.ticks = 30;
  config.spike_probability = 0.2;
  const auto batch = synthesize_fleet_counters(config);
  ASSERT_GT(batch.spikes.size(), 0u);
  // ~20% of 200 series host one spike each.
  EXPECT_GT(batch.spikes.size(), 15u);
  EXPECT_LT(batch.spikes.size(), 90u);
  for (const auto& spike : batch.spikes) {
    // The stamped (key, time) pair exists in the emitted samples, in the
    // scheduled second half of the horizon.
    const bool found = std::any_of(
        batch.samples.begin(), batch.samples.end(),
        [&](const telemetry::Sample& s) {
          return s.key == spike.key && s.time_s == spike.time_s;
        });
    EXPECT_TRUE(found) << "spike key " << spike.key;
    EXPECT_GE(spike.time_s, config.cadence_s * (config.ticks / 2));
  }
}

TEST(FleetCounters, NoSpikesByDefault) {
  FleetCountersConfig config;
  config.servers = 5;
  config.counters_per_server = 5;
  config.ticks = 10;
  EXPECT_TRUE(synthesize_fleet_counters(config).spikes.empty());
}

}  // namespace
}  // namespace epm::workload
