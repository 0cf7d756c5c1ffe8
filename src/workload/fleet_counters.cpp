#include "workload/fleet_counters.h"

#include <cmath>

#include "core/require.h"
#include "core/rng.h"

namespace epm::workload {

namespace {

/// Multiplier applied to a spiked sample (on top of baseline + 64).
constexpr double kSpikeScale = 50.0;

enum class CounterType : std::uint8_t {
  kNearConstant,  // 50%: integer baseline, rare +-1 excursions
  kCumulative,    // 25%: monotone integer accumulator
  kDiurnal,       // 25%: daily sinusoid quantized to integer percent
};

struct SeriesState {
  Rng rng;
  CounterType type;
  double baseline = 0.0;
  double value = 0.0;
  /// Tick carrying the injected spike; no spike when >= ticks.
  std::uint32_t spike_tick = 0xffffffffu;

  explicit SeriesState(std::uint64_t seed) : rng(seed), type(CounterType::kNearConstant) {}
};

double next_value(SeriesState& s, double time_s) {
  switch (s.type) {
    case CounterType::kNearConstant: {
      double v = s.baseline;
      const double u = s.rng.uniform01();
      if (u < 0.01) {
        v += 1.0;
      } else if (u < 0.02) {
        v -= 1.0;
      }
      return v;
    }
    case CounterType::kCumulative:
      s.value += static_cast<double>(s.rng.uniform_int(0, 100));
      return s.value;
    case CounterType::kDiurnal: {
      const double phase = 2.0 * 3.14159265358979323846 * time_s / 86400.0;
      double v = std::round(s.baseline + 40.0 * std::sin(phase));
      if (s.rng.uniform01() < 0.05) v += s.rng.uniform01() < 0.5 ? 1.0 : -1.0;
      return v;
    }
  }
  return 0.0;
}

}  // namespace

FleetCountersBatch synthesize_fleet_counters(const FleetCountersConfig& config) {
  require(config.servers >= 1 && config.counters_per_server >= 1,
          "fleet_counters: need at least one server and counter");
  require(config.ticks >= 1, "fleet_counters: need at least one tick");
  require(config.cadence_s > 0.0, "fleet_counters: cadence must be positive");
  require(config.spike_probability >= 0.0 && config.spike_probability <= 1.0,
          "fleet_counters: spike probability outside [0, 1]");

  const std::size_t series_count =
      static_cast<std::size_t>(config.servers) * config.counters_per_server;

  // One private RNG stream per series, derived from (seed, key): the draw
  // sequence a series sees is a function of its key alone, so the batch is
  // identical however the synthesis loop is restructured.
  std::vector<SeriesState> states;
  states.reserve(series_count);
  FleetCountersBatch batch;
  for (std::uint32_t server = 0; server < config.servers; ++server) {
    for (std::uint32_t counter = 0; counter < config.counters_per_server; ++counter) {
      const telemetry::CounterKey key = telemetry::make_key(server, counter);
      SeriesState s(SplitMix64::mix(config.seed + SplitMix64::kGamma * (key + 1)));
      const double pick = s.rng.uniform01();
      if (pick < 0.5) {
        s.type = CounterType::kNearConstant;
        s.baseline = static_cast<double>(s.rng.uniform_int(0, 1000));
      } else if (pick < 0.75) {
        s.type = CounterType::kCumulative;
        s.value = 0.0;
      } else {
        s.type = CounterType::kDiurnal;
        s.baseline = 50.0;
      }
      if (config.spike_probability > 0.0 &&
          s.rng.uniform01() < config.spike_probability && config.ticks >= 2) {
        // Land the spike in the second half of the run so the detector's
        // warmup has passed for any realistic tick count.
        s.spike_tick = static_cast<std::uint32_t>(
            s.rng.uniform_int(config.ticks / 2, config.ticks - 1));
        batch.spikes.push_back(InjectedSpike{
            key, static_cast<double>(s.spike_tick) * config.cadence_s +
                     static_cast<double>(server % 15)});
      }
      states.push_back(std::move(s));
    }
  }

  // Tick-major emission: every counter of tick t before any counter of
  // tick t+1, matching a fleet-wide scrape and keeping per-series
  // timestamps non-decreasing.
  batch.samples.reserve(series_count * config.ticks);
  for (std::uint32_t tick = 0; tick < config.ticks; ++tick) {
    std::size_t idx = 0;
    for (std::uint32_t server = 0; server < config.servers; ++server) {
      // Per-server phase offset: staggers scrape arrival like a real
      // collector fan-out (integer seconds keep values integer-valued).
      const double time_s = static_cast<double>(tick) * config.cadence_s +
                            static_cast<double>(server % 15);
      for (std::uint32_t counter = 0; counter < config.counters_per_server;
           ++counter, ++idx) {
        SeriesState& s = states[idx];
        double value = next_value(s, time_s);
        if (tick == s.spike_tick) value = (value + 64.0) * kSpikeScale;
        batch.samples.push_back(telemetry::Sample{
            telemetry::make_key(server, counter), time_s, value, false});
      }
    }
  }
  return batch;
}

}  // namespace epm::workload
