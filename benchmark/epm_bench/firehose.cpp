// firehose: the §5.3 telemetry firehose with reads beside writes. The
// fleet_counters reference mix (1000 servers x 50 counters x 200 ticks =
// 10M points, 3000 s of fleet telemetry) is built in set-up and fed to
// ColumnarTelemetryStore::bulk_append in 10 tick-aligned 1M-point chunks
// on T threads. After each chunk a trailing-hour range query runs over all
// 50k series — mostly answered from open tails — then the store is
// flushed and daily_trend, hourly_pattern and anomalies run over all
// series. Chunked ingest answers bit-identically to a one-shot ingest.
#include <cstddef>
#include <memory>
#include <vector>

#include "core/parallel.h"
#include "harness.h"
#include "telemetry/store.h"
#include "workload/fleet_counters.h"

namespace epmbench {
namespace {

using namespace epm;

constexpr std::size_t kChunks = 10;

class Firehose final : public Workload {
 public:
  explicit Firehose(const Params& params)
      : params_(params), pool_(params.threads) {
    mix_.servers = params.smoke ? 100 : 1000;
    mix_.counters_per_server = params.smoke ? 20 : 50;
    mix_.ticks = params.smoke ? 40 : 200;
    mix_.seed = scenario_seed(42, params.seed);
  }

  void setup() override {
    const double t0 = now_s();
    const auto batch = workload::synthesize_fleet_counters(mix_);
    synth_ms_ = (now_s() - t0) * 1e3;
    // Samples are tick-major, so tick-aligned chunks are contiguous slices.
    const std::size_t per_chunk = batch.samples.size() / kChunks;
    chunks_.resize(kChunks);
    for (std::size_t i = 0; i < kChunks; ++i) {
      const auto begin = batch.samples.begin() + static_cast<std::ptrdiff_t>(i * per_chunk);
      chunks_[i].assign(begin, begin + static_cast<std::ptrdiff_t>(per_chunk));
    }
  }

  double sim_seconds() const override {
    return static_cast<double>(mix_.ticks) * mix_.cadence_s;
  }

  RepResult run(Tracer* tracer) override {
    telemetry::ColumnarTelemetryStore store;
    Digest digest;
    const std::size_t ticks_per_chunk = mix_.ticks / kChunks;
    for (std::size_t i = 0; i < kChunks; ++i) {
      {
        Scope scope(tracer, "telemetry.bulk_append");
        store.bulk_append(chunks_[i], pool_);
      }
      const double horizon_s =
          static_cast<double>((i + 1) * ticks_per_chunk) * mix_.cadence_s +
          mix_.cadence_s;
      Scope scope(tracer, "telemetry.range_open");
      for_each_key([&](telemetry::CounterKey key) {
        const telemetry::Aggregate a = store.range(key, horizon_s - 3600.0, horizon_s);
        digest.add(a.count).add(a.sum).add(a.min).add(a.max);
      });
    }
    {
      Scope scope(tracer, "telemetry.flush");
      store.flush();
    }
    const double horizon_s = sim_seconds() + mix_.cadence_s;
    const auto add_means = [&](const auto& m) {
      digest.add(m.times_s.size());
      for (const double t : m.times_s) digest.add(t);
      for (const double v : m.means) digest.add(v);
    };
    {
      Scope scope(tracer, "telemetry.daily_trend");
      for_each_key([&](telemetry::CounterKey key) {
        add_means(store.daily_trend(key, 0.0, horizon_s));
      });
    }
    {
      Scope scope(tracer, "telemetry.hourly_pattern");
      for_each_key([&](telemetry::CounterKey key) {
        add_means(store.hourly_pattern(key, 0.0, horizon_s));
      });
    }
    std::vector<telemetry::AnomalyEvent> events;
    {
      Scope scope(tracer, "telemetry.anomalies");
      events = store.anomalies();
    }
    for (const auto& e : events) digest.add(e.key).add(e.time_s).add(e.value).add(e.zscore);

    const std::uint64_t points = static_cast<std::uint64_t>(mix_.servers) *
                                 mix_.counters_per_server * mix_.ticks;
    const std::size_t payload = store.compressed_payload_bytes();
    digest.add(store.total_samples()).add(store.sealed_samples()).add(payload);
    digest.add(store.series_count());
    store_mb_ = static_cast<double>(store.memory_bytes()) / 1e6;
    compression_ratio_ = 16.0 * static_cast<double>(store.sealed_samples()) /
                         static_cast<double>(payload);

    RepResult result;
    result.digest = digest.value();
    result.checks_ok =
        store.total_samples() == points && store.sealed_samples() == points &&
        store.series_count() ==
            static_cast<std::size_t>(mix_.servers) * mix_.counters_per_server;
    result.headline = {
        {"points", static_cast<double>(store.total_samples())},
        {"compressed_bytes", static_cast<double>(payload)},
        {"anomalies", static_cast<double>(events.size())},
    };
    return result;
  }

  void probe(Tracer& tracer, double, std::uint64_t, LayerMetrics& layer,
             CheckTally& checks) override {
    const auto p50 = [&](const char* span) {
      return quantile(tracer.durations_ms(span), 0.5);
    };
    layer["telemetry.bulk_append_ms_p50"] = p50("telemetry.bulk_append");
    layer["telemetry.range_open_ms_p50"] = p50("telemetry.range_open");
    layer["telemetry.flush_ms"] = p50("telemetry.flush");
    layer["telemetry.daily_trend_ms"] = p50("telemetry.daily_trend");
    layer["telemetry.hourly_pattern_ms"] = p50("telemetry.hourly_pattern");
    layer["telemetry.anomalies_ms"] = p50("telemetry.anomalies");
    layer["telemetry.store_mb"] = store_mb_;
    layer["telemetry.compression_ratio"] = compression_ratio_;
    layer["workload.fleet_counters_synth_ms"] = synth_ms_;

    // Ingest alone at 1 thread vs T threads; both must seal the same bytes.
    const auto ingest = [&](ThreadPool& pool, const char* span,
                            std::size_t& payload) {
      telemetry::ColumnarTelemetryStore store;
      double wall = 0.0;
      {
        Scope scope(&tracer, span);
        const double t0 = now_s();
        for (const auto& chunk : chunks_) store.bulk_append(chunk, pool);
        wall = now_s() - t0;
      }
      store.flush();
      payload = store.compressed_payload_bytes();
      return wall;
    };
    ThreadPool serial_pool(1);
    std::size_t serial_payload = 0;
    std::size_t parallel_payload = 0;
    const double serial_s = ingest(serial_pool, "telemetry.ingest@1t", serial_payload);
    const double parallel_s = ingest(pool_, "telemetry.ingest@Tt", parallel_payload);
    checks.expect(serial_payload == parallel_payload);
    layer["telemetry.ingest_speedup_vs_1t"] = serial_s / parallel_s;
  }

 private:
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    for (std::uint32_t s = 0; s < mix_.servers; ++s) {
      for (std::uint32_t c = 0; c < mix_.counters_per_server; ++c) {
        fn(telemetry::make_key(s, c));
      }
    }
  }

  Params params_;
  ThreadPool pool_;
  workload::FleetCountersConfig mix_;
  std::vector<std::vector<telemetry::Sample>> chunks_;
  double synth_ms_ = 0.0;
  double store_mb_ = 0.0;
  double compression_ratio_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_firehose(const Params& params) {
  return std::make_unique<Firehose>(params);
}

}  // namespace epmbench
