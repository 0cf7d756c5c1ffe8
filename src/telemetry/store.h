// Fleet-wide telemetry stores: (server, counter) -> per-counter history,
// sharded by server so the §5.3 firehose (10,000 servers x 100 counters
// @ 15 s = 2.4M+ points/minute) can be ingested in parallel.
//
// Two implementations share one query API:
//
//   * LegacyTelemetryStore — the original design: every sample cascades
//     through a MultiScaleSeries immediately; bulk ingest partitions the
//     batch by shard and applies whole shards per worker. Kept as the
//     bit-identity baseline.
//
//   * ColumnarTelemetryStore — the firehose path: producers push samples
//     through lock-free SPSC ingest rings (ring.h) into shard drainers;
//     each counter accumulates plain columnar blocks (block.h) and the
//     banding / downsampling / anomaly / compression work runs per sealed
//     block over contiguous arrays instead of per sample.
//
// Both stores give every series its samples in batch order at any thread
// count, and both run the same LevelBins fold, so band queries answer
// bit-identically across the two (enforced by tests and EXP-AA).
//
// `TelemetryStore` aliases the columnar store; build with
// -DEPM_TELEMETRY_LEGACY to flip the whole binary onto the legacy path for
// A/B comparison (same pattern as EPM_SIM_BINARY_HEAP, PR 5).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/block.h"
#include "telemetry/multiscale.h"

namespace epm {
class ThreadPool;
}

namespace epm::telemetry {

/// Dense counter key: server index * counters_per_server + counter index.
using CounterKey = std::uint64_t;

constexpr CounterKey make_key(std::uint32_t server, std::uint32_t counter) {
  return (static_cast<CounterKey>(server) << 32) | counter;
}
constexpr std::uint32_t server_of(CounterKey key) {
  return static_cast<std::uint32_t>(key >> 32);
}
constexpr std::uint32_t counter_of(CounterKey key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

/// Fixed shard fan-out. Independent of the thread count (shards are
/// assigned to workers, not created per worker), so the layout — and every
/// query answer — is identical however many threads ingest.
constexpr std::size_t kTelemetryShards = 64;

/// splitmix64 finalizer over the server id. A plain `server % kShards`
/// collides whole racks onto one shard whenever fleet enumeration strides
/// by a multiple of 64 (e.g. servers 0, 64, 128, ... of a column-major
/// rack layout all landed on shard 0, serializing their ingest); the mix
/// spreads any enumeration pattern evenly.
constexpr std::uint64_t mix_server(std::uint32_t server) {
  std::uint64_t x = static_cast<std::uint64_t>(server) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::size_t telemetry_shard_of(CounterKey key) {
  return static_cast<std::size_t>(mix_server(server_of(key)) % kTelemetryShards);
}

/// One telemetry point in flight, as handed to bulk ingest.
struct Sample {
  CounterKey key = 0;
  double time_s = 0.0;
  double value = 0.0;
  /// Set by the fault layer for sensor stuck-at faults: the value is a stale
  /// repeat, not a fresh reading. Degraded samples are stored (queries still
  /// work) but counted so consumers can judge data quality.
  bool degraded = false;
};

/// Multi-scale store for a whole fleet, sharded by server (original
/// per-sample cascade design; the columnar store's A/B baseline).
class LegacyTelemetryStore {
 public:
  static constexpr std::size_t kShards = kTelemetryShards;

  static constexpr std::size_t shard_of(CounterKey key) {
    return telemetry_shard_of(key);
  }

  /// `tuning` is accepted for signature parity with the columnar store (so
  /// the TelemetryStore alias is a drop-in either way) and ignored here.
  explicit LegacyTelemetryStore(MultiScaleConfig per_counter_config = {},
                                const TelemetryTuning& tuning = {});

  /// Appends one sample; creates the series lazily.
  void append(CounterKey key, double time_s, double value, bool degraded = false);

  /// Fault hook: accounts `count` samples that a sensor dropout swallowed
  /// (they were never produced, so nothing is stored).
  void record_dropout(std::uint64_t count) { dropped_samples_ += count; }

  /// Overload-defense accounting (closed-loop workloads): requests refused
  /// by the admission stack, intents abandoned by clients, and re-offered
  /// retry attempts. Counters, not series — the per-epoch rates flow
  /// through the sensor plane as kShedRate/kRetryRate channels.
  void record_shed(std::uint64_t count) { shed_requests_ += count; }
  void record_abandoned(std::uint64_t count) { abandoned_requests_ += count; }
  void record_retried(std::uint64_t count) { retried_requests_ += count; }

  /// Parallel bulk ingest: partitions `samples` by shard, then lets each
  /// worker apply whole shards (one shard is never split across threads, so
  /// no locking is needed and per-series order is the input order). Requires
  /// the same per-series timestamp monotonicity as append(). Bit-identical
  /// to appending `samples` serially, at every thread count.
  void bulk_append(const std::vector<Sample>& samples, ThreadPool& pool);
  /// Convenience overload: a private pool with `threads` workers
  /// (0 = default_thread_count()).
  void bulk_append(const std::vector<Sample>& samples, std::size_t threads = 0);

  /// No deferred state on this path; provided for alias parity.
  void flush() {}

  std::size_t series_count() const;
  std::uint64_t total_samples() const { return total_samples_; }
  /// Stored samples flagged degraded (sensor stuck-at).
  std::uint64_t degraded_samples() const { return degraded_samples_; }
  /// Samples lost to sensor dropouts (never stored).
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  /// Requests refused by the admission stack (queue/bucket/breaker).
  std::uint64_t shed_requests() const { return shed_requests_; }
  /// Client intents abandoned after exhausting their retry budget.
  std::uint64_t abandoned_requests() const { return abandoned_requests_; }
  /// Re-offered (retry) attempts beyond each intent's first.
  std::uint64_t retried_requests() const { return retried_requests_; }
  /// Series lookup; throws for unknown keys. (Legacy-only: the columnar
  /// store has no MultiScaleSeries to hand out — use the query methods.)
  const MultiScaleSeries& series(CounterKey key) const;
  bool contains(CounterKey key) const {
    return shards_[shard_of(key)].count(key) > 0;
  }

  std::size_t memory_bytes() const;

  /// §5.3 band queries over one counter (shared query API):
  /// Aggregate over [t0, t1) from the finest level still covering t0.
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  /// Long-term trend: daily means over [t0, t1).
  MultiScaleSeries::BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  /// Within-day pattern: hourly means.
  MultiScaleSeries::BinnedMeans hourly_pattern(CounterKey key, double t0_s,
                                               double t1_s) const;

  /// In-stream anomaly detection is columnar-only; empty here (alias parity).
  std::vector<AnomalyEvent> anomalies() const { return {}; }

 private:
  using ShardMap = std::unordered_map<CounterKey, MultiScaleSeries>;

  MultiScaleConfig config_;
  std::array<ShardMap, kShards> shards_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t degraded_samples_ = 0;
  std::uint64_t dropped_samples_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t abandoned_requests_ = 0;
  std::uint64_t retried_requests_ = 0;
  std::size_t daily_level_ = 0;
  std::size_t hourly_level_ = 0;
};

/// Columnar firehose store: ring-fed shard drainers, compressed sealed
/// blocks, block-seal banding/downsampling/anomaly detection (block.h).
class ColumnarTelemetryStore {
 public:
  static constexpr std::size_t kShards = kTelemetryShards;

  static constexpr std::size_t shard_of(CounterKey key) {
    return telemetry_shard_of(key);
  }

  explicit ColumnarTelemetryStore(MultiScaleConfig per_counter_config = {},
                                  const TelemetryTuning& tuning = {});

  void append(CounterKey key, double time_s, double value, bool degraded = false);

  void record_dropout(std::uint64_t count) { dropped_samples_ += count; }
  void record_shed(std::uint64_t count) { shed_requests_ += count; }
  void record_abandoned(std::uint64_t count) { abandoned_requests_ += count; }
  void record_retried(std::uint64_t count) { retried_requests_ += count; }

  /// Pipelined parallel bulk ingest. With a pool of T >= 2 runners the
  /// batch is split across P producers that push into P x D lock-free SPSC
  /// rings (ring.h); D shard drainers pull concurrently and append into
  /// their disjoint shard sets, P + D <= T so every role runs at once.
  /// Drainer d consumes producer rings in producer order, and producers own
  /// contiguous input slices, so per-series sample order is the batch order
  /// at every thread count — bit-identical to serial append. T == 1 falls
  /// back to the serial loop (same result by the same argument).
  void bulk_append(const std::vector<Sample>& samples, ThreadPool& pool);
  void bulk_append(const std::vector<Sample>& samples, std::size_t threads = 0);

  /// Seals every open block (partial blocks included) so all samples are in
  /// the compressed chain and the banding rows. Queries do not require a
  /// flush — open blocks are scanned directly — but benchmarks and memory
  /// accounting call it to finalize.
  void flush();

  std::size_t series_count() const;
  std::uint64_t total_samples() const { return total_samples_; }
  std::uint64_t degraded_samples() const { return degraded_samples_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  std::uint64_t shed_requests() const { return shed_requests_; }
  std::uint64_t abandoned_requests() const { return abandoned_requests_; }
  std::uint64_t retried_requests() const { return retried_requests_; }
  bool contains(CounterKey key) const {
    return shards_[shard_of(key)].count(key) > 0;
  }
  /// Columnar series lookup; throws for unknown keys.
  const ColumnSeries& column_series(CounterKey key) const;

  std::size_t memory_bytes() const;
  /// Compressed payload across all sealed blocks (compression-ratio
  /// denominator; the numerator is 16 bytes x sealed_samples()).
  std::size_t compressed_payload_bytes() const;
  /// Samples living in sealed (compressed) blocks.
  std::uint64_t sealed_samples() const;

  /// Shared query API (bit-identical to the legacy store on equal input).
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans hourly_pattern(CounterKey key, double t0_s,
                                               double t1_s) const;

  /// Exact aggregate over the raw (uncompacted) history of one counter —
  /// whole interior blocks answer from their summaries without
  /// decompression. The legacy design needed a separate RawStore for this.
  Aggregate raw_range(CounterKey key, double t0_s, double t1_s) const;

  /// All band-escape events so far, keys stamped, ordered by (time, key)
  /// with per-series emission order preserved — deterministic despite the
  /// unordered shard maps. Detection latency is one sealed block: call
  /// flush() first to include open-block samples.
  std::vector<AnomalyEvent> anomalies() const;

 private:
  using ShardMap = std::unordered_map<CounterKey, ColumnSeries>;

  ColumnSeries& series_slot(std::size_t shard, CounterKey key);

  MultiScaleConfig config_;
  TelemetryTuning tuning_;
  std::array<ShardMap, kShards> shards_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t degraded_samples_ = 0;
  std::uint64_t dropped_samples_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t abandoned_requests_ = 0;
  std::uint64_t retried_requests_ = 0;
  std::size_t daily_level_ = 0;
  std::size_t hourly_level_ = 0;
};

/// Build-time A/B switch, same pattern as EPM_SIM_BINARY_HEAP: the default
/// build runs columnar; -DEPM_TELEMETRY_LEGACY flips every consumer onto
/// the legacy per-sample cascade.
#ifdef EPM_TELEMETRY_LEGACY
using TelemetryStore = LegacyTelemetryStore;
#else
using TelemetryStore = ColumnarTelemetryStore;
#endif

/// Plain raw storage (15 s samples kept forever) used as the baseline in
/// EXP-F: linear-scan queries and un-aggregated memory footprint.
class RawStore {
 public:
  void append(CounterKey key, double time_s, double value);
  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t memory_bytes() const;

  struct Stats {
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    std::uint64_t count = 0;
  };
  /// Linear scan over one counter's samples in [t0, t1).
  Stats range(CounterKey key, double t0_s, double t1_s) const;

 private:
  struct Column {
    std::vector<double> times_s;
    std::vector<double> values;
  };
  std::unordered_map<CounterKey, Column> columns_;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
