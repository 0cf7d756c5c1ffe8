// Fleet-wide telemetry stores: (server, counter) -> per-counter history,
// sharded by server so the §5.3 firehose (10,000 servers x 100 counters
// @ 15 s = 2.4M+ points/minute) can be ingested in parallel.
//
//   * ColumnarTelemetryStore (alias TelemetryStore) — the store every
//     consumer uses: each counter accumulates plain columnar blocks
//     (block.h) and the banding / anomaly / compression work runs per
//     sealed block over contiguous arrays instead of per sample. A series
//     holds its compressed chain, the bin rows of levels kept longer than a
//     day, and an open block sized to its samples; finer levels are folded
//     from the chain at query time. Bulk ingest is one two-phase path at
//     every pool and batch size: partition the batch by shard, then append
//     whole shards in parallel. flush() seals whole shards in parallel the
//     same way.
//
//   * LegacyTelemetryStore — the original per-sample design, where every
//     sample cascades through a MultiScaleSeries immediately. It is only a
//     reference: tests and EXP-AA check that the columnar store's band
//     queries answer bit-identically to it (both run the same LevelBins
//     fold).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
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
  return SplitMix64::mix(static_cast<std::uint64_t>(server) + SplitMix64::kGamma);
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

/// Per-sample reference store (see the header comment): appends cascade
/// through one MultiScaleSeries per counter, sharded like the columnar store.
class LegacyTelemetryStore {
 public:
  static constexpr std::size_t shard_of(CounterKey key) {
    return telemetry_shard_of(key);
  }

  explicit LegacyTelemetryStore(MultiScaleConfig per_counter_config = {});

  /// Appends one sample; creates the series lazily.
  void append(CounterKey key, double time_s, double value);

  std::size_t series_count() const;
  std::uint64_t total_samples() const { return total_samples_; }

  /// §5.3 band queries over one counter (the columnar store's query API):
  /// Aggregate over [t0, t1) from the finest level still covering t0.
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  /// Long-term trend: daily means over [t0, t1).
  MultiScaleSeries::BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  /// Within-day pattern: hourly means.
  MultiScaleSeries::BinnedMeans hourly_pattern(CounterKey key, double t0_s,
                                               double t1_s) const;

 private:
  using ShardMap = std::unordered_map<CounterKey, MultiScaleSeries>;

  /// Series lookup; throws for unknown keys.
  const MultiScaleSeries& series(CounterKey key) const;

  MultiScaleConfig config_;
  std::array<ShardMap, kTelemetryShards> shards_;
  std::uint64_t total_samples_ = 0;
  std::size_t daily_level_ = 0;
  std::size_t hourly_level_ = 0;
};

/// Columnar firehose store: per-counter compressed sealed blocks with
/// block-seal banding and anomaly detection (block.h).
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

  /// Parallel bulk ingest, one path for every pool size T and batch size.
  /// Phase one splits the batch into T contiguous slices, and each slice
  /// lists its sample indices per shard. Phase two runs the shards in
  /// parallel; each appends its samples slice by slice. A shard is never
  /// split across threads, so no locking is needed, and every series
  /// receives its samples in batch order — bit-identical to appending
  /// `samples` serially, at any T. Requires the same per-series timestamp
  /// monotonicity as append(); a violating batch throws
  /// std::invalid_argument and leaves the store partly ingested.
  void bulk_append(const std::vector<Sample>& samples, ThreadPool& pool);
  /// Convenience overload: a private pool with `threads` runners
  /// (0 = default_thread_count()), at most one per shard.
  void bulk_append(const std::vector<Sample>& samples, std::size_t threads = 0);

  /// Seals every open block (partial blocks included) so all samples are in
  /// the compressed chain and the stored rows, and frees the open columns.
  /// Shard-parallel like bulk_append's phase two: one task per shard seals
  /// its series, so sealed bytes, stored rows and anomaly events are
  /// identical at any pool size. Queries do not require a flush — open
  /// blocks are scanned directly — but benchmarks and memory accounting
  /// call it to finalize.
  void flush(ThreadPool& pool);
  /// Convenience overload: a private pool of min(default_thread_count(),
  /// kShards) runners.
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

  /// Bytes the series hold: every vector's capacity plus the series
  /// objects (the shard maps' own nodes are not counted).
  std::size_t memory_bytes() const;
  /// Compressed payload across all sealed blocks (compression-ratio
  /// denominator; the numerator is 16 bytes x sealed_samples()).
  std::size_t compressed_payload_bytes() const;
  /// Samples living in sealed (compressed) blocks.
  std::uint64_t sealed_samples() const;

  /// Band queries (bit-identical to the legacy reference on equal input).
  Aggregate range(CounterKey key, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans daily_trend(CounterKey key, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans hourly_pattern(CounterKey key, double t0_s,
                                               double t1_s) const;

  /// Exact aggregate over the raw (uncompacted) history of one counter:
  /// decodes the blocks the window overlaps and folds in time order, equal
  /// to a strict scan — no second copy of the samples is needed for it.
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

using TelemetryStore = ColumnarTelemetryStore;

}  // namespace epm::telemetry
