// Columnar series blocks and the block-seal pipeline (§5.3 firehose).
//
// One counter's history is a chain of sealed, immutable, compressed blocks
// plus one open block of plain contiguous columns (times[], values[]).
// Ingest is two vector pushes; all the per-sample work the legacy store did
// synchronously — the multiscale banding cascade, downsampling, anomaly
// scoring — runs once per block at seal time, over contiguous arrays:
//
//   seal:  [banding]   LevelBins::add_column per level (the same fold the
//                      legacy store runs per sample, so band queries answer
//                      bit-identically),
//          [downsample] 4-wide-lane min/max + strict-order sum summary,
//          [detect]    StreamingSpikeDetector::observe per sample,
//          [compress]  predictive delta-of-delta timestamps + Gorilla XOR
//                      values (compress.h), ~2 bytes/point on the reference
//                      counter mix vs 16 raw.
//
// Sealed blocks answer raw-history queries without touching the open
// block: a block fully inside the query window contributes its summary
// (no decompression); only window-edge blocks are decoded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/anomaly.h"
#include "telemetry/multiscale.h"

namespace epm::telemetry {

/// Per-series block knobs of the columnar store. The defaults serve the
/// §5.3 reference mix; tests shrink block_capacity to exercise many seal
/// boundaries cheaply. Bulk ingest takes no knob: it partitions by the pool
/// size and the fixed 64-shard layout (store.h).
struct TelemetryTuning {
  /// Samples per block; seal triggers when the open block reaches this.
  /// Block boundaries depend only on the per-series sample count, so the
  /// layout is identical at every thread count.
  std::size_t block_capacity = 1024;
  StreamingAnomalyConfig anomaly;
};

/// An immutable, compressed run of consecutive samples.
struct SealedBlock {
  double first_time_s = 0.0;
  double last_time_s = 0.0;
  /// Block-level downsample: min/max folded in 4-wide lanes, sum as a
  /// strict left fold (see block.cpp).
  Aggregate summary;
  std::uint32_t samples = 0;
  std::vector<std::uint8_t> time_bytes;
  std::vector<std::uint8_t> value_bytes;

  /// Compressed payload only (the compression-ratio numerator's rival).
  std::size_t payload_bytes() const { return time_bytes.size() + value_bytes.size(); }
  std::size_t memory_bytes() const {
    return sizeof(SealedBlock) + time_bytes.capacity() + value_bytes.capacity();
  }
  /// Bit-exact reconstruction of the block's columns.
  void decode(std::vector<double>& times_s, std::vector<double>& values) const;
};

/// Block-level downsample over a contiguous column: min/max reduce across
/// four independent lanes (auto-vectorizable), count is trivial, and the
/// sum stays a strict left fold so every derived number is reproducible
/// bit-for-bit regardless of how the compiler vectorizes.
Aggregate lane_summary(const double* values, std::size_t n);

/// One counter's columnar history: sealed chain + open block + banding rows
/// + streaming detector state. Appends must have non-decreasing timestamps
/// (same contract as MultiScaleSeries).
class ColumnSeries {
 public:
  ColumnSeries(const MultiScaleConfig& config, const TelemetryTuning& tuning);

  void append(double time_s, double value);
  /// Seals a partial open block (no-op when empty). Queries are correct
  /// without flushing — the open block is scanned directly — but flushing
  /// moves its samples into the compressed chain and the banding rows.
  void flush();

  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t level_count() const { return levels_.size(); }
  const std::vector<SealedBlock>& blocks() const { return blocks_; }
  const std::vector<AnomalyEvent>& anomalies() const { return events_; }
  std::size_t open_samples() const { return open_times_.size(); }

  /// Band queries, answer-for-answer bit-identical to a MultiScaleSeries
  /// fed the same samples (the open block contributes via an on-the-fly
  /// continuation of the same fold).
  Aggregate range(double t0_s, double t1_s) const;
  Aggregate range_at_level(std::size_t level, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans means_at_level(std::size_t level, double t0_s,
                                               double t1_s) const;

  /// Exact raw-history aggregate over [t0, t1) — the query the legacy
  /// design had to keep a separate RawStore for. Whole blocks inside the
  /// window contribute their summaries without decompression.
  Aggregate raw_range(double t0_s, double t1_s) const;

  std::size_t memory_bytes() const;
  std::size_t compressed_payload_bytes() const;
  /// Raw footprint of every ingested sample (two doubles each).
  std::size_t raw_sample_bytes() const {
    return static_cast<std::size_t>(total_samples_) * 2 * sizeof(double);
  }

 private:
  struct LevelWindow {
    std::int64_t first = 0;  ///< first retained bin (legacy closed form)
    std::int64_t last = 0;   ///< bin of the newest sample
  };

  void seal();
  /// Effective retained-bin window for `level`, accounting for open-block
  /// samples exactly as the legacy per-append eviction would have.
  LevelWindow effective_window(std::size_t level) const;
  /// Sealed bin content for `bin` (empty aggregate outside the deque).
  Aggregate sealed_bin(std::size_t level, std::int64_t bin) const;

  std::size_t block_capacity_;
  StreamingAnomalyConfig anomaly_config_;
  std::vector<LevelBins> levels_;
  /// Bin of the first sample ever, per level (fixed after first append).
  std::vector<std::int64_t> first_ever_bin_;
  std::vector<SealedBlock> blocks_;
  std::vector<double> open_times_;
  std::vector<double> open_values_;
  StreamingSpikeDetector detector_;
  std::vector<AnomalyEvent> events_;
  double last_time_s_ = -1.0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
