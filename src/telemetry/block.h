// Columnar series blocks and the block-seal pipeline (§5.3 firehose).
//
// One counter's history is a chain of sealed, immutable, compressed blocks
// plus one open block of plain contiguous columns (times[], values[]).
// Ingest is two vector pushes; all the per-sample work the legacy store did
// synchronously — the multiscale banding cascade, anomaly scoring — runs
// once per block at seal time, over contiguous arrays, each stage a kernel
// with its state in registers:
//
//   seal:  [banding]   LevelBins::add_column per stored level: one bin test
//                      for a block inside one bin, else one bin test per
//                      sample to find each bin's run, then one run fold
//                      (Aggregate::add_run) per bin — the same left fold
//                      the legacy store runs per sample, so band queries
//                      answer bit-identically,
//          [detect]    StreamingSpikeDetector::observe_column over the
//                      whole block,
//          [compress]  predictive delta-of-delta timestamps + Gorilla XOR
//                      values (compress.h) through word-wise bit streams,
//                      ~0.85 bytes/point on the reference counter mix vs
//                      16 raw.
//
// A block seals when it fills or at flush() (the store seals its shards in
// parallel, store.h). A series holds only what its data needs: the open
// columns grow with the block and are freed when it seals, and the first
// sample's time stands in for every level's first bin. Only levels that
// reach back more than a day (or forever) keep a stored bin row; the finer
// ones (by default 15 s and 1 min) are derived at query time by folding the
// sealed blocks that overlap the query's bins, plus the open block — at
// most a day of one series. Every column a query folds (the open block or
// a decoded sealed block) goes run by run: samples before the window are
// skipped by binary search, each bin's run is found by a scan and folded
// whole, continuing the bin's stored content in sample order, and a run
// that reaches the column's last bin needs no scan — so an open tail
// answered from the daily level (a trailing-hour window that starts before
// the series does) is one run fold. Raw-history queries decode the blocks
// their window overlaps and fold each one's in-window run, so they equal a
// strict scan for any doubles. Timestamps and band-query bounds must be
// finite and binnable (multiscale.h, max_binnable_time_s).
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
  std::uint32_t samples = 0;
  std::vector<std::uint8_t> time_bytes;
  std::vector<std::uint8_t> value_bytes;

  /// Compressed payload only (the compression-ratio numerator's rival).
  std::size_t payload_bytes() const { return time_bytes.size() + value_bytes.size(); }
  /// Bit-exact reconstruction of the block's columns.
  void decode(std::vector<double>& times_s, std::vector<double>& values) const;
};

/// One counter's columnar history: sealed chain + open block + stored
/// banding rows + streaming detector state. Appends must have non-decreasing,
/// binnable timestamps (same contract as MultiScaleSeries).
class ColumnSeries {
 public:
  ColumnSeries(const MultiScaleConfig& config, const TelemetryTuning& tuning);

  void append(double time_s, double value);
  /// Seals a partial open block (no-op when empty). Queries are correct
  /// without flushing — the open block is scanned directly — but flushing
  /// moves its samples into the compressed chain and the stored rows, and
  /// frees the open columns.
  void flush();

  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t level_count() const { return levels_.size(); }
  const std::vector<SealedBlock>& blocks() const { return blocks_; }
  const std::vector<AnomalyEvent>& anomalies() const { return events_; }
  std::size_t open_samples() const { return open_times_.size(); }

  /// Band queries, answer-for-answer bit-identical to a MultiScaleSeries
  /// fed the same samples. A stored level continues its row's fold with the
  /// open block; a derived level runs the whole per-bin fold over the
  /// sealed blocks overlapping the query's bins, then the open block.
  Aggregate range(double t0_s, double t1_s) const;
  Aggregate range_at_level(std::size_t level, double t0_s, double t1_s) const;
  MultiScaleSeries::BinnedMeans means_at_level(std::size_t level, double t0_s,
                                               double t1_s) const;

  /// Exact raw-history aggregate over [t0, t1). Decodes the blocks the
  /// window overlaps and folds each one's run of in-window samples (found by
  /// binary search) in time order, so it equals a strict scan.
  Aggregate raw_range(double t0_s, double t1_s) const;

  /// Heap bytes held (every vector's capacity) plus the object itself.
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
  /// Calls visit(bin, aggregate) for each non-empty bin of `level` that
  /// lies in [t0, t1) and in the effective window, in bin order.
  template <typename Visit>
  void for_each_bin(std::size_t level, double t0_s, double t1_s, Visit&& visit) const;

  std::size_t block_capacity_;
  /// One row per level. Rows of levels retained for a day or less stay
  /// empty: those levels are derived from the blocks at query time.
  std::vector<LevelBins> levels_;
  std::vector<SealedBlock> blocks_;
  std::vector<double> open_times_;
  std::vector<double> open_values_;
  StreamingSpikeDetector detector_;
  std::vector<AnomalyEvent> events_;
  /// Time of the first sample ever; binned on demand per level.
  double first_time_s_ = 0.0;
  double last_time_s_ = -1.0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace epm::telemetry
