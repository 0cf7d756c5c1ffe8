// Multi-scale time-series storage (paper §5.3).
//
//   "consider a 10,000 server cloud computing environment, if there are 100
//    software performance counters of interests, and each of them are
//    sampled every 15 seconds, we will expect 2.4 million data points per
//    minutes... Since these queries essentially focuses on data with
//    certain narrow band, preprocessing and indexing the data into multiple
//    scales can speed up the query significantly. At the same time, raw
//    data out of these bands can be considered as noise and be eliminated,
//    thus reducing storage requirements."
//
// Each counter keeps a pyramid of aggregate levels (e.g. 15 s -> 1 min ->
// 15 min -> 1 h -> 1 d). Appends cascade upward in O(1) amortized; range
// queries are answered from the coarsest level that still resolves the
// request; old fine-grained bins are evicted per level-specific retention.
//
// The per-level fold lives in `LevelBins`, shared verbatim between the
// legacy per-sample cascade here and the columnar store's block-seal
// banding (block.h) — one code path, so the two stores answer band queries
// bit-identically by construction. A row is a plain vector: an empty row
// allocates nothing, which matters at a million series.
//
// The fold kernels are inline so every column fold runs in registers.
// `Aggregate::add_run` is a strict left fold of a contiguous run with
// min/max/sum/count in locals; add() is its one-sample case, so a run and
// its samples one at a time agree bit for bit, NaN and signed zeros
// included (a sum of two different NaNs keeps whichever the compiler put
// first). `LevelBins::bin_index` is an exact floor without libm —
// truncate, then step down when the quotient lies below — valid for every
// time max_binnable_time_s admits (|quotient| <= 2^62, so the conversion
// to int64 is always defined). Column folds take a run at a time:
// `run_end` scans to where a bin's run of sorted samples ends.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace epm::telemetry {

/// min/max/sum/count aggregate; the only thing levels store.
struct Aggregate {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  void add(double v) { add_run(&v, 1); }
  /// Strict left fold of values[0, n), continuing the current content with
  /// the aggregate held in locals for the whole run: min/max keep the
  /// running value unless the next compares strictly less/greater (a
  /// leading NaN sticks, a later one is skipped, the first of ±0 wins), and
  /// the sum adds in order, starting from +0.0.
  void add_run(const double* values, std::size_t n) {
    if (n == 0) return;
    std::size_t i = 0;
    double lo = min;
    double hi = max;
    double s = sum;
    if (count == 0) {
      lo = hi = values[0];
      s += values[0];
      i = 1;
    }
    for (; i < n; ++i) {
      const double v = values[i];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      s += v;
    }
    min = lo;
    max = hi;
    sum = s;
    count += n;
  }
  void merge(const Aggregate& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
  }
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

struct LevelSpec {
  double resolution_s;
  /// Bins retained before eviction (0 = unlimited).
  std::size_t retention_bins;
};

struct MultiScaleConfig {
  /// Finest-to-coarsest. Each resolution must be an integer multiple of the
  /// previous one. Default: 15 s (4 h), 1 min (1 day), 15 min (1 week),
  /// 1 h (6 weeks), 1 day (unlimited).
  std::vector<LevelSpec> levels{
      {15.0, 960},  {60.0, 1440}, {900.0, 672}, {3600.0, 1008}, {86400.0, 0}};
};

/// One resolution level's dense bin row: the fold every multiscale consumer
/// shares. Bin i covers [i*res, (i+1)*res); skipped bins are padded with
/// empties so indexing stays dense; bins beyond retention are evicted (the
/// data survives only in coarser levels).
struct LevelBins {
  LevelSpec spec{1.0, 0};
  /// Index of the first retained bin.
  std::int64_t first_bin = 0;
  /// Retained bins, oldest first: bins[i] is bin first_bin + i.
  std::vector<Aggregate> bins;

  /// floor(time_s / resolution_s), exactly, for any binnable time.
  std::int64_t bin_index(double time_s) const {
    const double q = time_s / spec.resolution_s;
    const auto t = static_cast<std::int64_t>(q);
    return t - (static_cast<double>(t) > q ? 1 : 0);
  }
  /// First index in (i, n] whose sample lies past `bin`, the bin of
  /// times_s[i] (n when none does). Times must be sorted.
  std::size_t run_end(const double* times_s, std::size_t i, std::size_t n,
                      std::int64_t bin) const {
    std::size_t end = i + 1;
    while (end < n && bin_index(times_s[end]) == bin) ++end;
    return end;
  }
  /// Content of `bin`; empty outside the retained row.
  Aggregate at(std::int64_t bin) const {
    const std::int64_t idx = bin - first_bin;
    if (idx < 0 || idx >= static_cast<std::int64_t>(bins.size())) return {};
    return bins[static_cast<std::size_t>(idx)];
  }
  /// Left-folds one sample into its bin (padding forward as needed), then
  /// evicts beyond retention — the legacy per-append discipline.
  void add(double time_s, double value);
  /// Batch fold over a time-sorted column pair: identical final state to
  /// calling add() per sample. A column whose first and last samples share
  /// a bin takes one bin test and one run fold; otherwise each bin's run is
  /// found with run_end() and folded whole. Eviction runs once at the end,
  /// which only changes *when* bins are popped, never which ones survive.
  void add_column(const double* times_s, const double* values, std::size_t n);
  void evict();
};

/// One counter's multi-resolution history. Samples must arrive with
/// non-decreasing, binnable timestamps (max_binnable_time_s below).
class MultiScaleSeries {
 public:
  explicit MultiScaleSeries(MultiScaleConfig config = {});

  void append(double time_s, double value);
  std::uint64_t total_samples() const { return total_samples_; }
  std::size_t level_count() const { return levels_.size(); }
  double level_resolution_s(std::size_t level) const;
  std::size_t level_bins(std::size_t level) const;

  /// Aggregate over [t0_s, t1_s), served from the finest level whose
  /// retention still covers t0_s (bin-aligned approximation at the edges).
  /// Returns an empty aggregate when nothing is retained for the range.
  Aggregate range(double t0_s, double t1_s) const;

  /// Aggregate over [t0_s, t1_s) from a specific level.
  Aggregate range_at_level(std::size_t level, double t0_s, double t1_s) const;

  /// Per-bin means from `level` covering [t0_s, t1_s); bins without data are
  /// skipped. Times are bin starts.
  struct BinnedMeans {
    std::vector<double> times_s;
    std::vector<double> means;
  };
  BinnedMeans means_at_level(std::size_t level, double t0_s, double t1_s) const;

  /// Approximate resident memory (bins x aggregate size), for the paper's
  /// storage-reduction argument.
  std::size_t memory_bytes() const;

 private:
  std::vector<LevelBins> levels_;
  double last_time_s_ = -1.0;
  std::uint64_t total_samples_ = 0;
};

/// Largest |time| that a series whose finest level is `finest` can bin:
/// every level's bin index then lies within ±2^62, which leaves int64 room
/// for the window arithmetic (hi + 1, last − retention + 1). NaN and ±inf
/// lie outside it. Appends and band-query bounds are checked against it.
inline double max_binnable_time_s(const LevelBins& finest) {
  return finest.spec.resolution_s * 0x1p62;
}

/// Throws std::invalid_argument unless [t0_s, t1_s) is an ordered window of
/// binnable times; every band query of MultiScaleSeries and ColumnSeries
/// checks its bounds here.
void check_band_window(const LevelBins& finest, double t0_s, double t1_s);

/// Validates a MultiScaleConfig (positive resolutions, integer >1 level
/// ratios) and returns the level rows ready for folding. Shared by
/// MultiScaleSeries and the columnar store's ColumnSeries.
std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config);

}  // namespace epm::telemetry
