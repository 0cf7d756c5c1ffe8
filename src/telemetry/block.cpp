#include "telemetry/block.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"
#include "telemetry/compress.h"

namespace epm::telemetry {

void SealedBlock::decode(std::vector<double>& times_s, std::vector<double>& values) const {
  times_s.resize(samples);
  values.resize(samples);
  BitReader tr(time_bytes);
  decode_times(tr, times_s.data(), samples);
  BitReader vr(value_bytes);
  decode_values(vr, values.data(), samples);
}

namespace {

/// The storage rule: a level keeps a bin row only when it reaches back more
/// than a day (or forever). Finer levels are folded from the blocks at query
/// time, which costs at most a day of one series' samples.
bool keeps_stored_row(const LevelSpec& spec) {
  return spec.retention_bins == 0 ||
         static_cast<double>(spec.retention_bins) * spec.resolution_s > 86400.0;
}

}  // namespace

ColumnSeries::ColumnSeries(const MultiScaleConfig& config, const TelemetryTuning& tuning)
    : block_capacity_(tuning.block_capacity),
      levels_(make_level_bins(config)),
      detector_(tuning.anomaly) {
  require(block_capacity_ >= 1, "ColumnSeries: block_capacity must be >= 1");
}

void ColumnSeries::append(double time_s, double value) {
  require(time_s >= 0.0 && time_s <= max_binnable_time_s(levels_.front()),
          "ColumnSeries: time must be finite, non-negative and within the bin range");
  require(time_s >= last_time_s_, "ColumnSeries: timestamps must be non-decreasing");
  if (total_samples_ == 0) first_time_s_ = time_s;
  last_time_s_ = time_s;
  ++total_samples_;
  open_times_.push_back(time_s);
  open_values_.push_back(value);
  if (open_times_.size() >= block_capacity_) seal();
}

void ColumnSeries::flush() { seal(); }

void ColumnSeries::seal() {
  const std::size_t n = open_times_.size();
  if (n == 0) return;
  const double* times = open_times_.data();
  const double* values = open_values_.data();

  // [banding] Same fold the legacy cascade runs, one stored row at a time.
  for (auto& lvl : levels_) {
    if (keeps_stored_row(lvl.spec)) lvl.add_column(times, values, n);
  }

  // [detect] Events carry key=0 here; the store stamps the owning counter.
  if (detector_.enabled()) detector_.observe_column(times, values, n, events_);

  // [compress]
  SealedBlock block;
  block.first_time_s = times[0];
  block.last_time_s = times[n - 1];
  block.samples = static_cast<std::uint32_t>(n);
  BitWriter tw;
  encode_times(times, n, tw);
  block.time_bytes = tw.finish();
  block.time_bytes.shrink_to_fit();
  BitWriter vw;
  encode_values(values, n, vw);
  block.value_bytes = vw.finish();
  block.value_bytes.shrink_to_fit();
  blocks_.push_back(std::move(block));

  // The next block grows its columns from nothing; a sealed series holds
  // no open capacity.
  std::vector<double>().swap(open_times_);
  std::vector<double>().swap(open_values_);
}

ColumnSeries::LevelWindow ColumnSeries::effective_window(std::size_t level) const {
  // Closed form of the legacy per-append eviction: after every sample so
  // far (sealed and open alike) has passed through LevelBins::add, the
  // retained window is the trailing `retention_bins` ending at the newest
  // sample's bin, clamped to the first bin ever touched.
  const LevelBins& lvl = levels_[level];
  LevelWindow w;
  w.last = lvl.bin_index(last_time_s_);
  w.first = lvl.bin_index(first_time_s_);
  if (lvl.spec.retention_bins != 0) {
    const std::int64_t cutoff =
        w.last - static_cast<std::int64_t>(lvl.spec.retention_bins) + 1;
    w.first = std::max(w.first, cutoff);
  }
  return w;
}

template <typename Visit>
void ColumnSeries::for_each_bin(std::size_t level, double t0_s, double t1_s,
                                Visit&& visit) const {
  require(level < levels_.size(), "ColumnSeries: level out of range");
  check_band_window(levels_.front(), t0_s, t1_s);
  if (total_samples_ == 0) return;
  const LevelBins& lvl = levels_[level];
  const LevelWindow w = effective_window(level);
  const std::int64_t lo = std::max(lvl.bin_index(t0_s), w.first);
  const std::int64_t hi = std::min(lvl.bin_index(std::nextafter(t1_s, t0_s)), w.last);
  if (lo > hi) return;

  // Each bin's fold starts from the row's content (empty for a derived
  // level) and continues with the samples the row has not seen, in time
  // order — exactly the legacy cascade's per-bin left fold.
  std::int64_t bin = lo;
  Aggregate agg = lvl.at(bin);
  const auto advance_to = [&](std::int64_t next) {
    while (bin < next) {
      if (agg.count > 0) visit(bin, agg);
      ++bin;
      agg = lvl.at(bin);
    }
  };
  // Folds a time-ordered column run by run; false once a sample lies past
  // `hi`. Samples before bin `lo` are skipped by binary search, each bin's
  // run is found by a scan (LevelBins::run_end) and folded whole, and a run
  // that reaches the column's last bin — all of an open tail answered from
  // a coarse level, say — ends at the column's end without a scan.
  const auto fold = [&](const double* times, const double* values, std::size_t n) {
    if (n == 0) return true;
    const std::int64_t last = lvl.bin_index(times[n - 1]);
    if (last < lo) return true;
    std::size_t i = 0;
    std::int64_t b = lvl.bin_index(times[0]);
    if (b < lo) {
      i = static_cast<std::size_t>(
          std::partition_point(times, times + n,
                               [&](double t) { return lvl.bin_index(t) < lo; }) -
          times);
      b = lvl.bin_index(times[i]);
    }
    while (b <= hi) {
      const std::size_t end = b == last ? n : lvl.run_end(times, i, n, b);
      advance_to(b);
      agg.add_run(values + i, end - i);
      if (end == n) return true;
      i = end;
      b = lvl.bin_index(times[i]);
    }
    return false;
  };

  bool more = true;
  if (!keeps_stored_row(lvl.spec)) {
    // Derived level: decode the sealed blocks overlapping [lo, hi].
    auto it = std::partition_point(
        blocks_.begin(), blocks_.end(),
        [&](const SealedBlock& block) { return lvl.bin_index(block.last_time_s) < lo; });
    std::vector<double> times, values;
    for (; more && it != blocks_.end() && lvl.bin_index(it->first_time_s) <= hi; ++it) {
      it->decode(times, values);
      more = fold(times.data(), values.data(), it->samples);
    }
  }
  if (more) fold(open_times_.data(), open_values_.data(), open_times_.size());
  advance_to(hi + 1);
}

Aggregate ColumnSeries::range_at_level(std::size_t level, double t0_s, double t1_s) const {
  Aggregate out;
  for_each_bin(level, t0_s, t1_s,
               [&](std::int64_t, const Aggregate& agg) { out.merge(agg); });
  return out;
}

Aggregate ColumnSeries::range(double t0_s, double t1_s) const {
  check_band_window(levels_.front(), t0_s, t1_s);
  if (total_samples_ == 0) return {};
  // Finest level whose retained window still reaches back to t0_s — the
  // legacy selection rule, with the window in closed form.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const double retained_start = static_cast<double>(effective_window(l).first) *
                                  levels_[l].spec.resolution_s;
    if (retained_start <= t0_s + 1e-9) return range_at_level(l, t0_s, t1_s);
  }
  return range_at_level(levels_.size() - 1, t0_s, t1_s);
}

MultiScaleSeries::BinnedMeans ColumnSeries::means_at_level(std::size_t level,
                                                           double t0_s,
                                                           double t1_s) const {
  MultiScaleSeries::BinnedMeans out;
  for_each_bin(level, t0_s, t1_s, [&](std::int64_t bin, const Aggregate& agg) {
    out.times_s.push_back(static_cast<double>(bin) * levels_[level].spec.resolution_s);
    out.means.push_back(agg.mean());
  });
  return out;
}

Aggregate ColumnSeries::raw_range(double t0_s, double t1_s) const {
  require(t1_s >= t0_s, "ColumnSeries: inverted range");
  Aggregate out;
  // Times are sorted, so a column's samples in [t0, t1) are one run.
  const auto fold = [&](const double* times, const double* values, std::size_t n) {
    const double* begin = std::lower_bound(times, times + n, t0_s);
    const double* end = std::lower_bound(begin, times + n, t1_s);
    out.add_run(values + (begin - times), static_cast<std::size_t>(end - begin));
  };
  auto it = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [&](const SealedBlock& block) { return block.last_time_s < t0_s; });
  std::vector<double> times, values;
  for (; it != blocks_.end() && it->first_time_s < t1_s; ++it) {
    it->decode(times, values);
    fold(times.data(), values.data(), it->samples);
  }
  fold(open_times_.data(), open_values_.data(), open_times_.size());
  return out;
}

std::size_t ColumnSeries::memory_bytes() const {
  std::size_t bytes = sizeof(ColumnSeries) + levels_.capacity() * sizeof(LevelBins) +
                      blocks_.capacity() * sizeof(SealedBlock) +
                      (open_times_.capacity() + open_values_.capacity()) * sizeof(double) +
                      events_.capacity() * sizeof(AnomalyEvent);
  for (const SealedBlock& block : blocks_) {
    bytes += block.time_bytes.capacity() + block.value_bytes.capacity();
  }
  for (const LevelBins& lvl : levels_) bytes += lvl.bins.capacity() * sizeof(Aggregate);
  return bytes;
}

std::size_t ColumnSeries::compressed_payload_bytes() const {
  std::size_t bytes = 0;
  for (const SealedBlock& block : blocks_) bytes += block.payload_bytes();
  return bytes;
}

}  // namespace epm::telemetry
