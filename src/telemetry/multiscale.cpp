#include "telemetry/multiscale.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::telemetry {

namespace {

/// Grows `lvl.bins` (padding with empties) so `bin` is addressable, and
/// returns its dense index. Requires bin >= the last touched bin.
std::size_t reserve_bin(LevelBins& lvl, std::int64_t bin) {
  if (lvl.bins.empty()) {
    lvl.first_bin = bin;
    lvl.bins.emplace_back();
  } else {
    const std::int64_t last =
        lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1;
    ensure(bin >= last, "LevelBins: time went backwards within a level");
    for (std::int64_t b = last; b < bin; ++b) lvl.bins.emplace_back();
  }
  return static_cast<std::size_t>(bin - lvl.first_bin);
}

}  // namespace

void check_band_window(const LevelBins& finest, double t0_s, double t1_s) {
  const double limit = max_binnable_time_s(finest);
  require(std::abs(t0_s) <= limit && std::abs(t1_s) <= limit,
          "band query: bounds must be finite and within the bin range");
  require(t1_s >= t0_s, "band query: inverted range");
}

void LevelBins::add(double time_s, double value) {
  const std::size_t idx = reserve_bin(*this, bin_index(time_s));
  bins[idx].add(value);
  evict();
}

void LevelBins::add_column(const double* times_s, const double* values,
                           std::size_t n) {
  if (n > 0) {
    // A block inside one bin (a sealed block at the hourly and daily levels,
    // say) is one bin test and one run fold.
    const std::int64_t last = bin_index(times_s[n - 1]);
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t bin = bin_index(times_s[i]);
      const std::size_t end = bin == last ? n : run_end(times_s, i, n, bin);
      // The run continues the bin's existing content in sample order, so
      // every bit of the sum matches the one-at-a-time path.
      bins[reserve_bin(*this, bin)].add_run(values + i, end - i);
      i = end;
    }
  }
  evict();
}

void LevelBins::evict() {
  // One front erase per call: the columnar store evicts once per sealed
  // block; the legacy cascade, a reference only, once per new bin.
  if (spec.retention_bins == 0 || bins.size() <= spec.retention_bins) return;
  const std::size_t excess = bins.size() - spec.retention_bins;
  bins.erase(bins.begin(), bins.begin() + static_cast<std::ptrdiff_t>(excess));
  first_bin += static_cast<std::int64_t>(excess);
}

std::vector<LevelBins> make_level_bins(const MultiScaleConfig& config) {
  require(!config.levels.empty(), "MultiScaleSeries: need at least one level");
  std::vector<LevelBins> levels;
  double prev = 0.0;
  for (const auto& spec : config.levels) {
    require(spec.resolution_s > 0.0, "MultiScaleSeries: resolution must be positive");
    if (prev > 0.0) {
      const double ratio = spec.resolution_s / prev;
      require(std::abs(ratio - std::round(ratio)) < 1e-9 && ratio >= 2.0 - 1e-9,
              "MultiScaleSeries: each level must be an integer (>1) multiple of "
              "the previous");
    }
    prev = spec.resolution_s;
    levels.push_back(LevelBins{spec, 0, {}});
  }
  return levels;
}

MultiScaleSeries::MultiScaleSeries(MultiScaleConfig config)
    : levels_(make_level_bins(config)) {}

void MultiScaleSeries::append(double time_s, double value) {
  require(time_s >= 0.0 && time_s <= max_binnable_time_s(levels_.front()),
          "MultiScaleSeries: time must be finite, non-negative and within the bin "
          "range");
  require(time_s >= last_time_s_, "MultiScaleSeries: timestamps must be non-decreasing");
  last_time_s_ = time_s;
  ++total_samples_;
  // Cascade: every level receives every sample; each keeps its own binning.
  // (O(levels) per append; levels is a small constant.)
  for (auto& lvl : levels_) lvl.add(time_s, value);
}

double MultiScaleSeries::level_resolution_s(std::size_t level) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  return levels_[level].spec.resolution_s;
}

std::size_t MultiScaleSeries::level_bins(std::size_t level) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  return levels_[level].bins.size();
}

Aggregate MultiScaleSeries::range_at_level(std::size_t level, double t0_s,
                                           double t1_s) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  check_band_window(levels_.front(), t0_s, t1_s);
  const LevelBins& lvl = levels_[level];
  Aggregate out;
  if (lvl.bins.empty()) return out;
  const std::int64_t lo = std::max(lvl.bin_index(t0_s), lvl.first_bin);
  const std::int64_t hi_bin = lvl.bin_index(std::nextafter(t1_s, t0_s));
  const std::int64_t hi =
      std::min(hi_bin, lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1);
  for (std::int64_t b = lo; b <= hi; ++b) {
    out.merge(lvl.bins[static_cast<std::size_t>(b - lvl.first_bin)]);
  }
  return out;
}

Aggregate MultiScaleSeries::range(double t0_s, double t1_s) const {
  // Finest level whose retained window still reaches back to t0_s wins.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const LevelBins& lvl = levels_[l];
    if (lvl.bins.empty()) continue;
    const double retained_start =
        static_cast<double>(lvl.first_bin) * lvl.spec.resolution_s;
    if (retained_start <= t0_s + 1e-9) return range_at_level(l, t0_s, t1_s);
  }
  // Nothing covers the start: answer from the coarsest level (best effort).
  return range_at_level(levels_.size() - 1, t0_s, t1_s);
}

MultiScaleSeries::BinnedMeans MultiScaleSeries::means_at_level(std::size_t level,
                                                               double t0_s,
                                                               double t1_s) const {
  require(level < levels_.size(), "MultiScaleSeries: level out of range");
  check_band_window(levels_.front(), t0_s, t1_s);
  const LevelBins& lvl = levels_[level];
  BinnedMeans out;
  if (lvl.bins.empty()) return out;
  const std::int64_t lo = std::max(lvl.bin_index(t0_s), lvl.first_bin);
  const std::int64_t hi =
      std::min(lvl.bin_index(std::nextafter(t1_s, t0_s)),
               lvl.first_bin + static_cast<std::int64_t>(lvl.bins.size()) - 1);
  for (std::int64_t b = lo; b <= hi; ++b) {
    const Aggregate& agg = lvl.bins[static_cast<std::size_t>(b - lvl.first_bin)];
    if (agg.count == 0) continue;
    out.times_s.push_back(static_cast<double>(b) * lvl.spec.resolution_s);
    out.means.push_back(agg.mean());
  }
  return out;
}

std::size_t MultiScaleSeries::memory_bytes() const {
  std::size_t bins = 0;
  for (const auto& lvl : levels_) bins += lvl.bins.size();
  return bins * sizeof(Aggregate);
}

}  // namespace epm::telemetry
