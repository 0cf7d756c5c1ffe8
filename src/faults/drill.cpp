#include "faults/drill.h"

#include <cmath>

#include "core/require.h"
#include "core/rng.h"

namespace epm::faults {

sim::ShardedConfig uniform_federation(std::size_t shards, std::size_t threads,
                                      double lookahead_s) {
  sim::ShardedConfig sc;
  sc.shards = shards;
  sc.threads = threads;
  sc.uniform_lookahead_s = lookahead_s;
  return sc;
}

double epoch_uniform(std::uint64_t seed, std::uint64_t dc, std::uint64_t ctr) {
  const std::uint64_t z = SplitMix64::mix(
      seed + 0x9e3779b97f4a7c15ULL * (dc * 1000003ULL + ctr + 1));
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

TaggedShards::TaggedShards(sim::ShardedSimulator& fed) : fed_(fed) {
  for (std::size_t s = 0; s < fed.shard_count(); ++s) {
    kernels_.push_back(std::make_unique<sim::TaggedKernel>(fed.shard(s)));
  }
  fed.set_tagged_delivery([this](std::size_t dst, double when_s,
                                 std::uint64_t tag,
                                 const std::vector<std::uint64_t>& payload) {
    kernels_[dst]->schedule_tagged_at(when_s, tag, payload);
  });
}

void TaggedShards::save(sim::SnapshotWriter& w) const {
  for (const auto& k : kernels_) k->save(w);
  fed_.save_state(w);
}

void TaggedShards::restore(sim::SnapshotReader& r) {
  for (const auto& k : kernels_) k->restore(r);
  fed_.restore_state(r);
}

std::vector<SweepPoint> sweep_grid(const std::vector<std::uint64_t>& seeds,
                                   const std::vector<std::size_t>& shards,
                                   const std::vector<std::size_t>& threads) {
  std::vector<SweepPoint> points;
  points.reserve(seeds.size() * shards.size() * threads.size());
  for (const std::uint64_t seed : seeds) {
    for (const std::size_t s : shards) {
      for (const std::size_t t : threads) points.push_back({seed, s, t});
    }
  }
  return points;
}

namespace {

/// Mean of series[end - window, end), clamped at 0; 0 for an empty range.
double window_mean(const std::vector<double>& series, std::size_t end,
                   std::size_t window) {
  const std::size_t lo = end > window ? end - window : 0;
  if (end <= lo) return 0.0;
  double sum = 0.0;
  for (std::size_t i = lo; i < end; ++i) sum += series[i];
  return sum / static_cast<double>(end - lo);
}

}  // namespace

RecoveryScan scan_recovery(const RecoveryCriteria& c,
                           const std::vector<double>& offered_rps,
                           const std::vector<double>& goodput_rps,
                           const std::vector<double>& failure_rps) {
  const std::size_t epochs = goodput_rps.size();
  require(offered_rps.size() == epochs && failure_rps.size() == epochs,
          "scan_recovery: rate series lengths differ");
  require(c.fault_epoch <= epochs, "scan_recovery: fault epoch past the run");
  RecoveryScan scan;
  scan.prefault_goodput_rps = window_mean(
      goodput_rps, c.fault_epoch, c.fault_epoch - c.fault_epoch / 2);
  const double sla_rps = c.sla_fraction * scan.prefault_goodput_rps;
  const double fail_budget_rps =
      (1.0 - c.sla_fraction) * scan.prefault_goodput_rps;

  const std::size_t clear_epoch = std::min(
      epochs, checked_count(std::ceil(c.clear_s / c.epoch_s),
                            "recovery scan: clear / epoch"));
  std::size_t healthy_run = 0;
  for (std::size_t e = clear_epoch; e < epochs && !scan.recovered; ++e) {
    const bool healthy =
        goodput_rps[e] >= sla_rps && failure_rps[e] <= fail_budget_rps;
    healthy_run = healthy ? healthy_run + 1 : 0;
    if (healthy_run >= c.window) {
      scan.recovered = true;
      scan.recovery_s = static_cast<double>(e + 1) * c.epoch_s - c.clear_s;
    }
  }
  scan.end_offered_rps = window_mean(offered_rps, epochs, c.window);
  scan.end_goodput_rps = window_mean(goodput_rps, epochs, c.window);
  return scan;
}

double recovery_ratio(double prefault, double end) {
  return prefault > 0.0 ? end / prefault : 0.0;
}

}  // namespace epm::faults
