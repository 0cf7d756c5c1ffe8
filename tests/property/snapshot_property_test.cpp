// Property suite for deterministic checkpoint/restore (the robustness
// acceptance grid): for every (seed, shard count, thread count) combination
// the federated chaos world must (a) run bit-identically regardless of the
// worker-thread count and (b) survive a mid-run kill-and-restore with a
// bit-identical continuation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/chaos_fleet.h"

namespace epm::faults {
namespace {

const std::vector<std::uint64_t> kSeeds = {1, 17, 424242};
const std::vector<std::size_t> kShards = {1, 2, 4};
const std::vector<std::size_t> kThreads = {1, 2, 8};

ChaosFleetConfig grid_config(std::uint64_t seed, std::size_t shards,
                             std::size_t threads) {
  ChaosFleetConfig config;
  config.dcs = shards;
  config.threads = threads;
  config.epoch_s = 0.5;
  config.drive_until_s = 16.0;
  config.horizon_s = 24.0;
  config.arrival_rate_rps = 100.0;
  config.seed = seed;
  return config;
}

std::string label(std::uint64_t seed, std::size_t shards,
                  std::size_t threads) {
  return "seed=" + std::to_string(seed) +
         " shards=" + std::to_string(shards) +
         " threads=" + std::to_string(threads);
}

TEST(SnapshotProperty, OutcomesAreThreadCountInvariant) {
  // Each shard count is its own world (dcs == shards); within it every
  // seed's serial run is the reference for its threaded runs.
  for (const std::size_t shards : kShards) {
    const SweepReport sweep = sweep_conformance(
        sweep_grid(kSeeds, {shards}, kThreads),
        [](const SweepPoint& p) {
          return run_chaos_fleet(grid_config(p.seed, p.shards, p.threads));
        },
        [](const ChaosFleetOutcome& o) { return o.conservation_ok; });
    EXPECT_EQ(kSeeds.size() * kThreads.size(), sweep.runs);
    EXPECT_TRUE(sweep.ok) << label(sweep.failed.seed, sweep.failed.shards,
                                   sweep.failed.threads)
                          << " diverged from the serial run";
  }
}

TEST(SnapshotProperty, KillAndRestoreIsBitIdenticalAcrossTheGrid) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t shards : kShards) {
      for (const std::size_t threads : kThreads) {
        const ChaosRestoreReport r = run_chaos_fleet_with_restore(
            grid_config(seed, shards, threads), /*snapshot_at_s=*/8.0,
            /*kill_at_s=*/12.0);
        EXPECT_TRUE(r.identical) << label(seed, shards, threads);
        EXPECT_TRUE(r.uninterrupted == r.restored)
            << label(seed, shards, threads);
        EXPECT_GT(r.snapshot_bytes, 0U) << label(seed, shards, threads);
        EXPECT_TRUE(r.restored.conservation_ok)
            << label(seed, shards, threads) << ": "
            << r.restored.conservation_report;
      }
    }
  }
}

TEST(SnapshotProperty, SnapshotsAreSeedSensitive) {
  // Restore does not launder determinism: different seeds stay different
  // runs even through the snapshot path.
  const ChaosRestoreReport a =
      run_chaos_fleet_with_restore(grid_config(1, 2, 1), 8.0, 12.0);
  const ChaosRestoreReport b =
      run_chaos_fleet_with_restore(grid_config(17, 2, 1), 8.0, 12.0);
  EXPECT_TRUE(a.identical);
  EXPECT_TRUE(b.identical);
  EXPECT_FALSE(a.restored == b.restored);
}

}  // namespace
}  // namespace epm::faults
