// Property suite for the survivable control plane (ISSUE 9 satellite):
//
//   * at most one live lease per epoch — every claimed token fleet-wide is
//     unique and congruent to its claimant, across 3 seeds x shards
//     {1, 2, 4} x threads {1, 2, 8}, under leader death AND split-brain;
//   * a deposed leader's journaled commands are rejected at both layers
//     (actuator ledger, peer journals) in every one of those runs;
//   * lease + journal + fencing state save/restore through sim/snapshot is
//     bit-identical mid-failover.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/control_chaos.h"

namespace epm::faults {
namespace {

const std::vector<std::uint64_t> kSeeds = {7, 101, 20260809};
const std::vector<std::size_t> kShardCounts = {1, 2, 4};
const std::vector<std::size_t> kThreadCounts = {1, 2, 8};

ControlChaosConfig config_for(std::uint64_t seed, std::size_t shards,
                              std::size_t threads) {
  ControlChaosConfig config;
  config.dcs = 4;
  config.seed = seed;
  config.shards = shards;
  config.threads = threads;
  return config;
}

TEST(ControlPlaneProperty, AtMostOneLiveLeasePerEpochUnderLeaderDeath) {
  // The sharding/threading grid must not only keep the property — it must
  // produce the exact same world.
  const SweepReport sweep = sweep_conformance(
      sweep_grid(kSeeds, kShardCounts, kThreadCounts),
      [](const SweepPoint& p) {
        ControlChaosConfig config = config_for(p.seed, p.shards, p.threads);
        config.controller_faults = make_leader_kill_plan();
        return run_control_plane(config);
      },
      [](const ControlChaosOutcome& out) {
        // Exactly one failover: the seed claim plus replica 1's takeover.
        return out.lease_unique_ok && out.fencing_clean &&
               out.conservation_ok && out.replicas[0].claims == 1 &&
               out.replicas[1].claims == 1 &&
               out.replicas[2].claims + out.replicas[3].claims == 0;
      });
  EXPECT_EQ(27U, sweep.runs);
  EXPECT_TRUE(sweep.ok) << "seed=" << sweep.failed.seed
                        << " shards=" << sweep.failed.shards
                        << " threads=" << sweep.failed.threads;
}

TEST(ControlPlaneProperty, DeposedLeaderCommandsRejectedAtBothLayers) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t shards : kShardCounts) {
      for (const std::size_t threads : kThreadCounts) {
        ControlChaosConfig config = config_for(seed, shards, threads);
        config.controller_faults = make_split_brain_plan();
        const ControlChaosOutcome out = run_control_plane(config);
        EXPECT_TRUE(out.lease_unique_ok) << out.report;

        // Layer 1: the actuator ledgers fenced the stale-token actuations.
        std::uint64_t stale_rejected = 0;
        std::uint64_t double_actuations = 0;
        for (const ControlDcOutcome& dc : out.dcs) {
          stale_rejected += dc.stale_rejected;
          double_actuations += dc.double_actuations;
        }
        EXPECT_GT(stale_rejected, 0U)
            << "seed=" << seed << " shards=" << shards
            << " threads=" << threads;
        EXPECT_EQ(0U, double_actuations);

        // Layer 2: the peers' journals rejected its replication records.
        std::uint64_t journal_rejections = 0;
        for (const ControlReplicaOutcome& r : out.replicas) {
          journal_rejections += r.journal_rejected_stale;
        }
        EXPECT_GT(journal_rejections, 0U);

        // And the imposter stepped down on first contact.
        EXPECT_GE(out.replicas[0].depositions, 1U);
      }
    }
  }
}

TEST(ControlPlaneProperty, LeaseAndJournalStateRestoreBitIdentical) {
  // Snapshot windows straddling the interesting edges: mid-transition
  // before the kill, between kill and claim, and mid-replay.
  const double kWindows[][2] = {{12.5, 13.0}, {14.0, 16.5}, {16.0, 17.5}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& window : kWindows) {
      ControlChaosConfig config = config_for(seed, /*shards=*/2,
                                             /*threads=*/2);
      config.controller_faults = make_leader_kill_plan();
      const ControlRestoreReport rep = run_control_plane_with_restore(
          config, /*snapshot_at_s=*/window[0], /*kill_at_s=*/window[1]);
      EXPECT_TRUE(rep.identical)
          << "seed=" << seed << " snapshot_at=" << window[0]
          << "\nuninterrupted: " << rep.uninterrupted.report
          << "\nrestored: " << rep.restored.report;
    }
  }
}

}  // namespace
}  // namespace epm::faults
