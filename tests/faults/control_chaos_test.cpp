// The control-plane chaos harness end-to-end: clean no-fault runs, the
// kill-the-leader drill (defended vs naive, with and without a WAN
// partition), the split-brain drill, grid-script controller kills, and
// mid-failover save/restore bit-identity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "faults/control_chaos.h"
#include "network/interdc_link.h"

namespace epm::faults {
namespace {

ControlChaosConfig base_config() {
  ControlChaosConfig config;
  config.dcs = 4;
  config.seed = 7;
  return config;
}

TEST(ControlChaos, NoFaultRunIsCleanAndOnlyTheSeedLeaderActs) {
  const ControlChaosOutcome out = run_control_plane(base_config());
  EXPECT_EQ(0U, out.total_sla_violations) << out.report;
  EXPECT_EQ(0U, out.total_alarms) << out.report;
  EXPECT_TRUE(out.lease_unique_ok);
  EXPECT_TRUE(out.fencing_clean);
  EXPECT_TRUE(out.conservation_ok) << out.report;
  EXPECT_DOUBLE_EQ(42.0, out.final_now_s);
  EXPECT_GT(out.control_messages, 0U);
  ASSERT_EQ(4U, out.replicas.size());
  // Replica 0 holds its seeded lease the whole run; nobody else claims.
  EXPECT_EQ(1U, out.replicas[0].claims);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_TRUE(out.replicas[r].hosted);
    EXPECT_EQ(0U, out.replicas[r].claims);
    EXPECT_EQ(0U, out.replicas[r].depositions);
  }
  for (const ControlDcOutcome& dc : out.dcs) {
    EXPECT_GT(dc.epochs, 0U);
    EXPECT_GT(dc.commands_applied, 0U);  // the eco program reached every DC
    EXPECT_EQ(0U, dc.safe_state_trips);
    EXPECT_EQ(0U, dc.double_actuations);
    EXPECT_GT(dc.heartbeats_seen, 0U);
  }
  // Every replica converges on the same journal: all 24 program steps.
  for (const ControlReplicaOutcome& r : out.replicas) {
    EXPECT_EQ(24U, r.journal_entries);
  }
}

TEST(ControlChaos, OutcomeIsBitIdenticalAcrossShardAndThreadCounts) {
  // Serial one-shard reference first, then the sharded grid.
  std::vector<SweepPoint> points = sweep_grid({7}, {2, 4}, {1, 2, 8});
  points.insert(points.begin(), {7, 1, 1});
  const SweepReport sweep = sweep_control_plane(base_config(), points);
  EXPECT_EQ(7U, sweep.runs);
  EXPECT_TRUE(sweep.ok) << "shards=" << sweep.failed.shards
                        << " threads=" << sweep.failed.threads;
}

TEST(ControlChaos, SweepNamesTheFirstDivergentPoint) {
  // A seed change is a different world: listed under the reference's seed
  // it must fail the sweep, at exactly that point.
  const ControlChaosConfig base = base_config();
  const ControlChaosOutcome reference = run_control_plane(base);
  ControlChaosConfig reseeded = base;
  reseeded.seed = 8;
  const ControlChaosOutcome other = run_control_plane(reseeded);
  ASSERT_FALSE(reference == other);
  const SweepReport sweep = sweep_conformance(
      std::vector<SweepPoint>{{7, 1, 1}, {7, 2, 1}, {7, 4, 2}, {7, 2, 2}},
      [&](const SweepPoint& p) {
        return p.shards == 4 ? other : reference;
      });
  EXPECT_FALSE(sweep.ok);
  EXPECT_EQ(4U, sweep.runs);
  EXPECT_EQ(4U, sweep.failed.shards);
  EXPECT_EQ(2U, sweep.failed.threads);
}

TEST(ControlChaos, LeaderKillGateDefendedSurvivesNaiveViolates) {
  const ControlLeaderKillReport rep =
      run_leader_kill_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7,
                            /*with_partition=*/false);
  EXPECT_TRUE(rep.defended_clean)
      << "defended: " << rep.defended.report;
  EXPECT_TRUE(rep.naive_violates) << "naive: " << rep.naive.report;
  EXPECT_TRUE(rep.gate_ok);

  // Defended: replica 1 (shortest staggered TTL) takes over exactly once
  // and resumes the half-issued eco exit.
  EXPECT_EQ(1U, rep.defended.replicas[1].claims);
  EXPECT_GT(rep.defended.replicas[1].commands_replayed, 0U);
  EXPECT_GT(rep.defended.replicas[1].commands_issued, 0U);
  EXPECT_EQ(1U, rep.defended.replicas[0].crashes);
  // The replay was suppressed by uid where already applied — rejections on
  // the actuator ledgers, zero double actuations anywhere.
  std::uint64_t rejections = 0;
  for (const ControlDcOutcome& dc : rep.defended.dcs) {
    rejections += dc.fencing_rejections;
    EXPECT_EQ(0U, dc.double_actuations);
  }
  EXPECT_GT(rejections, 0U);

  // Naive: the dead controller strands the unreached DCs in eco mode.
  EXPECT_LT(rep.naive.fleet_end_frac, 0.9);
  EXPECT_GT(rep.naive.total_sla_violations, 0U);
  EXPECT_GT(rep.naive.total_alarms, 0U);
}

TEST(ControlChaos, LeaderKillGateHoldsAtOtherFleetSizes) {
  for (const std::size_t dcs : {3U, 6U}) {
    const ControlLeaderKillReport rep =
        run_leader_kill_drill(dcs, /*threads=*/2, /*seed=*/11,
                              /*with_partition=*/false);
    EXPECT_TRUE(rep.gate_ok)
        << "dcs=" << dcs << "\ndefended: " << rep.defended.report
        << "\nnaive: " << rep.naive.report;
  }
}

TEST(ControlChaos, PartitionedDcFallsBackToSafeStateBeforeTheRamp) {
  const ControlLeaderKillReport rep =
      run_leader_kill_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7,
                            /*with_partition=*/true);
  EXPECT_TRUE(rep.gate_ok)
      << "defended: " << rep.defended.report
      << "\nnaive: " << rep.naive.report;
  // DC 0 was cut off from the new leader through the failover window: its
  // dead-man's switch must have tripped it to safe defaults.
  EXPECT_GE(rep.defended.dcs[0].safe_state_trips, 1U);
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_EQ(0U, rep.defended.dcs[d].safe_state_trips);
  }
}

TEST(ControlChaos, SplitBrainActuationsAreFencedAndTheImposterDeposed) {
  const ControlSplitBrainReport rep =
      run_split_brain_drill(/*dcs=*/4, /*threads=*/2, /*seed=*/7);
  EXPECT_TRUE(rep.passed) << rep.outcome.report;
  EXPECT_GT(rep.stale_fenced, 0U);
  EXPECT_EQ(0U, rep.double_actuations);
  EXPECT_TRUE(rep.stale_leader_deposed);
  // The woken leader's heartbeats were recognized as stale by its peers.
  std::uint64_t stale_heartbeats = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    stale_heartbeats += r.stale_heartbeats;
  }
  EXPECT_GT(stale_heartbeats, 0U);
  // Second rejection layer: its journal replications were fenced too.
  std::uint64_t journal_rejections = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    journal_rejections += r.journal_rejected_stale;
  }
  EXPECT_GT(journal_rejections, 0U);
  // And the fleet stayed clean throughout.
  EXPECT_EQ(0U, rep.outcome.total_sla_violations) << rep.outcome.report;
  EXPECT_EQ(0U, rep.outcome.total_alarms);
}

TEST(ControlChaos, GridScriptKillsCoLocatedControllersTogether) {
  ControlChaosConfig config = base_config();
  config.grid_script = make_reference_control_grid_script();
  const ControlChaosOutcome out = run_control_plane(config);
  // In the 4-DC reference fleet the americas region hosts pnw and virginia
  // (DCs 0-1): both controllers died with the grid event; the surviving
  // replica with the shortest staggered TTL (ireland, DC 2) took over.
  EXPECT_EQ(1U, out.replicas[0].crashes);
  EXPECT_EQ(1U, out.replicas[1].crashes);
  EXPECT_EQ(0U, out.replicas[2].crashes);
  EXPECT_EQ(0U, out.replicas[3].crashes);
  EXPECT_EQ(1U, out.replicas[2].claims);
  EXPECT_EQ(0U, out.replicas[3].claims);
  EXPECT_EQ(0U, out.total_sla_violations) << out.report;
  EXPECT_EQ(0U, out.total_alarms) << out.report;
  EXPECT_TRUE(out.lease_unique_ok);
  EXPECT_TRUE(out.fencing_clean);
  EXPECT_TRUE(out.conservation_ok);
}

TEST(ControlChaos, RestoredRunFinishesBitIdenticalThroughTheFailover) {
  ControlChaosConfig config = base_config();
  config.controller_faults = make_leader_kill_plan();
  // Snapshot after the kill but before the successor's claim (kill at
  // 13.25, claim at 16.0): the failover itself replays from the snapshot.
  const ControlRestoreReport rep =
      run_control_plane_with_restore(config, /*snapshot_at_s=*/14.0,
                                     /*kill_at_s=*/16.5);
  EXPECT_TRUE(rep.identical)
      << "uninterrupted: " << rep.uninterrupted.report
      << "\nrestored: " << rep.restored.report;
  EXPECT_GT(rep.snapshot_bytes, 0U);
  EXPECT_EQ(1U, rep.restored.replicas[1].claims);
}

TEST(ControlChaos, RejectsMalformedConfigurations) {
  ControlChaosConfig bad = base_config();
  bad.shards = 3;  // does not divide 4
  EXPECT_THROW(run_control_plane(bad), std::invalid_argument);

  ControlChaosConfig wrong_fault = base_config();
  wrong_fault.controller_faults = "crash:0@5+1";  // a server fault, not ctl-*
  EXPECT_THROW(run_control_plane(wrong_fault), std::invalid_argument);

  ControlChaosConfig out_of_range = base_config();
  out_of_range.controller_faults = "ctl-crash:9@5+1";  // only 4 replicas
  EXPECT_THROW(run_control_plane(out_of_range), std::invalid_argument);

  // A link plan with mismatched sharding is rejected up front.
  ControlChaosConfig two_shards = base_config();
  two_shards.shards = 2;
  network::InterDcLinkPlan plan(4);
  EXPECT_THROW(run_control_plane(two_shards, &plan), std::invalid_argument);

  EXPECT_THROW(run_leader_kill_drill(2, 1, 1, false), std::invalid_argument);
}

}  // namespace
}  // namespace epm::faults
