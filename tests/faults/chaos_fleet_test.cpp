// The chaos harness end-to-end: plain-run conservation, kill-and-restore
// bit-identity (serial and threaded), the partition zero-loss drill, and
// the defended-vs-naive recovery gate under a correlated regional event.
#include <gtest/gtest.h>

#include <stdexcept>

#include "faults/chaos_fleet.h"
#include "network/interdc_link.h"

namespace epm::faults {
namespace {

ChaosFleetConfig small_config() {
  ChaosFleetConfig config;
  config.dcs = 3;
  config.epoch_s = 0.5;
  config.drive_until_s = 20.0;
  config.horizon_s = 30.0;
  config.arrival_rate_rps = 120.0;
  config.seed = 5;
  return config;
}

TEST(ChaosFleet, PlainRunConservesItemsAndKeepsFifo) {
  const ChaosFleetOutcome out = run_chaos_fleet(small_config());
  EXPECT_TRUE(out.fifo_ok);
  EXPECT_TRUE(out.conservation_ok) << out.conservation_report;
  EXPECT_DOUBLE_EQ(30.0, out.final_now_s);
  EXPECT_EQ(0U, out.messages_parked_end);
  EXPECT_EQ(0U, out.messages_redelivered);
  EXPECT_GT(out.messages_sent, 0U);
  std::uint64_t generated = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t received = 0;
  for (const ChaosDcOutcome& dc : out.dcs) {
    EXPECT_GT(dc.generated, 0U);
    EXPECT_GT(dc.epochs, 0U);
    generated += dc.generated;
    forwarded += dc.forwarded_items;
    received += dc.received_items;
  }
  EXPECT_GT(generated, 0U);
  EXPECT_EQ(forwarded, received);
}

TEST(ChaosFleet, RunsAreDeterministicAcrossThreadCounts) {
  ChaosFleetConfig serial = small_config();
  ChaosFleetConfig threaded = small_config();
  threaded.threads = 3;
  const ChaosFleetOutcome a = run_chaos_fleet(serial);
  const ChaosFleetOutcome b = run_chaos_fleet(threaded);
  EXPECT_TRUE(a == b);
  // A different seed is a different run — the equality check has teeth.
  ChaosFleetConfig reseeded = small_config();
  reseeded.seed = 6;
  EXPECT_FALSE(a == run_chaos_fleet(reseeded));
}

TEST(ChaosFleet, KillAndRestoreContinuationIsBitIdentical) {
  const ChaosRestoreReport r =
      run_chaos_fleet_with_restore(small_config(), 10.0, 16.0);
  EXPECT_TRUE(r.identical);
  EXPECT_GT(r.snapshot_bytes, 0U);
  EXPECT_TRUE(r.uninterrupted == r.restored);
  EXPECT_TRUE(r.restored.conservation_ok)
      << r.restored.conservation_report;
}

TEST(ChaosFleet, KillAndRestoreHoldsUnderThreadedFederation) {
  ChaosFleetConfig config = small_config();
  config.threads = 3;
  const ChaosRestoreReport r =
      run_chaos_fleet_with_restore(config, 10.0, 16.0);
  EXPECT_TRUE(r.identical);
  // Snapshot at the kill point itself is the degenerate-but-legal case.
  const ChaosRestoreReport edge =
      run_chaos_fleet_with_restore(config, 12.0, 12.0);
  EXPECT_TRUE(edge.identical);
}

TEST(ChaosFleet, PartitionDrillParksHealsAndLosesNothing) {
  const ChaosPartitionReport r =
      run_chaos_partition_drill(small_config(), 8.0, 14.0, 16.0);
  EXPECT_TRUE(r.parked_seen);
  EXPECT_GT(r.parked_at_check, 0U);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.zero_loss);
  EXPECT_TRUE(r.fifo_ok);
  EXPECT_TRUE(r.passed);
  EXPECT_GE(r.redelivered, r.parked_at_check);
  EXPECT_TRUE(r.outcome.conservation_ok) << r.outcome.conservation_report;
  EXPECT_EQ(0U, r.outcome.messages_parked_end);
}

TEST(ChaosFleet, DegradedLinkPlanPreservesConservation) {
  ChaosFleetConfig config = small_config();
  network::InterDcLinkPlan plan(config.dcs);
  plan.slow(0, 1, 5.0, 12.0, 4.0);
  plan.lose(1, 2, 6.0, 15.0, 0.6);
  const ChaosFleetOutcome degraded = run_chaos_fleet(config, &plan);
  EXPECT_TRUE(degraded.fifo_ok);
  EXPECT_TRUE(degraded.conservation_ok) << degraded.conservation_report;
  EXPECT_GT(degraded.messages_redelivered, 0U);
  // Degradation delays but never destroys: same items end-to-end as the
  // pristine run of the same config.
  const ChaosFleetOutcome clean = run_chaos_fleet(config);
  std::uint64_t degraded_generated = 0;
  std::uint64_t clean_generated = 0;
  for (const ChaosDcOutcome& dc : degraded.dcs) degraded_generated += dc.generated;
  for (const ChaosDcOutcome& dc : clean.dcs) clean_generated += dc.generated;
  EXPECT_EQ(clean_generated, degraded_generated);
}

TEST(ChaosFleet, ConfigValidationFailsLoudly) {
  ChaosFleetConfig bad = small_config();
  bad.epoch_s = 0.0;
  EXPECT_THROW(run_chaos_fleet(bad), std::invalid_argument);
  bad = small_config();
  bad.drive_until_s = bad.horizon_s + 1.0;  // drive past the horizon
  EXPECT_THROW(run_chaos_fleet(bad), std::invalid_argument);
  bad = small_config();
  bad.forward_fraction = 1.5;
  EXPECT_THROW(run_chaos_fleet(bad), std::invalid_argument);
  // Restore drill bounds: 0 < snapshot <= kill < horizon.
  EXPECT_THROW(run_chaos_fleet_with_restore(small_config(), 0.0, 16.0),
               std::invalid_argument);
  EXPECT_THROW(run_chaos_fleet_with_restore(small_config(), 18.0, 16.0),
               std::invalid_argument);
  EXPECT_THROW(run_chaos_fleet_with_restore(small_config(), 10.0, 30.0),
               std::invalid_argument);
  // Plan size must match the fleet.
  network::InterDcLinkPlan wrong_size(5);
  EXPECT_THROW(run_chaos_fleet(small_config(), &wrong_size),
               std::invalid_argument);
}

TEST(ChaosRecovery, DefendedRecoversWhereNaiveDoesNot) {
  const ChaosRecoveryReport r = run_chaos_recovery(
      4, /*clients_per_dc=*/2000, /*seed=*/42, make_reference_grid_script());
  EXPECT_TRUE(r.gate_ok);
  EXPECT_TRUE(r.defended.recovered);
  EXPECT_FALSE(r.naive.recovered);
  EXPECT_GE(r.defended.ratio, r.threshold);
  EXPECT_LT(r.naive.ratio, r.threshold);
  EXPECT_TRUE(r.defended.conservation_ok);
  EXPECT_TRUE(r.naive.conservation_ok);
  // The grid broadcasts actually reached the defended fleet.
  EXPECT_GT(r.defended.grid_signals, 0U);
}

TEST(ChaosRecovery, UnknownGridTargetsFailWithResolveDiagnostic) {
  try {
    run_chaos_recovery(4, 500, 42, "outage:region/nowhere@32+16");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("unknown region 'nowhere'"));
    EXPECT_NE(std::string::npos, message.find("americas"));
  }
  EXPECT_THROW(chaos_grid_disruptions(4, 42, "outage:region/nowhere@32+16"),
               std::invalid_argument);
  EXPECT_FALSE(chaos_grid_disruptions(4, 42, make_reference_grid_script()).empty());
}

}  // namespace
}  // namespace epm::faults
