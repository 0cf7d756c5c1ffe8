// The shared drill driver (faults/drill.h) on its own: the recovery scan
// over hand-built rate series, the conformance sweep over stand-in worlds,
// and the kill-and-restore drill over a minimal snapshot-capable world —
// including one that forgets part of its state, which the drill must catch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "faults/drill.h"

namespace epm::faults {
namespace {

// ---------------------------------------------------------------------------
// Recovery scan
// ---------------------------------------------------------------------------

RecoveryCriteria criteria(double clear_s, std::size_t window) {
  RecoveryCriteria c;
  c.epoch_s = 1.0;
  c.fault_epoch = 8;
  c.clear_s = clear_s;
  c.sla_fraction = 0.9;
  c.window = window;
  return c;
}

TEST(DrillRecovery, ScanFindsTheFirstHealthyWindowAfterTheClear) {
  // Pre-fault basis: mean of epochs [4, 8) = 100. Healthy from the clear
  // (epoch 10) except a relapse at 12; three healthy epochs 13-15 recover.
  std::vector<double> goodput(20, 100.0);
  goodput[0] = goodput[1] = 40.0;  // outside the basis window: ignored
  for (std::size_t e = 8; e < 10; ++e) goodput[e] = 0.0;
  goodput[12] = 50.0;
  const std::vector<double> offered(20, 120.0);
  const std::vector<double> failure(20, 0.0);
  const RecoveryScan scan =
      scan_recovery(criteria(10.0, 3), offered, goodput, failure);
  EXPECT_DOUBLE_EQ(100.0, scan.prefault_goodput_rps);
  EXPECT_TRUE(scan.recovered);
  EXPECT_DOUBLE_EQ(6.0, scan.recovery_s);  // end of epoch 15 minus the clear
  EXPECT_DOUBLE_EQ(120.0, scan.end_offered_rps);
  EXPECT_DOUBLE_EQ(100.0, scan.end_goodput_rps);
}

TEST(DrillRecovery, FailureBudgetBlocksRecovery) {
  // Goodput is back, but failures stay above 10% of the basis.
  const std::vector<double> goodput(20, 100.0);
  const std::vector<double> offered(20, 130.0);
  std::vector<double> failure(20, 0.0);
  for (std::size_t e = 10; e < 20; ++e) failure[e] = 11.0;
  const RecoveryScan scan =
      scan_recovery(criteria(10.0, 2), offered, goodput, failure);
  EXPECT_FALSE(scan.recovered);
  EXPECT_EQ(0.0, scan.recovery_s);
  // One tolerable epoch at the end is not a window of two.
  failure[19] = 9.0;
  EXPECT_FALSE(scan_recovery(criteria(10.0, 2), offered, goodput, failure)
                   .recovered);
  failure[18] = 9.0;
  EXPECT_TRUE(scan_recovery(criteria(10.0, 2), offered, goodput, failure)
                  .recovered);
}

TEST(DrillRecovery, ClearPastTheHorizonNeverRecoversAndEndMeansClamp) {
  const std::vector<double> goodput(12, 100.0);
  const std::vector<double> flat(12, 0.0);
  const RecoveryScan scan =
      scan_recovery(criteria(30.0, 20), flat, goodput, flat);
  EXPECT_FALSE(scan.recovered);
  // A trailing window longer than the run averages the whole run.
  EXPECT_DOUBLE_EQ(100.0, scan.end_goodput_rps);
  // An empty run has no basis and no end means.
  const std::vector<double> none;
  RecoveryCriteria empty = criteria(0.0, 3);
  empty.fault_epoch = 0;
  const RecoveryScan nothing = scan_recovery(empty, none, none, none);
  EXPECT_EQ(0.0, nothing.prefault_goodput_rps);
  EXPECT_EQ(0.0, nothing.end_goodput_rps);
  EXPECT_FALSE(nothing.recovered);
}

TEST(DrillRecovery, RejectsMismatchedSeries) {
  const std::vector<double> a(10, 1.0);
  const std::vector<double> b(9, 1.0);
  EXPECT_THROW(scan_recovery(criteria(9.0, 1), a, b, a), std::invalid_argument);
  EXPECT_THROW(scan_recovery(criteria(9.0, 1), a, a, b), std::invalid_argument);
}

TEST(DrillRecovery, RatioNeedsAPositiveBasis) {
  EXPECT_EQ(0.0, recovery_ratio(0.0, 50.0));
  EXPECT_EQ(0.0, recovery_ratio(-1.0, 50.0));
  EXPECT_DOUBLE_EQ(0.5, recovery_ratio(100.0, 50.0));
}

// ---------------------------------------------------------------------------
// Conformance sweep
// ---------------------------------------------------------------------------

TEST(DrillSweep, GridIsSeedMajorThenShardsThenThreads) {
  const std::vector<SweepPoint> grid = sweep_grid({3, 4}, {1, 2}, {1, 8});
  ASSERT_EQ(8U, grid.size());
  EXPECT_EQ(3U, grid[0].seed);
  EXPECT_EQ(1U, grid[0].shards);
  EXPECT_EQ(1U, grid[0].threads);
  EXPECT_EQ(8U, grid[1].threads);
  EXPECT_EQ(2U, grid[2].shards);
  EXPECT_EQ(4U, grid[4].seed);
  EXPECT_EQ(8U, grid[7].threads);
}

TEST(DrillSweep, EverySeedIsComparedWithItsOwnFirstPoint) {
  // A world whose outcome depends only on the seed: conformant everywhere,
  // even though different seeds produce different outcomes.
  const SweepReport ok = sweep_conformance(
      sweep_grid({1, 2, 3}, {1, 2, 4}, {1, 2}),
      [](const SweepPoint& p) { return p.seed * 10; });
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(18U, ok.runs);

  // Seeds interleaved in the list still find their own reference.
  const SweepReport interleaved = sweep_conformance(
      std::vector<SweepPoint>{{1, 1, 1}, {2, 1, 1}, {1, 2, 2}, {2, 4, 8}},
      [](const SweepPoint& p) { return p.seed * 10; });
  EXPECT_TRUE(interleaved.ok);
}

TEST(DrillSweep, ReportsTheFirstFailingPointAndKeepsRunning) {
  // Outcome leaks the thread count above 2 threads: the first such point is
  // reported, and the sweep still runs every point.
  const SweepReport rep = sweep_conformance(
      sweep_grid({5}, {1, 2}, {1, 4, 8}), [](const SweepPoint& p) {
        return p.threads > 2 ? p.threads : std::size_t{0};
      });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(6U, rep.runs);
  EXPECT_EQ(5U, rep.failed.seed);
  EXPECT_EQ(1U, rep.failed.shards);
  EXPECT_EQ(4U, rep.failed.threads);
}

TEST(DrillSweep, TheWorldCheckAppliesToReferencesToo) {
  const SweepReport rep = sweep_conformance(
      sweep_grid({9}, {1, 2}, {1}), [](const SweepPoint&) { return 1; },
      [](int) { return false; });
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(1U, rep.failed.shards);  // the reference itself failed
}

// ---------------------------------------------------------------------------
// Kill-and-restore over a minimal drill world
// ---------------------------------------------------------------------------

struct TickConfig {
  std::size_t shards = 3;
  double period_s = 0.25;
  double until_s = 5.0;
  /// Deliberately broken restore: the received counters are read but not
  /// applied, so the continuation must diverge.
  bool forget_received = false;
};

struct TickOutcome {
  std::vector<std::uint64_t> ticks;
  std::vector<std::uint64_t> received;
  double now_s = 0.0;
  bool operator==(const TickOutcome&) const = default;
};

/// Every shard ticks periodically and sends its tick count to the next
/// shard as a tagged message; receivers sum what they get.
class TickWorld {
 public:
  TickWorld(const TickConfig& config, sim::ShardedSimulator& fed)
      : config_(config),
        fed_(fed),
        ticks_(config.shards, 0),
        received_(config.shards, 0),
        shards_(fed) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].on(kTick, [this, s](double now, const sim::TagPayload&) {
        tick(s, now);
      });
      shards_[s].on(kCount, [this, s](double, const sim::TagPayload& p) {
        received_[s] += p[0];
      });
    }
  }

  void arm() {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].schedule_tagged_at(0.0, kTick, {});
    }
  }

  void save(sim::SnapshotWriter& w) const {
    w.write_payload(ticks_);
    w.write_payload(received_);
    shards_.save(w);
  }

  void restore(sim::SnapshotReader& r) {
    ticks_ = r.read_payload();
    const std::vector<std::uint64_t> received = r.read_payload();
    if (!config_.forget_received) received_ = received;
    shards_.restore(r);
  }

  TickOutcome finish() const { return {ticks_, received_, fed_.now()}; }

 private:
  static constexpr std::uint64_t kTick = 1;
  static constexpr std::uint64_t kCount = 2;

  void tick(std::size_t s, double now) {
    ++ticks_[s];
    fed_.send_tagged(s, (s + 1) % shards_.size(), 0.1, kCount, {ticks_[s]});
    if (now + config_.period_s < config_.until_s) {
      shards_[s].schedule_tagged_at(now + config_.period_s, kTick, {});
    }
  }

  TickConfig config_;
  sim::ShardedSimulator& fed_;
  std::vector<std::uint64_t> ticks_;
  std::vector<std::uint64_t> received_;
  TaggedShards shards_;
};

TEST(DrillRestore, ContinuationIsBitIdenticalAtAnyThreadCount) {
  const TickConfig config;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    const auto rep = run_restore_drill<TickWorld>(
        config, uniform_federation(config.shards, threads, 0.05),
        /*horizon_s=*/6.0, /*snapshot_at_s=*/2.0, /*kill_at_s=*/3.5);
    EXPECT_TRUE(rep.identical) << threads << " threads";
    EXPECT_GT(rep.snapshot_bytes, 0U);
    EXPECT_EQ(20U, rep.restored.ticks[0]);  // ticks at 0, 0.25, ..., 4.75
    EXPECT_GT(rep.restored.received[1], 0U);
    EXPECT_EQ(6.0, rep.restored.now_s);
  }
}

TEST(DrillRestore, ForgottenStateIsCaught) {
  TickConfig config;
  config.forget_received = true;
  const auto rep = run_restore_drill<TickWorld>(
      config, uniform_federation(config.shards, 1, 0.05), 6.0, 2.0, 3.5);
  EXPECT_FALSE(rep.identical);
  EXPECT_EQ(rep.uninterrupted.ticks, rep.restored.ticks);
  EXPECT_LT(rep.restored.received[1], rep.uninterrupted.received[1]);
}

TEST(DrillRestore, RejectsWindowsOutsideTheRun) {
  const TickConfig config;
  const sim::ShardedConfig fed = uniform_federation(config.shards, 1, 0.05);
  EXPECT_THROW(run_restore_drill<TickWorld>(config, fed, 6.0, 0.0, 3.0),
               std::invalid_argument);
  EXPECT_THROW(run_restore_drill<TickWorld>(config, fed, 6.0, 4.0, 3.0),
               std::invalid_argument);
  EXPECT_THROW(run_restore_drill<TickWorld>(config, fed, 6.0, 2.0, 6.0),
               std::invalid_argument);
}

TEST(DrillRestore, RunWorldMatchesTheUninterruptedRun) {
  const TickConfig config;
  const sim::ShardedConfig fed = uniform_federation(config.shards, 2, 0.05);
  const TickOutcome direct = run_world<TickWorld>(config, fed, 6.0);
  EXPECT_TRUE(direct ==
              run_restore_drill<TickWorld>(config, fed, 6.0, 1.0, 1.0)
                  .uninterrupted);
}

}  // namespace
}  // namespace epm::faults
