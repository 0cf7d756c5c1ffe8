#include "faults/retry_storm.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "core/parallel.h"

namespace epm::faults {
namespace {

using workload::RetryBackoff;

// 1/5-scale replica of the reference scenario (same time constants, same
// dynamics) so a full run costs a fraction of the bench point. The SLA
// fraction is loosened to 0.8: at ~100 rps the per-epoch goodput noise is
// ~10% of the mean, which would make a 0.9 recovery window flaky.
RetryStormConfig small_config(RetryBackoff backoff, bool defended) {
  RetryStormConfig config =
      make_reference_retry_storm_config(backoff, 120.0, defended);
  config.clients.clients = 4000;
  config.service_capacity_rps = 200.0;
  config.batch_rps = 60.0;
  config.naive_queue_capacity = 24000;
  config.defense.bucket = {180.0, 180.0};
  config.defense.queue_capacity = 360;  // sojourn <= 1.8 s < 4 s timeout
  config.outage_start_s = 120.0;
  config.horizon_s = 600.0;
  config.sla_goodput_fraction = 0.8;
  return config;
}

TEST(RetryStorm, DefendedArmRecoversWithNoStaleWork) {
  const RetryStormOutcome out =
      run_retry_storm(small_config(RetryBackoff::kImmediate, true));
  EXPECT_TRUE(out.recovered);
  EXPECT_GT(out.prefault_goodput_rps, 0.0);
  EXPECT_GE(out.end_goodput_rps, 0.9 * out.prefault_goodput_rps);
  // The bounded queue keeps sojourn under the client timeout: the defended
  // service never wastes capacity on requests the client abandoned.
  EXPECT_EQ(out.served_stale, 0u);
  EXPECT_GT(out.breaker_trips, 0u);
  EXPECT_GT(out.breaker_probes, 0u);
  EXPECT_GT(out.dark_failures, 0u);
  EXPECT_TRUE(out.conservation_ok) << out.conservation_report;
  EXPECT_TRUE(out.invariants_ok) << out.invariant_report;
  // The macro policy engaged (risk alert + load-shedding decisions logged).
  EXPECT_GT(out.decision_counts.size(), 0u);
}

TEST(RetryStorm, NaiveImmediateRetryGoesMetastable) {
  const RetryStormOutcome out =
      run_retry_storm(small_config(RetryBackoff::kImmediate, false));
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.metastable);
  // The signature of the metastable state: offered load still above
  // capacity at the horizon, goodput collapsed, served work mostly stale.
  EXPECT_GT(out.end_offered_rps, out.end_interactive_capacity_rps);
  EXPECT_LT(out.end_goodput_rps, 0.5 * out.prefault_goodput_rps);
  EXPECT_GT(out.served_stale, 0u);
  EXPECT_GT(out.shed_queue, 0u);
  // No admission stack in the naive arm.
  EXPECT_EQ(out.shed_breaker, 0u);
  EXPECT_EQ(out.shed_bucket, 0u);
  EXPECT_EQ(out.breaker_trips, 0u);
  EXPECT_TRUE(out.conservation_ok) << out.conservation_report;
  EXPECT_TRUE(out.invariants_ok) << out.invariant_report;
}

TEST(RetryStorm, ExponentialBackoffAloneAvoidsTheMeltdown) {
  // Jittered exponential backoff desynchronizes the retry flood enough that
  // even the undefended service drains the surge — the classic client-side
  // defense, reproduced rather than asserted away.
  const RetryStormOutcome out =
      run_retry_storm(small_config(RetryBackoff::kExponential, false));
  EXPECT_TRUE(out.recovered);
  EXPECT_FALSE(out.metastable);
}

TEST(RetryStorm, RetryAmplificationIsConserved) {
  const RetryStormOutcome out =
      run_retry_storm(small_config(RetryBackoff::kFixed, true));
  // Every attempt is an intent or a retry; every shed lands in exactly one
  // bucket; telemetry mirrors the ledger through the sensor plane.
  EXPECT_EQ(out.attempts, out.intents + out.retries);
  EXPECT_EQ(out.telemetry_shed,
            out.shed_breaker + out.shed_bucket + out.shed_queue);
  EXPECT_EQ(out.telemetry_retried, out.retries);
  EXPECT_EQ(out.telemetry_abandoned, out.abandoned);
  EXPECT_GT(out.telemetry_samples, 0u);
  EXPECT_EQ(out.epochs, 600u);
}

TEST(RetryStorm, DefendedReferencePointMatchesBenchGate) {
  // One full-scale bench point, exactly as exp_retry_storm sweeps it.
  const RetryStormOutcome out = run_retry_storm(
      make_reference_retry_storm_config(RetryBackoff::kImmediate, 120.0, true));
  EXPECT_TRUE(out.recovered);
  EXPECT_LE(out.recovery_s, 300.0);
  EXPECT_EQ(out.served_stale, 0u);
  EXPECT_TRUE(out.conservation_ok) << out.conservation_report;
  EXPECT_TRUE(out.invariants_ok) << out.invariant_report;
}

TEST(RetryStorm, RejectsBadConfig) {
  RetryStormConfig config = small_config(RetryBackoff::kImmediate, true);
  config.horizon_s = config.outage_start_s;  // outage past the horizon
  EXPECT_THROW(run_retry_storm(config), std::invalid_argument);
  config = small_config(RetryBackoff::kImmediate, true);
  config.batch_rps = config.service_capacity_rps;
  EXPECT_THROW(run_retry_storm(config), std::invalid_argument);
  config = small_config(RetryBackoff::kImmediate, true);
  config.outage_start_s = 30.0;  // too early for a pre-fault SLA window
  EXPECT_THROW(run_retry_storm(config), std::invalid_argument);
  config = small_config(RetryBackoff::kImmediate, true);
  config.recovery_window_epochs = 0;
  EXPECT_THROW(run_retry_storm(config), std::invalid_argument);
}

// The bench sweeps scenario points on the ThreadPool; outcomes must be
// bit-identical at 1, 2, and 8 threads ("Parallel" opts into the TSan run).
TEST(RetryStormParallelDeterminism, SweepIsBitIdenticalAcrossThreadCounts) {
  struct Point {
    RetryBackoff backoff;
    bool defended;
  };
  const std::vector<Point> grid = {
      {RetryBackoff::kImmediate, false},
      {RetryBackoff::kImmediate, true},
      {RetryBackoff::kExponential, false},
      {RetryBackoff::kExponential, true},
  };
  auto sweep = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_map(grid.size(), [&](std::size_t i) {
      return run_retry_storm(small_config(grid[i].backoff, grid[i].defended));
    });
  };
  const auto base = sweep(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto other = sweep(threads);
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_TRUE(base[i] == other[i]) << "point " << i << " at " << threads
                                        << " threads";
    }
  }
}

// The population's own pool: the epoch engine answers, serves and sweeps
// shard-parallel when clients.threads > 1, and every grid point must still
// equal the per-id heap engine at 1, 2, and 8 sweep threads.
TEST(RetryStormParallelDeterminism, ThreadedPopulationMatchesLegacyEngine) {
  const std::pair<RetryBackoff, bool> grid[] = {
      {RetryBackoff::kImmediate, false},
      {RetryBackoff::kImmediate, true},
      {RetryBackoff::kExponential, false},
      {RetryBackoff::kExponential, true},
  };
  for (const auto& [backoff, defended] : grid) {
    RetryStormConfig config = small_config(backoff, defended);
    const RetryStormOutcome legacy = run_retry_storm_legacy(config);
    EXPECT_TRUE(legacy.conservation_ok) << legacy.conservation_report;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      config.clients.threads = threads;
      EXPECT_TRUE(run_retry_storm(config) == legacy)
          << to_string(backoff) << (defended ? " defended" : " naive")
          << " at " << threads << " sweep threads";
    }
  }
}

}  // namespace
}  // namespace epm::faults
