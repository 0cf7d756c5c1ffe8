#include "reliability/monte_carlo.h"

#include <gtest/gtest.h>

namespace epm::reliability {
namespace {

// A horizon of 1e300 years once ran without end; the transition bound
// refuses it up front but still admits 64 replicas of 5000 years at every
// tier.
TEST(MonteCarlo, ExpectedTransitionBoundRefusesEndlessRuns) {
  MonteCarloConfig config;
  config.replicas = 64;
  config.years = 5000.0;
  for (int tier = 1; tier <= 4; ++tier) {
    EXPECT_NO_THROW(validate_monte_carlo_config(make_tier_topology(tier), config))
        << "tier " << tier;
  }
  config.replicas = 1;
  config.years = 1e300;
  EXPECT_THROW(validate_monte_carlo_config(make_tier_topology(2), config),
               std::invalid_argument);
  EXPECT_THROW(simulate_availability(make_tier_topology(2), config),
               std::invalid_argument);
}

TEST(MonteCarlo, SingleComponentMatchesAnalytic) {
  auto block = Block::component({"c", 100.0, 10.0, 0.0});  // A = 10/11
  MonteCarloConfig config;
  config.years = 60.0;
  config.replicas = 6;
  const auto result = simulate_availability(block, config);
  EXPECT_NEAR(result.availability, block.availability(), 0.01);
  EXPECT_GT(result.outage_count, 0u);
  EXPECT_NEAR(result.mean_outage_h, 10.0, 2.0);
}

TEST(MonteCarlo, ParallelRedundancyMatchesAnalytic) {
  auto c = Block::component({"c", 100.0, 10.0, 0.0});
  auto block = Block::parallel("p", 1, {c, c});
  MonteCarloConfig config;
  config.years = 120.0;
  config.replicas = 6;
  const auto result = simulate_availability(block, config);
  EXPECT_NEAR(result.availability, block.availability(), 0.005);
}

TEST(MonteCarlo, MaintenanceWindowCounted) {
  // Component that never fails but takes 87.6 h/yr of maintenance (1%).
  auto block = Block::component({"m", 1.0e9, 0.0, 87.6});
  MonteCarloConfig config;
  config.years = 30.0;
  config.replicas = 4;
  const auto result = simulate_availability(block, config);
  EXPECT_NEAR(result.availability, 0.99, 0.002);
}

TEST(MonteCarlo, DeterministicForSeed) {
  auto block = make_tier_topology(1);
  MonteCarloConfig config;
  config.years = 10.0;
  config.replicas = 2;
  const auto a = simulate_availability(block, config);
  const auto b = simulate_availability(block, config);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
  EXPECT_EQ(a.outage_count, b.outage_count);
}

TEST(MonteCarlo, Tier2WithinAnalyticBand) {
  auto block = make_tier_topology(2);
  MonteCarloConfig config;
  config.years = 80.0;
  config.replicas = 4;
  const auto result = simulate_availability(block, config);
  EXPECT_NEAR(result.availability, block.availability(true), 0.003);
}

TEST(MonteCarloParallel, BitIdenticalAcrossThreadCounts) {
  auto block = make_tier_topology(2);
  MonteCarloConfig config;
  config.years = 20.0;
  config.replicas = 12;
  auto run_at = [&](std::size_t threads) {
    config.threads = threads;
    return simulate_availability(block, config);
  };
  const auto at1 = run_at(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto at = run_at(threads);
    EXPECT_DOUBLE_EQ(at.availability, at1.availability) << threads << " threads";
    EXPECT_DOUBLE_EQ(at.mean_outage_h, at1.mean_outage_h) << threads << " threads";
    EXPECT_DOUBLE_EQ(at.max_outage_h, at1.max_outage_h) << threads << " threads";
    EXPECT_EQ(at.outage_count, at1.outage_count) << threads << " threads";
  }
}

TEST(MonteCarloParallel, ThreadsZeroMeansDefault) {
  auto block = make_tier_topology(1);
  MonteCarloConfig config;
  config.years = 5.0;
  config.replicas = 3;
  config.threads = 0;  // resolves to default_thread_count()
  const auto defaulted = simulate_availability(block, config);
  config.threads = 1;
  const auto serial = simulate_availability(block, config);
  EXPECT_DOUBLE_EQ(defaulted.availability, serial.availability);
  EXPECT_EQ(defaulted.outage_count, serial.outage_count);
}

// Regression: a topology so reliable that no replica samples a single
// failure used to report availability exactly 1.0 with a zero-width
// confidence interval — certainty the finite horizon cannot support. The
// Wilson term must keep the interval open below 1.
TEST(MonteCarlo, ZeroFailuresYieldsOpenConfidenceInterval) {
  // MTBF of ~11 million years against a 2-year horizon: effectively never
  // fails inside the simulation.
  auto block = Block::component({"solid", 1.0e11, 1.0, 0.0});
  MonteCarloConfig config;
  config.years = 2.0;
  config.replicas = 4;
  const auto result = simulate_availability(block, config);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_EQ(result.outage_count, 0u);
  EXPECT_DOUBLE_EQ(result.availability_stddev, 0.0);
  EXPECT_DOUBLE_EQ(result.ci_hi, 1.0);
  EXPECT_LT(result.ci_lo, 1.0) << "interval must stay open below 1";
  EXPECT_GT(result.ci_width(), 0.0);
  // ...but barely: ~70k simulated hours with zero observed downtime pins
  // the Wilson bound very close to 1.
  EXPECT_GT(result.ci_lo, 0.9999);
}

TEST(MonteCarlo, ConfidenceIntervalContainsAnalytic) {
  auto block = make_tier_topology(2);
  MonteCarloConfig config;
  config.years = 80.0;
  config.replicas = 8;
  const auto result = simulate_availability(block, config);
  const double analytic = block.availability(true);
  EXPECT_LE(result.ci_lo, analytic);
  EXPECT_GE(result.ci_hi, analytic);
  EXPECT_LE(result.ci_lo, result.availability);
  EXPECT_GE(result.ci_hi, result.availability);
  EXPECT_GE(result.ci_lo, 0.0);
  EXPECT_LE(result.ci_hi, 1.0);
}

TEST(MonteCarloParallel, ConfidenceIntervalBitIdenticalAcrossThreadCounts) {
  auto block = make_tier_topology(2);
  MonteCarloConfig config;
  config.years = 20.0;
  config.replicas = 12;
  config.threads = 1;
  const auto at1 = simulate_availability(block, config);
  config.threads = 8;
  const auto at8 = simulate_availability(block, config);
  EXPECT_DOUBLE_EQ(at1.ci_lo, at8.ci_lo);
  EXPECT_DOUBLE_EQ(at1.ci_hi, at8.ci_hi);
}

TEST(MonteCarlo, Validation) {
  auto block = Block::component({"c", 1.0, 1.0, 0.0});
  MonteCarloConfig bad;
  bad.years = 0.0;
  EXPECT_THROW(simulate_availability(block, bad), std::invalid_argument);
  bad = MonteCarloConfig{};
  bad.replicas = 0;
  EXPECT_THROW(simulate_availability(block, bad), std::invalid_argument);
}

}  // namespace
}  // namespace epm::reliability
