#include "oversub/aggregation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace epm::oversub {
namespace {

/// Diurnal power trace for one service: peaks aligned across services.
TimeSeries diurnal_power(double mean_w, double swing_w, double phase = 0.0) {
  TimeSeries t(0.0, 900.0);
  for (int i = 0; i < 96 * 7; ++i) {  // one week at 15 min
    const double x = 2.0 * std::numbers::pi * (i % 96) / 96.0;
    t.push_back(mean_w + swing_w * std::sin(x + phase));
  }
  return t;
}

TEST(NormalTail, KnownValues) {
  EXPECT_NEAR(normal_tail(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_tail(1.645), 0.05, 1e-3);
  EXPECT_NEAR(normal_tail(3.0), 0.00135, 1e-4);
}

TEST(OversubscriptionRatio, SumOfPeaksOverCapacity) {
  std::vector<ServicePowerProfile> services;
  services.emplace_back("a", diurnal_power(100.0, 50.0), 200.0);
  services.emplace_back("b", diurnal_power(100.0, 50.0), 300.0);
  EXPECT_DOUBLE_EQ(oversubscription_ratio(services, 250.0), 2.0);
}

TEST(OverflowProbability, ZeroWhenCapacityAmple) {
  std::vector<ServicePowerProfile> services;
  services.emplace_back("a", diurnal_power(100.0, 50.0));
  RiskConfig config;
  config.monte_carlo_draws = 20000;
  EXPECT_DOUBLE_EQ(overflow_probability_independent(services, 1000.0, config), 0.0);
  EXPECT_DOUBLE_EQ(overflow_probability_aligned(services, 1000.0, config), 0.0);
}

TEST(OverflowProbability, OneWhenCapacityHopeless) {
  std::vector<ServicePowerProfile> services;
  services.emplace_back("a", diurnal_power(100.0, 10.0));
  RiskConfig config;
  config.monte_carlo_draws = 20000;
  EXPECT_DOUBLE_EQ(overflow_probability_independent(services, 50.0, config), 1.0);
}

TEST(OverflowProbability, AlignedExceedsIndependentForCorrelatedServices) {
  // Ten services that all peak in the same afternoon: statistical
  // multiplexing looks great if you (wrongly) assume independence.
  std::vector<ServicePowerProfile> services;
  for (int i = 0; i < 10; ++i) {
    services.emplace_back("svc" + std::to_string(i), diurnal_power(100.0, 50.0));
  }
  // Capacity between the aligned peak (1500) and independent typical sums.
  const double capacity = 1300.0;
  RiskConfig config;
  config.monte_carlo_draws = 50000;
  const double independent =
      overflow_probability_independent(services, capacity, config);
  const double aligned = overflow_probability_aligned(services, capacity, config);
  EXPECT_GT(aligned, 4.0 * independent + 1e-6);
}

TEST(OverflowProbability, AntiCorrelatedServicesMultiplexWell) {
  // Two services in opposite phase never peak together (§5.2's packing
  // argument): their aligned sum is flat.
  std::vector<ServicePowerProfile> services;
  services.emplace_back("day", diurnal_power(100.0, 50.0, 0.0));
  services.emplace_back("night", diurnal_power(100.0, 50.0, std::numbers::pi));
  EXPECT_DOUBLE_EQ(overflow_probability_aligned(services, 210.0), 0.0);
  // Same marginals, aligned phases: frequent overflow.
  std::vector<ServicePowerProfile> aligned;
  aligned.emplace_back("day1", diurnal_power(100.0, 50.0, 0.0));
  aligned.emplace_back("day2", diurnal_power(100.0, 50.0, 0.0));
  EXPECT_GT(overflow_probability_aligned(aligned, 210.0), 0.2);
}

TEST(OverflowProbabilityNormal, MatchesMonteCarloOrder) {
  std::vector<ServicePowerProfile> services;
  for (int i = 0; i < 20; ++i) {
    services.emplace_back(std::string("s").append(std::to_string(i)), diurnal_power(100.0, 30.0));
  }
  // Independent normal approximation should agree with independent MC
  // within the same order of magnitude.
  const double capacity = 20 * 100.0 + 150.0;
  const double normal = overflow_probability_normal(services, capacity, 0.0);
  RiskConfig config;
  config.monte_carlo_draws = 200000;
  const double mc = overflow_probability_independent(services, capacity, config);
  EXPECT_GT(normal, mc / 10.0);
  EXPECT_LT(normal, mc * 10.0 + 1e-3);
  // Correlation raises the tail risk.
  EXPECT_GT(overflow_probability_normal(services, capacity, 0.8), normal);
}

TEST(MaxServicesAtRisk, FindsPackingLimit) {
  ServicePowerProfile prototype("svc", diurnal_power(100.0, 50.0), 160.0);
  // Capacity of 450 W: 3 aligned services peak at 450 -> risk 0; the 4th
  // busts it frequently.
  const auto packing = max_services_at_risk(prototype, 455.0, 1e-4, 32);
  EXPECT_EQ(packing.services, 3u);
  EXPECT_NEAR(packing.ratio, 3 * 160.0 / 455.0, 1e-9);
  EXPECT_LE(packing.risk, 1e-4);
}

TEST(MaxServicesAtRisk, ZeroWhenEvenOneTooBig) {
  ServicePowerProfile prototype("svc", diurnal_power(100.0, 50.0));
  const auto packing = max_services_at_risk(prototype, 60.0, 1e-4, 8);
  EXPECT_EQ(packing.services, 0u);
}

TEST(CappingImpact, QuantifiesBackstopCost) {
  std::vector<ServicePowerProfile> services;
  services.emplace_back("a", diurnal_power(100.0, 50.0));
  services.emplace_back("b", diurnal_power(100.0, 50.0));
  // Capacity at 250: aligned sum (200 + 100 sin) exceeds it ~1/3 of the day.
  const auto impact = capping_impact_aligned(services, 250.0);
  EXPECT_GT(impact.capped_fraction, 0.2);
  EXPECT_LT(impact.capped_fraction, 0.5);
  EXPECT_GT(impact.mean_shed_w, 0.0);
  EXPECT_NEAR(impact.worst_shed_w, 50.0, 2.0);
  // Ample capacity: no capping.
  const auto none = capping_impact_aligned(services, 1000.0);
  EXPECT_DOUBLE_EQ(none.capped_fraction, 0.0);
  EXPECT_DOUBLE_EQ(none.worst_shed_w, 0.0);
}

TEST(Aggregation, Validation) {
  std::vector<ServicePowerProfile> none;
  EXPECT_THROW(overflow_probability_independent(none, 100.0), std::invalid_argument);
  EXPECT_THROW(overflow_probability_aligned(none, 100.0), std::invalid_argument);
  EXPECT_THROW(overflow_probability_normal(none, 100.0), std::invalid_argument);
  std::vector<ServicePowerProfile> one;
  one.emplace_back("a", diurnal_power(100.0, 10.0));
  EXPECT_THROW(overflow_probability_independent(one, 0.0), std::invalid_argument);
  EXPECT_THROW(overflow_probability_normal(one, 100.0, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace epm::oversub
