// Randomized invariant sweeps for the oversubscription risk estimators.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/rng.h"
#include "oversub/aggregation.h"

namespace epm::oversub {
namespace {

ServicePowerProfile random_profile(Rng& rng, const std::string& name) {
  TimeSeries trace(0.0, 900.0);
  const double mean = rng.uniform(50.0, 200.0);
  const double swing = rng.uniform(0.0, mean * 0.8);
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  for (int i = 0; i < 96 * 3; ++i) {
    const double x = 2.0 * std::numbers::pi * (i % 96) / 96.0;
    trace.push_back(std::max(1.0, mean + swing * std::sin(x + phase) +
                                      rng.normal(0.0, mean * 0.02)));
  }
  return ServicePowerProfile(name, trace);
}

class OversubProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OversubProperty, RiskDecreasesWithCapacity) {
  Rng rng(GetParam());
  RiskConfig config;
  config.monte_carlo_draws = 20000;
  for (int round = 0; round < 10; ++round) {
    std::vector<ServicePowerProfile> services;
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 8));
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(random_profile(rng, std::string("s").append(std::to_string(i))));
    }
    double total_peak = 0.0;
    for (const auto& s : services) total_peak += s.rated_peak_w();
    double prev_aligned = 1.1;
    double prev_indep = 1.1;
    for (double frac : {0.4, 0.7, 1.0, 1.3}) {
      const double cap = total_peak * frac;
      const double aligned = overflow_probability_aligned(services, cap, config);
      const double indep = overflow_probability_independent(services, cap, config);
      ASSERT_LE(aligned, prev_aligned + 0.01);
      ASSERT_LE(indep, prev_indep + 0.01);
      prev_aligned = aligned;
      prev_indep = indep;
    }
    // Capacity at the summed peaks: never overflows.
    ASSERT_DOUBLE_EQ(overflow_probability_aligned(services, total_peak + 1.0, config),
                     0.0);
  }
}

TEST_P(OversubProperty, AddingAServiceNeverLowersRisk) {
  Rng rng(GetParam() + 3);
  RiskConfig config;
  config.monte_carlo_draws = 20000;
  std::vector<ServicePowerProfile> services;
  services.push_back(random_profile(rng, "base"));
  const double capacity = services[0].rated_peak_w() * 3.0;
  double prev = -1.0;
  for (int i = 0; i < 6; ++i) {
    const double risk = overflow_probability_aligned(services, capacity, config);
    ASSERT_GE(risk, prev - 1e-9);
    prev = risk;
    services.push_back(random_profile(rng, "extra" + std::to_string(i)));
  }
}

TEST_P(OversubProperty, NormalApproxRespectsCorrelationOrdering) {
  Rng rng(GetParam() + 7);
  for (int round = 0; round < 20; ++round) {
    std::vector<ServicePowerProfile> services;
    for (int i = 0; i < 5; ++i) {
      services.push_back(random_profile(rng, std::string("n").append(std::to_string(i))));
    }
    double mean_sum = 0.0;
    for (const auto& s : services) mean_sum += s.mean_w();
    const double capacity = mean_sum * rng.uniform(1.05, 1.5);
    double prev = -1.0;
    for (double rho : {0.0, 0.3, 0.6, 0.9}) {
      const double risk = overflow_probability_normal(services, capacity, rho);
      ASSERT_GE(risk, prev - 1e-12) << "rho " << rho;
      prev = risk;
    }
  }
}

TEST_P(OversubProperty, CappingImpactConsistentWithRisk) {
  Rng rng(GetParam() + 11);
  for (int round = 0; round < 10; ++round) {
    std::vector<ServicePowerProfile> services;
    for (int i = 0; i < 4; ++i) {
      services.push_back(random_profile(rng, std::string("c").append(std::to_string(i))));
    }
    double total_peak = 0.0;
    for (const auto& s : services) total_peak += s.rated_peak_w();
    const double capacity = total_peak * rng.uniform(0.6, 0.95);
    const double risk = overflow_probability_aligned(services, capacity);
    const auto impact = capping_impact_aligned(services, capacity);
    // The fraction of time capped IS the aligned overflow probability.
    ASSERT_NEAR(impact.capped_fraction, risk, 1e-9);
    if (impact.capped_fraction > 0.0) {
      ASSERT_GT(impact.mean_shed_w, 0.0);
      ASSERT_GE(impact.worst_shed_w, impact.mean_shed_w - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OversubProperty, ::testing::Values(91, 92));

}  // namespace
}  // namespace epm::oversub
