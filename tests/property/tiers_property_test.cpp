// Randomized invariant sweeps for the multi-tier sizer.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "macro/tiers.h"

namespace epm::macro {
namespace {

TieredServiceSpec random_service(Rng& rng) {
  TieredServiceSpec spec;
  const auto tiers = static_cast<std::size_t>(rng.uniform_int(1, 4));
  for (std::size_t i = 0; i < tiers; ++i) {
    TierSpec tier;
    tier.name = std::string("t").append(std::to_string(i));
    tier.fanout = rng.uniform(1.0, 5.0);
    tier.service_demand_s = rng.uniform(0.001, 0.02);
    tier.max_servers = 2000;
    spec.tiers.push_back(tier);
  }
  // Generous SLA relative to the summed service times so most draws are
  // feasible; infeasible draws are asserted to report so.
  double service_sum = 0.0;
  for (const auto& t : spec.tiers) service_sum += t.service_demand_s;
  spec.end_to_end_sla_s = service_sum * rng.uniform(2.0, 20.0);
  return spec;
}

class TiersProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TiersProperty, FeasibleDecisionsMeetTheirContract) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto spec = random_service(rng);
    const double rate = rng.uniform(0.0, 5000.0);
    const auto decision = size_tiers(spec, rate);
    if (!decision.feasible) continue;
    ASSERT_EQ(decision.tiers.size(), spec.tiers.size());
    double budget_sum = 0.0;
    double power_sum = 0.0;
    for (std::size_t i = 0; i < decision.tiers.size(); ++i) {
      const auto& tier = decision.tiers[i];
      ASSERT_GE(tier.servers, 1u);
      ASSERT_LE(tier.servers, spec.tiers[i].max_servers);
      ASSERT_LE(tier.predicted_response_s, tier.latency_budget_s + 1e-9);
      budget_sum += tier.latency_budget_s;
      power_sum += tier.predicted_power_w;
    }
    ASSERT_NEAR(budget_sum, spec.end_to_end_sla_s, 1e-9);
    ASSERT_LE(decision.end_to_end_response_s, spec.end_to_end_sla_s + 1e-9);
    ASSERT_NEAR(decision.total_power_w, power_sum, 1e-6);
  }
}

TEST_P(TiersProperty, OptimizedNeverWorseThanEqualSplit) {
  Rng rng(GetParam() + 31);
  for (int round = 0; round < 25; ++round) {
    const auto spec = random_service(rng);
    const double rate = rng.uniform(10.0, 4000.0);
    const auto optimized = size_tiers(spec, rate);
    const auto equal = size_tiers_equal_split(spec, rate);
    if (equal.feasible) {
      ASSERT_TRUE(optimized.feasible);
      ASSERT_LE(optimized.total_power_w, equal.total_power_w + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TiersProperty, ::testing::Values(61, 62));

}  // namespace
}  // namespace epm::macro
