// Randomized invariant sweeps for the reliability blocks and the geo
// coordinator.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "macro/geo.h"
#include "reliability/availability.h"

namespace epm {
namespace {

reliability::Block random_block(Rng& rng, int depth) {
  using reliability::Block;
  using reliability::ComponentSpec;
  if (depth == 0 || rng.bernoulli(0.4)) {
    return Block::component(ComponentSpec{"leaf", rng.uniform(100.0, 1.0e5),
                                          rng.uniform(0.1, 48.0),
                                          rng.uniform(0.0, 40.0)});
  }
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 3));
  std::vector<Block> children;
  for (std::size_t i = 0; i < n; ++i) children.push_back(random_block(rng, depth - 1));
  if (rng.bernoulli(0.5)) return Block::series("s", std::move(children));
  const auto required = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(n)));
  return Block::parallel("p", required, std::move(children));
}

class ReliabilityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliabilityProperty, AvailabilityIsAProbabilityAndMaintenanceHurts) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const auto block = random_block(rng, 3);
    const double plain = block.availability(false);
    const double with_maintenance = block.availability(true);
    ASSERT_GE(plain, 0.0);
    ASSERT_LE(plain, 1.0);
    ASSERT_LE(with_maintenance, plain + 1e-12);
    ASSERT_GE(with_maintenance, 0.0);
  }
}

TEST_P(ReliabilityProperty, RedundancyNeverHurts) {
  Rng rng(GetParam() + 5);
  using reliability::Block;
  for (int round = 0; round < 100; ++round) {
    const reliability::ComponentSpec spec{"c", rng.uniform(100.0, 1.0e5),
                                          rng.uniform(0.1, 48.0), 0.0};
    const auto single = Block::component(spec);
    const auto redundant =
        Block::parallel("p", 1, {Block::component(spec), Block::component(spec)});
    ASSERT_GE(redundant.availability(), single.availability() - 1e-12);
    // And requiring both is worse than requiring one.
    const auto both =
        Block::parallel("p2", 2, {Block::component(spec), Block::component(spec)});
    ASSERT_LE(both.availability(), single.availability() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliabilityProperty, ::testing::Values(21, 22));

class GeoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeoProperty, RoutingNeverBeatsCapacityOrConservation) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    std::vector<macro::SiteConfig> sites;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t i = 0; i < n; ++i) {
      macro::SiteConfig site;
      site.name = std::string("s").append(std::to_string(i));
      site.servers = static_cast<std::size_t>(rng.uniform_int(50, 800));
      site.plant.has_economizer = rng.bernoulli(0.5);
      site.electricity_price_per_kwh = rng.uniform(0.04, 0.25);
      site.network_latency_s = rng.uniform(0.001, 0.09);
      sites.push_back(site);
    }
    macro::GeoCoordinator geo(sites);
    std::vector<double> temps;
    std::vector<double> rh;
    double capacity = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      temps.push_back(rng.uniform(-5.0, 35.0));
      rh.push_back(rng.uniform(0.1, 0.9));
      if (geo.latency_feasible(i)) {
        capacity += static_cast<double>(sites[i].servers) * 70.0;
      }
    }
    const double rate = rng.uniform(0.0, capacity * 1.5 + 1.0);
    const auto decision = geo.route(rate, temps, rh);
    ASSERT_NEAR(decision.served_rate_per_s + decision.dropped_rate_per_s, rate, 1e-6);
    ASSERT_LE(decision.served_rate_per_s, capacity + 1e-6);
    double cost_check = 0.0;
    for (const auto& alloc : decision.allocations) {
      ASSERT_GE(alloc.arrival_rate_per_s, 0.0);
      ASSERT_LE(alloc.servers_on, sites[alloc.site].servers);
      cost_check += alloc.cost_per_hour;
    }
    ASSERT_NEAR(cost_check, decision.total_cost_per_hour, 1e-9);
  }
}

TEST_P(GeoProperty, CostAwareRoutingNeverCostsMoreThanSingleHome) {
  Rng rng(GetParam() + 9);
  for (int round = 0; round < 20; ++round) {
    std::vector<macro::SiteConfig> sites;
    for (std::size_t i = 0; i < 3; ++i) {
      macro::SiteConfig site;
      site.name = std::string("s").append(std::to_string(i));
      site.servers = 400;
      site.electricity_price_per_kwh = rng.uniform(0.05, 0.2);
      site.network_latency_s = rng.uniform(0.001, 0.06);
      sites.push_back(site);
    }
    macro::GeoCoordinator geo(sites);
    const std::vector<double> temps{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0),
                                    rng.uniform(0.0, 30.0)};
    const std::vector<double> rh{0.5, 0.5, 0.5};
    const double rate = rng.uniform(1000.0, 25000.0);
    const auto aware = geo.route(rate, temps, rh);
    for (std::size_t home = 0; home < 3; ++home) {
      const auto homed = geo.route_single_home(rate, home, temps, rh);
      if (homed.served_rate_per_s >= aware.served_rate_per_s - 1e-6) {
        ASSERT_LE(aware.total_cost_per_hour, homed.total_cost_per_hour + 1e-6)
            << "home " << home;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeoProperty, ::testing::Values(31, 32));

}  // namespace
}  // namespace epm
