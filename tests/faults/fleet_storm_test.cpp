// Fleet retry storm: the multi-datacenter world model the federation
// tentpole exists for. The load-bearing assertion is fabric equality —
// the identical FleetStormConfig produces the bit-identical outcome on a
// single kernel and on every shard/thread decomposition of the federation.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "faults/fleet_storm.h"
#include "macro/geo.h"
#include "sim/fabric.h"
#include "sim/sharded_simulator.h"

namespace epm::faults {
namespace {

FleetStormOutcome run_on_single(const FleetStormConfig& config) {
  return run_fleet_storm(config, kSingleKernel, 1);
}

TEST(FederationFleetStorm, OutcomeIsIdenticalOnEveryFabricDecomposition) {
  const FleetStormConfig config = make_reference_fleet_storm_config(4, 2000, 5);
  const FleetStormOutcome truth = run_on_single(config);

  // The scenario must be non-trivial or the equality proves nothing: the
  // outage datacenter re-routes real work, peers complete some of it, and
  // every ledger balances.
  ASSERT_EQ(truth.dcs.size(), 4u);
  EXPECT_TRUE(truth.conservation_ok) << truth.conservation_report;
  EXPECT_GT(truth.forwarded, 0u);
  EXPECT_GT(truth.remote_served, 0u);
  EXPECT_GT(truth.fleet_goodput_fraction, 0.5);
  const FleetDcOutcome& dark = truth.dcs[config.disruptions.front().dc];
  EXPECT_TRUE(dark.recovered);
  EXPECT_GT(dark.dark_failures + dark.forwarded, 0u);

  // The single-kernel ground truth is the sweep's reference (listed first).
  const SweepReport sweep = sweep_conformance(
      {{5, kSingleKernel, 1}, {5, 1, 1}, {5, 2, 1}, {5, 2, 2}, {5, 4, 4},
       {5, 4, 8}},
      [&config](const SweepPoint& p) {
        return run_fleet_storm(config, p.shards, p.threads);
      });
  EXPECT_EQ(6U, sweep.runs);
  EXPECT_TRUE(sweep.ok) << "shards " << sweep.failed.shards << " threads "
                        << sweep.failed.threads
                        << " diverged from the single-kernel ground truth";
}

TEST(FederationFleetStorm, UndefendedFleetIsAlsoFabricInvariant) {
  FleetStormConfig config = make_reference_fleet_storm_config(2, 1500, 9);
  config.defense.enabled = false;
  const FleetStormOutcome truth = run_on_single(config);
  EXPECT_TRUE(truth.conservation_ok) << truth.conservation_report;
  EXPECT_TRUE(run_fleet_storm(config, 2, 2) == truth);
}

TEST(FederationFleetStorm, ReroutingOffMeansNoCrossDatacenterFlow) {
  FleetStormConfig config = make_reference_fleet_storm_config(4, 1000, 5);
  config.reroute_fraction = 0.0;
  const FleetStormOutcome truth = run_on_single(config);

  EXPECT_EQ(truth.forwarded, 0u);
  EXPECT_EQ(truth.remote_served, 0u);
  EXPECT_EQ(truth.remote_shed, 0u);
  for (const auto& dc : truth.dcs) {
    EXPECT_EQ(dc.forwarded, 0u) << dc.site;
    EXPECT_EQ(dc.remote_admitted, 0u) << dc.site;
  }
  EXPECT_TRUE(truth.conservation_ok) << truth.conservation_report;
  // The outage datacenter eats the storm alone: everything that would have
  // ridden through peers dies dark instead.
  EXPECT_GT(truth.dcs[config.disruptions.front().dc].dark_failures, 0u);
  // Fabric equality must hold in the degenerate no-traffic case too (the
  // federation still runs windows; there is just nothing in the mailboxes).
  EXPECT_TRUE(run_fleet_storm(config, 4, 2) == truth);
}

TEST(FederationFleetStorm, PartialReroutingForwardsTheConfiguredFraction) {
  FleetStormConfig full = make_reference_fleet_storm_config(2, 1500, 3);
  FleetStormConfig half = full;
  half.reroute_fraction = 0.5;
  const FleetStormOutcome full_out = run_on_single(full);
  const FleetStormOutcome half_out = run_on_single(half);
  EXPECT_GT(half_out.forwarded, 0u);
  EXPECT_LT(half_out.forwarded, full_out.forwarded);
  EXPECT_TRUE(half_out.conservation_ok) << half_out.conservation_report;
  EXPECT_TRUE(run_fleet_storm(half, 2, 2) == half_out);
}

TEST(FederationFleetStorm, OutcomesEqualDetectsDivergence) {
  const FleetStormConfig config = make_reference_fleet_storm_config(2, 800, 5);
  const FleetStormOutcome a = run_on_single(config);
  EXPECT_TRUE(a == a);
  FleetStormOutcome b = a;
  b.dcs[1].served_fresh += 1;
  EXPECT_FALSE(a == b);
  FleetStormOutcome c = a;
  c.events_run += 1;
  EXPECT_FALSE(a == c);
  // The defaulted comparison covers every field, the reports included.
  FleetStormOutcome d = a;
  d.dcs[0].conservation_report += " ";
  EXPECT_FALSE(a == d);
}

TEST(FederationFleetStorm, ValidationRejectsBrokenConfigs) {
  // Shard count must divide the datacenter count.
  {
    const FleetStormConfig config =
        make_reference_fleet_storm_config(4, 500, 5);
    const network::InterDcNetwork net = make_fleet_network(config);
    EXPECT_THROW(make_fleet_sharded_config(net, 3, 1), std::invalid_argument);
    sim::ShardedSimulator fed(make_fleet_sharded_config(net, 2, 1));
    sim::ShardedFabric fabric(fed);
    FleetStormConfig three_dcs = make_reference_fleet_storm_config(3, 500, 5);
    EXPECT_THROW(run_fleet_storm(three_dcs, fabric), std::invalid_argument);
  }
  // A fleet needs at least two sites and at most the remote-ref owner bound.
  {
    FleetStormConfig config = make_reference_fleet_storm_config(2, 500, 5);
    config.sites.resize(1);
    EXPECT_THROW(make_fleet_network(config), std::invalid_argument);
  }
  // Bad scalar fields.
  {
    FleetStormConfig config = make_reference_fleet_storm_config(2, 500, 5);
    config.reroute_fraction = 1.5;
    sim::SingleKernelFabric fabric(2);
    EXPECT_THROW(run_fleet_storm(config, fabric), std::invalid_argument);
    config.reroute_fraction = -0.1;
    EXPECT_THROW(run_fleet_storm(config, fabric), std::invalid_argument);
  }
  {
    FleetStormConfig config = make_reference_fleet_storm_config(2, 500, 5);
    config.disruptions.front().dc = 7;  // out of range for a 2-DC fleet
    sim::SingleKernelFabric fabric(2);
    EXPECT_THROW(run_fleet_storm(config, fabric), std::invalid_argument);
    // The pre-fault window ends at the first disruption: there must be one.
    config.disruptions.clear();
    EXPECT_THROW(run_fleet_storm(config, fabric), std::invalid_argument);
  }
}

TEST(FederationFleetStorm, ReferenceNetworkFloorsAreSoundLookaheads) {
  const FleetStormConfig config = make_reference_fleet_storm_config(4, 500, 5);
  const network::InterDcNetwork net = make_fleet_network(config);
  ASSERT_EQ(net.site_count(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t d = 0; d < 4; ++d) {
      if (s == d) {
        EXPECT_EQ(net.latency_floor_s(s, d), 0.0);
        continue;
      }
      // Positive, symmetric (derived from great-circle distance), and at
      // least the metro clamp.
      EXPECT_GE(net.latency_floor_s(s, d), config.min_latency_floor_s);
      EXPECT_EQ(net.latency_floor_s(s, d), net.latency_floor_s(d, s));
      EXPECT_GE(net.latency_floor_s(s, d), net.min_latency_floor_s());
    }
  }
  // The derived shard config's lookahead must never exceed the true floor
  // of any datacenter pair it covers, or a legal fleet send could be
  // rejected — and grouped decompositions use cross-group minima.
  const sim::ShardedConfig two = make_fleet_sharded_config(net, 2, 1);
  ASSERT_EQ(two.lookahead_s.size(), 4u);
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      if (a == b) continue;
      for (std::size_t src = a * 2; src < a * 2 + 2; ++src) {
        for (std::size_t dst = b * 2; dst < b * 2 + 2; ++dst) {
          EXPECT_LE(two.lookahead_s[a * 2 + b], net.latency_floor_s(src, dst));
        }
      }
    }
  }
}

}  // namespace
}  // namespace epm::faults
